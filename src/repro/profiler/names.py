"""What a profile's instruction ids mean: the ``names`` section.

A Gcost node is ``(iid, context)``, and an iid means something only in
the program that numbered it.  Every read-side use of that program is
a name or line lookup: the ``"new T"`` text, method and line of an
allocation site, the method of an iid, the line of a branch.
:class:`ProgramNames` holds exactly those lookups.  It is built from a
compiled program (:func:`program_names`) or read from the ``names``
section that ``profile --save-graph`` writes into a profile
(:func:`names_from_dict`), so ``report`` and ``analyze`` read a
profile that carries one without compiling anything.  Reports need
only the allocation sites' names (:func:`site_descriptions`).

The section covers every iid the profile's graph or tracker state
references (:func:`referenced_iids`), as packed columns
(:func:`~repro.profiler.serialize.pack_column`)::

    "names": {
        "methods": ["Log.<init>", "Main.main", ...],
        "iids": "i2:...",     # distinct iids
        "method": "i1:...",   # per iid, an index into "methods"
        "line": "i2:...",     # per iid, its source line
        "sites": "i2:...",    # the allocation sites among "iids"
        "site_text": ["new Log", "new int[]", ...]  # per site
    }

A profile without the section (every v1-v4 file written before it) is
read with the program, as before.
"""

from __future__ import annotations

from .errors import ProfileFormatError


class ProgramNames:
    """iid -> method, line and, for allocation sites, ``"new T"`` text.

    Shared by every report, query and table that names an iid, so it
    is read-only once built; callers only ``.get()`` from its maps.
    """

    __slots__ = ("method_of", "line_of", "sites", "_descriptions")

    def __init__(self, method_of: dict, line_of: dict, sites: dict):
        self.method_of = method_of      # iid -> "Owner.method"
        self.line_of = line_of          # iid -> source line
        self.sites = sites              # allocation iid -> "new T"
        self._descriptions = None

    @property
    def descriptions(self) -> dict:
        """Allocation iid -> ``("new T", "Owner.method", line)``."""
        if self._descriptions is None:
            method_of = self.method_of
            line_of = self.line_of
            self._descriptions = {
                iid: (what, method_of.get(iid, "?"), line_of.get(iid, 0))
                for iid, what in self.sites.items()}
        return self._descriptions


def site_descriptions(program) -> dict:
    """Allocation iid -> ``("new T", "Owner.method", line)``: a
    :class:`ProgramNames`' own, or a compiled program's, built on first
    use and kept on it like its compiled tiers (a finalized program
    does not change).  Reports need no more than this, so a program
    that only serves reports keeps no per-iid maps."""
    if isinstance(program, ProgramNames):
        return program.descriptions
    descriptions = getattr(program, "_site_descriptions", None)
    if descriptions is not None:
        return descriptions
    from ..ir import instructions as ins
    method_of = _method_map(program)
    descriptions = {}
    for iid, instr in program.alloc_sites.items():
        if instr.op == ins.OP_NEW_OBJECT:
            what = f"new {instr.class_name}"
        else:
            what = f"new {instr.elem_type}[]"
        descriptions[iid] = (what, method_of.get(iid, "?"), instr.line)
    if program.finalized:
        program._site_descriptions = descriptions
    return descriptions


def program_names(program) -> ProgramNames:
    """The names of ``program``: a :class:`ProgramNames` as it is, or a
    compiled program's, built on first use and kept on it."""
    if isinstance(program, ProgramNames):
        return program
    names = getattr(program, "_names", None)
    if names is not None:
        return names
    names = ProgramNames(
        _method_map(program),
        {instr.iid: instr.line for instr in program.instructions},
        {iid: what for iid, (what, _, _)
         in site_descriptions(program).items()})
    if program.finalized:
        program._names = names
    return names


def _method_map(program) -> dict:
    """iid -> qualified name of the method holding it."""
    method_of = {}
    for cls in program.classes.values():
        for method in cls.methods.values():
            name = method.qualified_name
            for instr in method.body:
                method_of[instr.iid] = name
    return method_of


def referenced_iids(graph, state=None) -> set:
    """Every iid ``graph`` and ``state`` name: node keys, allocation
    keys of effects and points-to, branch and return iids."""
    iids = {iid for iid, _ in graph.node_keys}
    iids.update(alloc[0] for _, alloc, _ in graph.effects.values()
                if alloc is not None)
    for base, fields in graph.points_to.items():
        iids.add(base[0])
        for targets in fields.values():
            iids.update(target[0] for target in targets)
    if state is not None:
        iids.update(state.branch_outcomes)
        iids.update(state.return_nodes)
    return iids


def names_to_dict(names: ProgramNames, iids) -> dict:
    """The ``names`` section for ``iids``: those of them ``names``
    knows, in ascending order, with the allocation sites among them."""
    from .serialize import pack_column
    method_of = names.method_of
    line_of = names.line_of
    iids = sorted(iid for iid in iids if iid in method_of)
    methods = sorted({method_of[iid] for iid in iids})
    index = {method: position for position, method in enumerate(methods)}
    sites = [iid for iid in iids if iid in names.sites]
    return {"methods": methods,
            "iids": pack_column(iids),
            "method": pack_column([index[method_of[iid]] for iid in iids]),
            "line": pack_column([line_of[iid] for iid in iids]),
            "sites": pack_column(sites),
            "site_text": [names.sites[iid] for iid in sites]}


def _bad(key: str, problem: str) -> ProfileFormatError:
    return ProfileFormatError(f"section 'names.{key}' {problem}")


def _strings(section: dict, key: str) -> list:
    values = section.get(key)
    if type(values) is not list or set(map(type, values)) - {str}:
        raise _bad(key, "is not a list of strings")
    return values


def _distinct(values: list, key: str) -> None:
    if len(set(values)) != len(values):
        raise _bad(key, "repeats an iid")


def names_from_dict(section) -> ProgramNames:
    """Decode a ``names`` section, checking it whole first.

    Raises :class:`ProfileFormatError` naming the key at fault when
    the section is not an object, a column does not decode to ints
    (:func:`~repro.profiler.serialize.unpack_column`), the per-iid or
    per-site columns differ in length, an iid repeats, a method index
    is outside the method table, a site is not among the iids, or a
    method name or site text is not a string.
    """
    from .serialize import unpack_column
    if type(section) is not dict:
        raise ProfileFormatError("section 'names' is not an object")
    methods = _strings(section, "methods")
    iids, method, line, sites = (
        unpack_column(section.get(key), f"names.{key}")
        for key in ("iids", "method", "line", "sites"))
    site_text = _strings(section, "site_text")
    if not len(iids) == len(method) == len(line):
        raise _bad("iids", f"holds {len(iids)} iids but {len(method)} "
                           f"method indexes and {len(line)} lines")
    if len(sites) != len(site_text):
        raise _bad("sites", f"holds {len(sites)} sites but "
                            f"{len(site_text)} site texts")
    _distinct(iids, "iids")
    _distinct(sites, "sites")
    if method and (min(method) < 0 or max(method) >= len(methods)):
        raise _bad("method", f"holds an index outside the "
                             f"{len(methods)} methods")
    if not set(sites) <= set(iids):
        raise _bad("sites", "holds an iid that is not in 'names.iids'")
    return ProgramNames(dict(zip(iids, map(methods.__getitem__, method))),
                        dict(zip(iids, line)),
                        dict(zip(sites, site_text)))
