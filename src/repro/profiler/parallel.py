"""Parallel profiling runtime: sharded execution, exact Gcost merge.

§3.2 observes that Gcost can be written to external storage and
analyzed offline; because nodes live in the *bounded abstract domain*
``(iid, h(context))``, the graph of a workload is also exactly
*mergeable*: the union of the graphs of independent execution shards
— node-id remapping via the ``(iid, d)`` keys, frequency summation,
flag OR-ing, and plain union of the def-use / reference / points-to /
control-dependence structure — is identical (including node
numbering, when shards are merged in order) to the graph one tracker
would build running the shards back to back.  That licenses a
map-reduce profiling architecture:

* **map** — :class:`~repro.profiler.supervisor.SupervisedProfiler`
  runs each :class:`ProfileJob` in its own worker process; the worker
  builds its program (a forked worker reuses the parent's compile, see
  :func:`compile_program`), runs VM + :class:`CostTracker`, and returns
  a compact serialized profile (format v4, graph + tracker state);
* **reduce** — the parent folds the shard documents, in job order,
  straight into one graph/state pair through
  :func:`~repro.profiler.serialize.fold_document`, which applies the
  rules of :func:`merge_graphs` to the rows; the pair goes straight to
  the batched slicing engine and the report clients.

This module holds the runner-independent pieces: the job recipe, the
reduce operator, the merged-profile container, and the oracle.

:func:`profile_jobs_sequential` is the executable oracle (one tracker
accumulating across runs, per-execution shadows reset by
``CostTracker.begin_run``); the equivalence suite in
``tests/test_parallel.py`` checks the merge against it, and
:func:`canonical_form` gives both sides a node-numbering-independent
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import ProfileInputError
from .graph import DependenceGraph
from .state import TrackerState

DEFAULT_MAX_STEPS = 2_000_000_000


def normalize_sampling(sampling):
    """Normalize a sampling argument to a serialized schedule dict.

    Accepts ``None``, a :class:`~repro.profiler.sampling.SampleSchedule`,
    an ``as_dict()`` snapshot, or a ``--sample`` spec string; returns
    the JSON/pickle-safe dict representation jobs carry (or ``None``).
    """
    if sampling is None:
        return None
    from .sampling import SampleSchedule, parse_sample_spec
    if isinstance(sampling, SampleSchedule):
        return sampling.as_dict()
    if isinstance(sampling, dict):
        return SampleSchedule.from_dict(sampling).as_dict()
    schedule = parse_sample_spec(sampling)
    return schedule.as_dict() if schedule is not None else None


@dataclass
class ProfileJob:
    """One execution shard: a picklable recipe for building a program.

    Workers build the program from the recipe (source text, file path,
    registered workload, or stress-generator parameters) so jobs stay
    cheap to ship across process boundaries — compiled programs never
    need to be pickled.  Source and file recipes compile through
    :func:`compile_program`, so a worker forked from a parent that
    already compiled the same source reuses that program.

    ``exec_mode`` (``"interp"`` / ``"compiled"`` / ``None`` for the
    VM default) and ``sampling`` (a serialized
    :class:`~repro.profiler.sampling.SampleSchedule`, or ``None`` for
    exact tracking) are part of the job recipe: the schedule is a pure
    function of the instruction count, so a supervised retry or a
    checkpoint resume rebuilding the job replays the identical window
    sequence.
    """

    kind: str                  # "source" | "file" | "workload" | "stress"
    spec: dict = field(default_factory=dict)
    label: str = ""
    max_steps: int = DEFAULT_MAX_STEPS
    exec_mode: str = None
    sampling: dict = None

    @classmethod
    def from_source(cls, source: str, use_stdlib: bool = False,
                    label: str = "source",
                    max_steps: int = DEFAULT_MAX_STEPS,
                    exec_mode: str = None, sampling=None) -> "ProfileJob":
        return cls("source", {"source": source, "use_stdlib": use_stdlib},
                   label, max_steps, exec_mode,
                   normalize_sampling(sampling))

    @classmethod
    def from_file(cls, path: str, use_stdlib: bool = True,
                  label: str = None,
                  max_steps: int = DEFAULT_MAX_STEPS,
                  exec_mode: str = None, sampling=None) -> "ProfileJob":
        return cls("file", {"path": path, "use_stdlib": use_stdlib},
                   label if label is not None else path, max_steps,
                   exec_mode, normalize_sampling(sampling))

    @classmethod
    def workload(cls, name: str, variant: str = "unopt", scale=None,
                 label: str = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 exec_mode: str = None, sampling=None) -> "ProfileJob":
        return cls("workload",
                   {"name": name, "variant": variant,
                    "scale": dict(scale) if scale else None},
                   label if label is not None else f"{name}/{variant}",
                   max_steps, exec_mode, normalize_sampling(sampling))

    @classmethod
    def stress(cls, stages: int = 96, chain: int = 24, rounds: int = 3,
               seed: int = 0, label: str = None,
               max_steps: int = DEFAULT_MAX_STEPS,
               exec_mode: str = None, sampling=None) -> "ProfileJob":
        return cls("stress",
                   {"stages": stages, "chain": chain, "rounds": rounds,
                    "seed": seed},
                   label if label is not None else f"stress/seed{seed}",
                   max_steps, exec_mode, normalize_sampling(sampling))

    def schedule(self):
        """The job's :class:`SampleSchedule`, or ``None``."""
        if self.sampling is None:
            return None
        from .sampling import SampleSchedule
        return SampleSchedule.from_dict(self.sampling)

    def make_vm(self, program, tracker):
        """Build the VM for this job (runs inside the worker)."""
        from ..vm import VM
        return VM(program, tracer=tracker, max_steps=self.max_steps,
                  exec_mode=self.exec_mode, sampling=self.schedule())

    def build(self):
        """This job's program (runs inside the worker)."""
        spec = self.spec
        if self.kind == "source":
            return compile_program(spec["source"], spec["use_stdlib"])
        if self.kind == "file":
            with open(spec["path"]) as handle:
                return compile_program(handle.read(), spec["use_stdlib"],
                                       origin=spec["path"])
        if self.kind == "workload":
            from ..workloads import get_workload
            return get_workload(spec["name"]).build(spec["variant"],
                                                    spec["scale"])
        if self.kind == "stress":
            from ..workloads.stress import build_stress
            return build_stress(**spec)
        raise ValueError(f"unknown job kind {self.kind!r}")


#: ``((source, use_stdlib), program)`` of this process's last compile.
_last_compile = None


def compile_program(source: str, use_stdlib: bool, origin: str = None):
    """Compile MiniJ ``source`` (with the stdlib when ``use_stdlib``),
    memoized per process on ``(source, use_stdlib)``.

    The CLI compiles a program once in the parent; shard workers
    forked from it inherit the memo and skip lex, parse, typecheck and
    codegen.  Under ``spawn`` the memo starts empty and the worker
    compiles from its recipe.  The returned program is shared between
    runs (the VM only caches its compiled tiers on it).  The
    ``compile`` span, tagged ``file=origin``, is emitted only when the
    compile actually runs.
    """
    global _last_compile
    key = (source, use_stdlib)
    if _last_compile is not None and _last_compile[0] == key:
        return _last_compile[1]
    from ..observability.telemetry import current
    with current().span("compile", file=origin):
        if use_stdlib:
            from ..stdlib import compile_with_stdlib
            program = compile_with_stdlib(source)
        else:
            from ..lang import compile_source
            program = compile_source(source)
    _last_compile = (key, program)
    return program


# -- the reduce operator ----------------------------------------------------


def merge_graphs(graphs, states=None):
    """Union shard graphs (and optionally their tracker states).

    Nodes are matched by their abstract key ``(iid, d)``: frequencies
    sum, flag masks OR, def-use edges / heap effects / reference edges
    / points-to entries / control dependences union.  Effects of a
    node observed in several shards keep the *last* shard's record,
    matching the overwrite a single tracker performs when it re-visits
    the node.  Because shards are folded in list order, the merged
    node numbering is exactly the numbering a sequential run over the
    concatenated shards would produce — the merge is not just
    equivalent modulo renaming, it is bit-for-bit reproducible.

    With ``states`` (one :class:`TrackerState` per graph, aligned by
    index) the per-node context sets, branch outcome counters and
    return-node sets are merged under the same node remapping, and the
    call returns ``(graph, state)``; otherwise it returns the graph.

    Input contract (violations raise
    :class:`~repro.profiler.errors.ProfileInputError`, a
    ``ValueError`` subclass): ``graphs`` must be non-empty — the merge
    of zero shards has no context-domain size, so there is no sensible
    identity element; every graph must share one ``slots`` value; and
    ``states``, when given, must hold exactly one entry per graph,
    aligned by index (a ``None`` entry is not accepted — serialize the
    state with the graph or merge graphs only).
    """
    graphs = list(graphs)
    if not graphs:
        raise ProfileInputError(
            "merge_graphs needs at least one graph (the empty merge "
            "has no context-domain size)")
    slots = graphs[0].slots
    for other in graphs[1:]:
        if other.slots != slots:
            raise ProfileInputError(
                f"cannot merge graphs with different context domains "
                f"(slots {slots} vs {other.slots})")
    if states is not None:
        states = list(states)
        if len(states) != len(graphs):
            raise ProfileInputError(
                f"need exactly one state per graph "
                f"(got {len(states)} states for {len(graphs)} graphs)")
    merged = DependenceGraph(slots=slots)
    merged_state = TrackerState() if states is not None else None
    for index, src in enumerate(graphs):
        fold_graph(merged, src, merged_state,
                   states[index] if states is not None else None)
    return merged if merged_state is None else (merged, merged_state)


def fold_graph(merged, src, merged_state=None, src_state=None):
    """Fold one shard graph (and optionally its state) into ``merged``,
    in place.

    This is the single step of :func:`merge_graphs`, for graphs
    already in memory (the sequential oracle, tests).  Shard documents
    — worker results, pushed shards, saved profiles — fold through
    :func:`~repro.profiler.serialize.fold_document`, which applies the
    same rules to the rows without building a shard graph.  Folding
    shards one by one through this function is bit-for-bit identical
    (node numbering included) to one :func:`merge_graphs` call over
    the same list.

    ``merged_state`` and ``src_state`` must be given together;
    a slots mismatch raises
    :class:`~repro.profiler.errors.ProfileInputError`.
    """
    if src.slots != merged.slots:
        raise ProfileInputError(
            f"cannot merge graphs with different context domains "
            f"(slots {merged.slots} vs {src.slots})")
    if (merged_state is None) != (src_state is None):
        raise ProfileInputError(
            "fold_graph needs both states or neither (folding a "
            "stateless shard into a stateful merge would silently "
            "drop context sets)")
    ids = merged._ids
    node_keys = merged.node_keys
    freq = merged.freq
    flags = merged.flags
    preds = merged.preds
    succs = merged.succs
    remap = []
    append = remap.append
    for nid, key in enumerate(src.node_keys):
        mid = ids.get(key)
        if mid is None:
            mid = len(node_keys)
            ids[key] = mid
            node_keys.append(key)
            freq.append(src.freq[nid])
            flags.append(src.flags[nid])
            preds.append(set())
            succs.append(set())
        else:
            freq[mid] += src.freq[nid]
            flags[mid] |= src.flags[nid]
        append(mid)
    add_edge = merged.add_edge
    for nid, out in enumerate(src.succs):
        mid = remap[nid]
        for dst in out:
            add_edge(mid, remap[dst])
    for nid, effect in src.effects.items():
        merged.effects[remap[nid]] = effect
    for store, alloc in src.ref_edges:
        merged.ref_edges.add((remap[store], remap[alloc]))
    # Allocation keys are (alloc_iid, context_slot) — abstract-
    # domain values, not node ids — so points_to needs no remap.
    for base, fields in src.points_to.items():
        merged_fields = merged.points_to.setdefault(base, {})
        for fname, targets in fields.items():
            merged_fields.setdefault(fname, set()).update(targets)
    for nid, cpreds in src.control_deps.items():
        merged.control_deps.setdefault(remap[nid], set()).update(
            remap[p] for p in cpreds)
    if merged_state is not None:
        node_gs = src_state.node_gs
        merged_state.fold(
            [len(gs) if gs else 0 for gs in node_gs],
            list(chain.from_iterable(filter(None, node_gs))),
            [(iid, taken, not_taken) for iid, (taken, not_taken)
             in src_state.branch_outcomes.items()],
            src_state.return_nodes.items(), remap)


def canonical_form(graph, state=None):
    """A node-numbering-independent normal form for equivalence checks.

    Every node id is replaced by its abstract key ``(iid, d)`` and all
    collections are sorted, so two graphs compare equal exactly when
    they are isomorphic under the identity on keys — the correctness
    notion of the parallel merge.  Includes tracker-side state when
    given.
    """
    keys = graph.node_keys
    form = {
        "slots": graph.slots,
        "nodes": sorted((key, graph.freq[n], graph.flags[n])
                        for n, key in enumerate(keys)),
        "edges": sorted((keys[src], keys[dst])
                        for src, out in enumerate(graph.succs)
                        for dst in out),
        "effects": sorted((keys[n], kind, alloc_key, fname)
                          for n, (kind, alloc_key, fname)
                          in graph.effects.items()),
        "ref_edges": sorted((keys[store], keys[alloc])
                            for store, alloc in graph.ref_edges),
        "points_to": sorted((base, fname, tuple(sorted(targets)))
                            for base, fields in graph.points_to.items()
                            for fname, targets in fields.items()),
        "control_deps": sorted(
            (keys[n], tuple(sorted(keys[p] for p in cpreds)))
            for n, cpreds in graph.control_deps.items()),
    }
    if state is not None:
        form["branch_outcomes"] = sorted(
            (iid, tuple(outcomes))
            for iid, outcomes in state.branch_outcomes.items())
        form["return_nodes"] = sorted(
            (iid, tuple(sorted(keys[n] for n in nodes)))
            for iid, nodes in state.return_nodes.items())
        form["node_gs"] = sorted(
            (keys[n], tuple(sorted(gs)))
            for n, gs in enumerate(state.node_gs) if gs)
    return form


@dataclass
class AggregateProfile:
    """The reduce result: one merged graph/state over all shards."""

    graph: DependenceGraph
    state: TrackerState
    metas: list

    @property
    def instructions(self) -> int:
        """Total instructions executed across all shards."""
        return sum(meta.get("instructions", 0) for meta in self.metas)

    @property
    def outputs(self):
        """Per-shard program outputs, in job order."""
        return [meta.get("output", "") for meta in self.metas]

    @property
    def sampled(self) -> bool:
        """True when at least one shard ran under a sampling schedule."""
        return any(meta.get("sampling") for meta in self.metas)

    @property
    def sampling_factor(self) -> float:
        """Campaign-wide scale for estimated Gcost frequencies."""
        from .sampling import aggregate_factor
        return aggregate_factor(self.metas)

    def conflict_ratio(self) -> float:
        return self.state.conflict_ratio(self.graph)


def profile_jobs_sequential(jobs, slots: int = 16, phases=None,
                            track_cr: bool = True,
                            track_control: bool = False) -> AggregateProfile:
    """The merge oracle: one tracker accumulating across all jobs.

    Runs each job's program in a fresh VM under a *single*
    :class:`CostTracker` (per-execution shadows reset between runs),
    i.e. the "sequential run over the concatenated shards" that
    :func:`merge_graphs` must reproduce exactly.

    An empty job list raises
    :class:`~repro.profiler.errors.ProfileInputError` (same contract
    as the parallel entry points: there is no empty profile).
    """
    jobs = list(jobs)
    if not jobs:
        raise ProfileInputError(
            "no profile jobs given: profile_jobs_sequential() "
            "requires at least one ProfileJob")
    from .tracker import CostTracker
    tracker = CostTracker(slots=slots, phases=phases, track_cr=track_cr,
                          track_control=track_control)
    metas = []
    for job in jobs:
        program = job.build()
        tracker.begin_run()
        vm = job.make_vm(program, tracker)
        vm.run()
        meta = {"label": job.label,
                "instructions": vm.instr_count,
                "output": vm.stdout(),
                "exec_mode": vm.exec_tier or vm.exec_mode}
        stats = vm.sampling_stats()
        if stats is not None:
            meta["sampling"] = stats
        metas.append(meta)
    return AggregateProfile(graph=tracker.graph, state=tracker.state(),
                            metas=metas)
