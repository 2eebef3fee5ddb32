"""Program model: classes, fields, methods, and whole-program finalize.

A :class:`Program` is the unit handed to the VM.  ``finalize()`` must be
called once after construction; it

* assigns a unique ``iid`` to every instruction (the static-instruction
  identity used throughout the profiler),
* resolves branch/jump label names to absolute body indices,
* builds the class hierarchy and per-class virtual method tables,
* resolves static/special call targets,
* runs the IR verifier.
"""

from __future__ import annotations

from . import instructions as ins
from .types import Type


class IRError(Exception):
    """Raised for malformed IR detected at finalize/verify time."""


class FieldDef:
    """An instance or static field declaration."""

    __slots__ = ("name", "type", "is_static", "owner")

    def __init__(self, name: str, type_: Type, is_static: bool = False):
        self.name = name
        self.type = type_
        self.is_static = is_static
        self.owner = None  # ClassDef, set on add

    def __repr__(self):
        kind = "static " if self.is_static else ""
        return f"<field {kind}{self.type} {self.name}>"


class MethodDef:
    """A method: signature, body instructions, and label map."""

    __slots__ = ("name", "owner", "params", "return_type", "is_static",
                 "body", "labels", "is_constructor", "max_line")

    def __init__(self, name: str, params, return_type: Type,
                 is_static: bool = False, is_constructor: bool = False):
        self.name = name
        self.owner = None               # ClassDef, set on add
        self.params = list(params)      # [(name, Type)]
        self.return_type = return_type
        self.is_static = is_static
        self.is_constructor = is_constructor
        self.body = []                  # [Instruction]
        self.labels = {}                # label name -> body index
        self.max_line = 0

    @property
    def qualified_name(self) -> str:
        owner = self.owner.name if self.owner else "?"
        return f"{owner}.{self.name}"

    def param_names(self):
        return [name for name, _ in self.params]

    @property
    def entry_registers(self) -> tuple:
        """The registers an activation starts with: ``this`` for an
        instance method, then the parameters.  A call hands its shadows
        over in this order (:mod:`repro.profiler.base`)."""
        params = tuple(name for name, _ in self.params)
        return params if self.is_static else ("this",) + params

    def __repr__(self):
        return f"<method {self.qualified_name}/{len(self.params)}>"


class ClassDef:
    """A class: fields, methods, optional superclass."""

    __slots__ = ("name", "super_name", "fields", "static_fields", "methods",
                 "superclass", "vtable", "all_fields")

    def __init__(self, name: str, super_name=None):
        self.name = name
        self.super_name = super_name
        self.fields = {}         # name -> FieldDef (instance)
        self.static_fields = {}  # name -> FieldDef (static)
        self.methods = {}        # name -> MethodDef
        self.superclass = None   # ClassDef, resolved at finalize
        self.vtable = {}         # name -> MethodDef, incl. inherited
        self.all_fields = {}     # name -> FieldDef, incl. inherited

    def add_field(self, field: FieldDef) -> FieldDef:
        field.owner = self
        table = self.static_fields if field.is_static else self.fields
        if field.name in table:
            raise IRError(f"duplicate field {self.name}.{field.name}")
        table[field.name] = field
        return field

    def add_method(self, method: MethodDef) -> MethodDef:
        method.owner = self
        if method.name in self.methods:
            raise IRError(f"duplicate method {self.name}.{method.name}")
        self.methods[method.name] = method
        return method

    def __repr__(self):
        return f"<class {self.name}>"


class Program:
    """A whole MiniJ program in TAC form."""

    def __init__(self):
        self.classes = {}              # name -> ClassDef
        self.entry = None              # MethodDef of static main
        self.instructions = []         # iid -> Instruction (post-finalize)
        self.alloc_sites = {}          # iid -> NewObject | NewArray
        self.finalized = False
        #: Source text by file label, for diagnostics (optional).
        self.sources = {}

    # -- construction -----------------------------------------------------

    def add_class(self, cls: ClassDef) -> ClassDef:
        if cls.name in self.classes:
            raise IRError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls
        return cls

    def get_class(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise IRError(f"unknown class {name}") from None

    # -- hierarchy queries --------------------------------------------------

    def is_subclass(self, sub: str, sup: str) -> bool:
        """True if class ``sub`` equals or transitively extends ``sup``."""
        cls = self.classes.get(sub)
        while cls is not None:
            if cls.name == sup:
                return True
            cls = cls.superclass
        return False

    def lookup_method(self, class_name: str, method_name: str):
        """Resolve a method against the vtable of ``class_name``."""
        cls = self.get_class(class_name)
        return cls.vtable.get(method_name)

    def lookup_field(self, class_name: str, field_name: str):
        cls = self.get_class(class_name)
        return cls.all_fields.get(field_name)

    def lookup_static_field(self, class_name: str, field_name: str):
        cls = self.classes.get(class_name)
        while cls is not None:
            fd = cls.static_fields.get(field_name)
            if fd is not None:
                return fd
            cls = cls.superclass
        return None

    # -- finalize -----------------------------------------------------------

    def finalize(self, entry_class: str = "Main",
                 entry_method: str = "main",
                 verify: bool = True) -> "Program":
        """Assign iids, resolve labels/hierarchy/calls, verify."""
        if self.finalized:
            return self
        self._link_hierarchy()
        self._build_tables()
        self._assign_iids_and_labels()
        self._resolve_calls()
        self._resolve_natives()
        self._resolve_entry(entry_class, entry_method)
        self.finalized = True
        if verify:
            from .verifier import verify_program
            verify_program(self)
        return self

    def _link_hierarchy(self):
        for cls in self.classes.values():
            if cls.super_name is not None:
                if cls.super_name not in self.classes:
                    raise IRError(
                        f"class {cls.name} extends unknown class "
                        f"{cls.super_name}")
                cls.superclass = self.classes[cls.super_name]
        # Reject inheritance cycles.
        for cls in self.classes.values():
            seen = set()
            cur = cls
            while cur is not None:
                if cur.name in seen:
                    raise IRError(f"inheritance cycle through {cur.name}")
                seen.add(cur.name)
                cur = cur.superclass

    def _build_tables(self):
        # Topologically: superclasses first (walk up and memoize).
        done = {}

        def build(cls: ClassDef):
            if cls.name in done:
                return
            if cls.superclass is not None:
                build(cls.superclass)
                cls.vtable = dict(cls.superclass.vtable)
                cls.all_fields = dict(cls.superclass.all_fields)
            else:
                cls.vtable = {}
                cls.all_fields = {}
            for name, fd in cls.fields.items():
                if name in cls.all_fields:
                    raise IRError(
                        f"field {cls.name}.{name} shadows inherited field")
                cls.all_fields[name] = fd
            for name, md in cls.methods.items():
                if not md.is_static and not md.is_constructor:
                    prev = cls.vtable.get(name)
                    if prev is not None and len(prev.params) != len(md.params):
                        raise IRError(
                            f"override {cls.name}.{name} changes arity")
                    cls.vtable[name] = md
            done[cls.name] = True

        for cls in self.classes.values():
            build(cls)

    def _assign_iids_and_labels(self):
        self.instructions = []
        self.alloc_sites = {}
        for cls in sorted(self.classes.values(), key=lambda c: c.name):
            for method in sorted(cls.methods.values(), key=lambda m: m.name):
                for index, instr in enumerate(method.body):
                    instr.iid = len(self.instructions)
                    self.instructions.append(instr)
                    if instr.op in (ins.OP_NEW_OBJECT, ins.OP_NEW_ARRAY):
                        self.alloc_sites[instr.iid] = instr
                self._resolve_labels(method)

    @staticmethod
    def _resolve_labels(method: MethodDef):
        def target(label: str) -> int:
            try:
                return method.labels[label]
            except KeyError:
                raise IRError(
                    f"undefined label {label!r} in "
                    f"{method.qualified_name}") from None

        for instr in method.body:
            if instr.op == ins.OP_JUMP:
                instr.target_index = target(instr.target)
            elif instr.op == ins.OP_BRANCH:
                instr.then_index = target(instr.then_target)
                instr.else_index = target(instr.else_target)

    def _resolve_calls(self):
        for instr in self.instructions:
            if instr.op != ins.OP_CALL:
                continue
            if instr.kind == ins.CALL_VIRTUAL:
                # Check a method of that name exists somewhere reachable.
                md = self.lookup_method(instr.class_name, instr.method_name)
                if md is None:
                    raise IRError(
                        f"no virtual method {instr.class_name}."
                        f"{instr.method_name}")
                continue
            cls = self.get_class(instr.class_name)
            md = cls.methods.get(instr.method_name)
            if md is None and instr.kind == ins.CALL_STATIC:
                # Static methods are inherited for lookup purposes.
                cur = cls.superclass
                while cur is not None and md is None:
                    md = cur.methods.get(instr.method_name)
                    cur = cur.superclass
            if md is None:
                raise IRError(
                    f"no method {instr.class_name}.{instr.method_name} "
                    f"for {instr.kind} call")
            instr.resolved = md

    def _resolve_natives(self):
        """Bind native callables once so the VM hot path skips the
        per-execution registry lookup.  Unknown names stay unresolved
        and keep raising at execution time, preserving the lazy-error
        contract for natives that are never reached."""
        from ..vm.natives import NATIVES

        for instr in self.instructions:
            if instr.op == ins.OP_CALL_NATIVE:
                instr.resolved_native = NATIVES.get(instr.native)

    def _resolve_entry(self, entry_class: str, entry_method: str):
        cls = self.classes.get(entry_class)
        if cls is None:
            raise IRError(f"no entry class {entry_class}")
        md = cls.methods.get(entry_method)
        if md is None or not md.is_static:
            raise IRError(
                f"entry {entry_class}.{entry_method} must be a static method")
        self.entry = md

    # -- convenience --------------------------------------------------------

    def method_of(self, iid: int) -> MethodDef:
        """Find the method containing instruction ``iid`` (slow; debug)."""
        for cls in self.classes.values():
            for method in cls.methods.values():
                for instr in method.body:
                    if instr.iid == iid:
                        return method
        raise IRError(f"no instruction with iid {iid}")

    def instruction(self, iid: int):
        return self.instructions[iid]

    def __repr__(self):
        return (f"<Program classes={len(self.classes)} "
                f"instructions={len(self.instructions)}>")
