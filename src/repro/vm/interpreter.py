"""The MiniJ virtual machine: one activation driver and the reference
interpreter loop.

The VM executes a finalized :class:`~repro.ir.module.Program`.  Every
executed instruction counts one unit of cost (``instr_count``), matching
the paper's cost model ("each instruction is treated as having unit
cost").

Execution
---------

A *tier* is a mapping from each ``MethodDef`` to an *activation
function* ``(rt, frame, count, limit)`` that returns a generator.  One
generator runs one activation; it yields ``(target, callee_frame,
count, limit)`` to call, yields ``(None, value, count, limit)`` to
return, and resumes from ``(value, count, limit[, traced])``.
:meth:`VM._drive`, the VM's only call/return driver, is a trampoline
over those generators: it owns the frame stack, the run's
:class:`RunControl`, the per-activation tracking rule of burst
sampling, fault containment and the run's finish, so deep MiniJ
recursion never consumes Python stack frames.

The interpreter tier maps every method to :func:`interpret`, the
reference loop below; the compiled tier (:mod:`repro.vm.compiled`)
maps each method to its template.  :meth:`VM.run` picks the tracer's
template tier, or the interpreter when the tracer has no template or
the program has a shape the templates do not cover.

Instrumentation
---------------

A *tracer* (normally :class:`repro.profiler.tracker.CostTracker` or one
of the client-analysis trackers) receives a callback for each executed
instruction.  The hook protocol:

===============================  ============================================
hook                             fired for
===============================  ============================================
``trace_instr(i, f)``            const / move / binop / unop / intrinsic /
                                 branch / load_static / store_static /
                                 array_len
``trace_new_object(i, f, o)``    NewObject, after allocation
``trace_new_array(i, f, a)``     NewArray, after allocation
``trace_load_field(i, f, o)``    LoadField, after the read
``trace_store_field(i, f, o,
v)``                             StoreField, after the write
``trace_array_load(i, f, a,
idx)``                           ArrayLoad, after the read
``trace_array_store(i, f, a,
idx, v)``                        ArrayStore, after the write
``trace_call(i, cf, nf, recv)``  Call, after the callee frame is built;
                                 leaves the callee's entry tuple
``trace_return(i, f)``           Return, before the frame pops; leaves the
                                 returned shadow on the tracer
``trace_call_complete(i, f)``    back in the caller, after dest assignment;
                                 gives that shadow to dest
``trace_native(i, f)``           CallNative, after the native ran
``on_phase(name)``               Sys.phase — fired even when disabled
===============================  ============================================

Tracers expose ``enabled``; when False only ``on_phase`` fires, which is
how phase-restricted tracking (§4.1) is implemented.  The three call
hooks are :class:`repro.profiler.base.TracerBase`'s shadow handoff,
the convention the compiled tier's tracked template follows too, so a
tracked run may mix the tiers activation by activation.

Observability
-------------

The VM also reports into a telemetry hub
(:mod:`repro.observability.telemetry` — the process-wide hub unless
one is passed as ``telemetry=``).  When the hub is enabled the loop
emits periodic growth samples (instructions, heap allocations, shadow
population, Gcost size) and a run summary with per-opcode-class
counts; when disabled (the default) the loop does no per-instruction
telemetry work at all — the sampling checkpoint is folded into the
instruction-budget comparison.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir import instructions as ins
from ..observability.telemetry import current as _current_telemetry
from .errors import (VMArithmeticError, VMBoundsError, VMError, VMLimitError,
                     VMNullError)
from . import EXEC_COMPILED, EXEC_INTERP, EXEC_MODES
from .frames import Frame
from .heap import Heap
from .natives import lookup_native
from .values import render_value


# -- execution modes --------------------------------------------------------


def resolve_exec_mode(value=None) -> str:
    """Resolve an exec-mode choice: the given one, else compiled."""
    mode = value or EXEC_COMPILED
    mode = str(mode).strip().lower()
    if mode not in EXEC_MODES:
        raise VMError(f"unknown exec mode {mode!r} "
                      f"(expected one of {', '.join(EXEC_MODES)})")
    return mode


class RunControl:
    """Budget / telemetry / sampling checkpoints for one VM run.

    Both execution tiers fold every cold-path event into the single
    ``count > limit`` comparison the hot loop already performs:
    ``limit`` is the next event of interest — instruction-budget
    exhaustion, a telemetry growth sample, or a sampling-window toggle
    — and :meth:`fire` handles whichever is due and returns the next
    limit.  With telemetry disabled and no sampling schedule this
    degenerates to ``limit == max_steps`` and the loop runs the exact
    same per-instruction work as the bare interpreter.

    The compiled tier stores its per-run bindings (the tracked
    template's environment) on the same object, so generated templates
    reach everything through one ``rt`` argument.  Its tracked template
    keeps shadows in Python locals, so it also installs
    ``live_shadow``, which counts them for growth samples.
    """

    __slots__ = ("vm", "stack", "telemetry", "max_steps", "cursor",
                 "_tel_next", "limit", "env", "live_shadow")

    def __init__(self, vm, stack):
        self.vm = vm
        self.stack = stack
        self.telemetry = vm.telemetry
        self.max_steps = vm.max_steps
        # Sampling is only meaningful with a tracker attached; without
        # one the whole run is already "untracked".
        schedule = vm.sampling if vm.tracer is not None else None
        self.cursor = (schedule.cursor(vm.instr_count)
                       if schedule is not None else None)
        self._tel_next = (vm.instr_count + self.telemetry.sample_interval
                          if self.telemetry.enabled else None)
        self.limit = self.max_steps
        self.live_shadow = None
        vm._run_control = self

    def initial(self, count: int) -> int:
        limit = self.max_steps
        if self._tel_next is not None and self._tel_next < limit:
            limit = self._tel_next
        cursor = self.cursor
        if cursor is not None and cursor.boundary < limit:
            limit = cursor.boundary
        self.limit = limit
        return limit

    @property
    def window_on(self) -> bool:
        cursor = self.cursor
        return cursor is None or cursor.on

    def fire(self, count: int, instr=None, frame=None) -> int:
        """Handle the due event(s) at ``count`` and return the next limit."""
        vm = self.vm
        if count > self.max_steps:
            vm.instr_count = count
            raise VMLimitError(
                f"instruction budget of {self.max_steps} exceeded",
                instr, frame)
        vm.instr_count = count
        tel_next = self._tel_next
        if tel_next is not None and count > tel_next:
            live = self.live_shadow
            self._tel_next = self.telemetry.vm_sample(
                vm, self.stack, count,
                shadow=live() if live is not None else None)
        cursor = self.cursor
        if cursor is not None and count > cursor.boundary:
            was_on = cursor.on
            while count > cursor.boundary:
                cursor.toggle()
            if cursor.on and not was_on:
                self._rebuild_contexts()
        return self.initial(count)

    def on_phase(self, count: int):
        """Phase entry: reset the sampling cycle (per-phase windows)."""
        cursor = self.cursor
        if cursor is not None:
            was_on = cursor.on
            cursor.phase_reset(count)
            if not was_on:
                self._rebuild_contexts()
            self.initial(count)

    def _rebuild_contexts(self):
        """Recompute the receiver-context chain for the live stack.

        During an untracked burst nobody maintains ``frame.g``: hooks
        are off and the dispatch loops skip the per-call bookkeeping so
        bursts run at genuinely untraced speed.  When a window opens,
        the chain is reconstructed from the activations themselves —
        each frame's ``this`` register still holds the receiver whose
        allocation site extends the caller's context — so tracked
        windows see exactly the context-annotated node identities an
        eagerly-maintained chain would have produced.
        """
        tracer = self.vm.tracer
        if tracer is None:
            return
        from ..profiler.context import extend_context
        slots = getattr(tracer, "slots", 0)
        stack = self.stack
        if not stack:
            return
        g = stack[0].g
        for frame in stack[1:]:
            recv = frame.regs.get("this")
            if recv is not None:
                g = extend_context(g, recv.site)
            frame.g = g
            frame.dctx = (g % slots) if slots else 0

    def finish(self, count: int):
        cursor = self.cursor
        if cursor is not None:
            cursor.finish(count)


def _java_div(a: int, b: int) -> int:
    """Java-style integer division (truncation toward zero)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _java_rem(a: int, b: int) -> int:
    """Java-style remainder: a - (a/b)*b, sign follows the dividend."""
    return a - _java_div(a, b) * b


def _string_hash(s: str) -> int:
    """Deterministic Java-compatible string hash."""
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    # Interpret as signed 32-bit like Java.
    return h - 0x100000000 if h >= 0x80000000 else h


class VM:
    """Runs a finalized MiniJ program on one execution tier."""

    def __init__(self, program, tracer=None, max_steps: int = 2_000_000_000,
                 telemetry=None, exec_mode=None, sampling=None):
        if not program.finalized:
            raise VMError("program must be finalized before execution")
        self.program = program
        self.tracer = tracer
        self.max_steps = max_steps
        #: Execution tier: "compiled" (template-compiled dispatch, the
        #: default) or "interp" (the reference loop, :func:`interpret`).
        #: Programs with shapes the templates do not cover fall back to
        #: interp transparently; ``exec_tier`` records what actually ran,
        #: from the moment a tier is chosen, so a run that a VMError
        #: ends records it too.
        self.exec_mode = resolve_exec_mode(exec_mode)
        self.exec_tier = None
        #: Optional burst-sampling schedule
        #: (:class:`repro.profiler.sampling.SampleSchedule`); only
        #: meaningful when a tracer is attached.
        self.sampling = sampling
        self._run_control = None
        # Observability hub (the process-wide one unless given).  The
        # default is the no-op hub with ``enabled=False``; the dispatch
        # loop guards on that one attribute, outside the loop.
        self.telemetry = (telemetry if telemetry is not None
                          else _current_telemetry())
        self.heap = Heap()
        self._statics = {}        # (owner class, field) -> value
        self.output = []          # program output chunks (Sys.print*)
        self.instr_count = 0      # executed instruction instances (I)
        self.phase_counts = {}    # phase name -> instruction count
        self.current_phase = "main"
        self._phase_started_at = 0
        self.result = None
        self.finished = False

    # -- phases ---------------------------------------------------------------

    def enter_phase(self, name: str):
        """Close the current phase's instruction window and open ``name``."""
        count = self.instr_count - self._phase_started_at
        self.phase_counts[self.current_phase] = (
            self.phase_counts.get(self.current_phase, 0) + count)
        self.current_phase = name
        self._phase_started_at = self.instr_count
        if self.tracer is not None:
            self.tracer.on_phase(name)
        control = self._run_control
        if control is not None:
            control.on_phase(self.instr_count)

    def _close_phases(self):
        count = self.instr_count - self._phase_started_at
        self.phase_counts[self.current_phase] = (
            self.phase_counts.get(self.current_phase, 0) + count)
        self._phase_started_at = self.instr_count

    # -- output helpers ----------------------------------------------------------

    def stdout(self) -> str:
        return "".join(self.output)

    # -- main loop -----------------------------------------------------------------

    def run(self) -> "VM":
        """Execute from the entry method until it returns.

        Containment contract: when execution dies with a
        :class:`VMError` (including :class:`VMLimitError`),
        ``instr_count`` reflects every executed instruction and the
        phase windows are closed before the error escapes — the
        attached tracer's graph-so-far remains a valid partial
        profile, which the supervised profiling runtime salvages
        instead of discarding the shard.

        Runs the tracer's template tier when ``exec_mode`` allows and
        the program's shapes are supported; otherwise the interpreter
        tier.  Both tiers honour the same containment contract and
        produce identical ``instr_count``, output, phase windows, and
        tracker graphs (with sampling off).
        """
        try:
            tiers = None
            if self.exec_mode == EXEC_COMPILED:
                from .compiled import template_tiers
                tiers = template_tiers(self)
            # exec_tier is set before the run, so a run that a VMError
            # ends records it too.
            if tiers is None:
                self.exec_tier = EXEC_INTERP
                interpreted = defaultdict(lambda: interpret)
                tiers = (interpreted, interpreted, None)
            else:
                self.exec_tier = EXEC_COMPILED
            self._drive(*tiers)
            return self
        except VMError as error:
            # Cold path: the error is already escaping.  Stamp the
            # stream (and the flight-recorder ring tapping it) with
            # what died where, so a postmortem dump is self-describing.
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.event("vm.error",
                                type=type(error).__name__,
                                error=str(error),
                                where=error.where,
                                instructions=self.instr_count,
                                phase=self.current_phase)
            raise

    def sampling_stats(self):
        """Sampling meta of the last run (schedule + exact window
        accounting), or None when no schedule was active."""
        control = self._run_control
        if control is None or control.cursor is None:
            return None
        return control.cursor.stats(self.instr_count)

    def _drive(self, fns, plain_fns, bind=None):
        """Run the program on the tier ``fns``: the activation driver.

        ``fns`` and ``plain_fns`` map each ``MethodDef`` to its
        activation function (see the module docstring).  A tracked
        activation runs ``fns``; under burst sampling an activation
        spawned while the window is off runs ``plain_fns`` and stays
        untracked until it returns (DESIGN.md §12).  ``bind(rt,
        gens)``, when given, installs a template tier's per-run
        bindings on the run's :class:`RunControl`.
        """
        tracer = self.tracer
        frame = Frame(self.program.entry)
        frames = [frame]
        gens = []
        rt = RunControl(self, frames)
        cursor = rt.cursor
        if bind is not None:
            bind(rt, gens)
        if tracer is not None and tracer.enabled:
            tracer.on_entry_frame(frame)

        count = self.instr_count
        limit = rt.initial(count)
        # The cursor exists only when a tracer is attached.
        sampling_calls = cursor is not None
        if sampling_calls:
            from ..profiler.context import extend_context
            ctx_slots = getattr(tracer, "slots", 0)
        # The entry activation is tracked whenever a tracer is attached:
        # the tracking windows toggle its hoisted flag, and long-lived
        # frames (main) would otherwise never be tracked.
        gens.append((fns[frame.method](rt, frame, count, limit),
                     tracer is not None))
        msg = None
        telemetry = self.telemetry
        try:
            try:
                while gens:
                    gen, gen_traced = gens[-1]
                    item = gen.send(msg)
                    target = item[0]
                    if target is not None:
                        cframe = item[1]
                        if sampling_calls:
                            if cursor.on:
                                # Inside a window, calls made by activations
                                # that did not run rule METHOD ENTRY extend
                                # the receiver-context chain here.
                                if not (gen_traced and tracer.enabled):
                                    recv = cframe.regs.get("this")
                                    caller = frames[-1]
                                    g = (extend_context(caller.g, recv.site)
                                         if recv is not None else caller.g)
                                    cframe.g = g
                                    cframe.dctx = ((g % ctx_slots)
                                                   if ctx_slots else 0)
                                callee_traced = True
                                callee_fns = fns
                            else:
                                # Untracked burst: no bookkeeping at all.
                                # RunControl rebuilds the chain from the
                                # live stack when the next window opens.
                                callee_traced = False
                                callee_fns = plain_fns
                            cframe.tracked = callee_traced
                        else:
                            callee_traced = tracer is not None
                            callee_fns = fns
                        frames.append(cframe)
                        gens.append((callee_fns[target](rt, cframe,
                                                        item[2], item[3]),
                                     callee_traced))
                        msg = None
                    else:
                        count = item[2]
                        limit = item[3]
                        gens.pop()
                        frames.pop()
                        if gens:
                            # Tracking resumers take their refreshed
                            # hoisted flag from the message.
                            if gens[-1][1]:
                                msg = (item[1], count, limit,
                                       tracer.enabled
                                       and (cursor is None or cursor.on))
                            else:
                                msg = (item[1], count, limit)
                        else:
                            self.result = item[1]
            finally:
                for gen, _ in gens:
                    gen.close()
        except VMError:
            # Fault containment (docs/RESILIENCE.md): the faulting
            # activation stored its exact instruction count; closing
            # the phase windows leaves a partial profile a supervised
            # worker can salvage instead of discarding the shard.
            rt.finish(self.instr_count)
            self._close_phases()
            raise
        self.instr_count = count
        rt.finish(count)
        self._close_phases()
        if telemetry.enabled:
            telemetry.vm_finish(self)
        self.finished = True

    # -- helpers ----------------------------------------------------------------

    def _binop(self, instr, regs, frame):
        a = regs[instr.lhs]
        b = regs[instr.rhs]
        op = instr.binop
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "==":
            return a is b if _is_ref(a) or _is_ref(b) else a == b
        if op == "!=":
            return a is not b if _is_ref(a) or _is_ref(b) else a != b
        if op == "/":
            if b == 0:
                raise VMArithmeticError("division by zero", instr, frame)
            return _java_div(a, b)
        if op == "%":
            if b == 0:
                raise VMArithmeticError("modulo by zero", instr, frame)
            return _java_rem(a, b)
        if op == ins.BIN_CONCAT:
            return _as_str(a) + _as_str(b)
        if op == "&":
            return (a and b) if isinstance(a, bool) else (a & b)
        if op == "|":
            return (a or b) if isinstance(a, bool) else (a | b)
        if op == "^":
            return (a != b) if isinstance(a, bool) else (a ^ b)
        if op == "<<":
            return a << (b & 31)
        if op == ">>":
            return a >> (b & 31)
        raise VMError(f"unknown binary operator {op!r}", instr, frame)

    def _intrinsic(self, instr, regs, frame):
        args = instr.args
        intr = instr.intr
        if intr == ins.INTR_SLEN:
            s = regs[args[0]]
            if s is None:
                raise VMNullError("length() on null string", instr, frame)
            return len(s)
        if intr == ins.INTR_SCHARAT:
            s = regs[args[0]]
            if s is None:
                raise VMNullError("charAt() on null string", instr, frame)
            i = regs[args[1]]
            if i < 0 or i >= len(s):
                raise VMBoundsError(
                    f"charAt index {i} out of bounds for length {len(s)}",
                    instr, frame)
            return ord(s[i])
        if intr == ins.INTR_SEQ:
            return regs[args[0]] == regs[args[1]]
        if intr == ins.INTR_SHASH:
            s = regs[args[0]]
            if s is None:
                raise VMNullError("hash() on null string", instr, frame)
            return _string_hash(s)
        if intr == ins.INTR_ITOS:
            return str(regs[args[0]])
        if intr == ins.INTR_CHR:
            return chr(regs[args[0]] & 0x10FFFF)
        if intr == ins.INTR_SCMP:
            a = regs[args[0]]
            b = regs[args[1]]
            if a is None or b is None:
                raise VMNullError("compare() on null string", instr, frame)
            return -1 if a < b else (1 if a > b else 0)
        raise VMError(f"unknown intrinsic {intr!r}", instr, frame)

    def _make_callee_frame(self, instr, frame):
        regs = frame.regs
        recv_obj = None
        if instr.kind == ins.CALL_VIRTUAL:
            recv_obj = regs[instr.recv]
            if recv_obj is None:
                raise VMNullError(
                    f"null receiver calling .{instr.method_name}()",
                    instr, frame)
            target = recv_obj.cls.vtable.get(instr.method_name)
            if target is None:
                raise VMError(
                    f"no method {instr.method_name} on "
                    f"{recv_obj.cls.name}", instr, frame)
        else:
            target = instr.resolved
            if instr.recv is not None:
                recv_obj = regs[instr.recv]
                if recv_obj is None:
                    raise VMNullError(
                        f"null receiver calling .{instr.method_name}()",
                        instr, frame)

        callee = Frame(target)
        callee_regs = callee.regs
        if recv_obj is not None:
            callee_regs["this"] = recv_obj
        for (name, _), arg_reg in zip(target.params, instr.args):
            callee_regs[name] = regs[arg_reg]
        return callee, recv_obj

    # -- static fields ---------------------------------------------------------

    def _static_slot(self, class_name: str, field: str):
        owner = self._static_owner(class_name, field)
        key = (owner, field)
        statics = self._statics
        if key not in statics:
            fd = self.program.classes[owner].static_fields[field]
            from .values import default_value
            statics[key] = default_value(fd.type)
        return statics[key]

    def _set_static_slot(self, class_name: str, field: str, value):
        owner = self._static_owner(class_name, field)
        self._statics[(owner, field)] = value

    def _static_owner(self, class_name: str, field: str) -> str:
        """Resolve which class in the hierarchy declares the static."""
        cls = self.program.classes.get(class_name)
        while cls is not None:
            if field in cls.static_fields:
                return cls.name
            cls = cls.superclass
        raise VMError(f"unknown static field {class_name}.{field}")


def _is_ref(value) -> bool:
    """True for heap references (objects/arrays); strings are values."""
    return value is not None and not isinstance(value, (int, str))


def _as_str(value) -> str:
    """Java-style implicit conversion for string concatenation."""
    if isinstance(value, str):
        return value
    return render_value(value)


def interpret(rt, frame, count, limit):
    """The reference loop: one interpreted activation of ``frame``.

    An activation function of the interpreter tier (see the module
    docstring): it runs ``frame``'s method one TAC instruction at a
    time, firing the tracer's ``trace_*`` hooks, and speaks the
    driver's call/return protocol.
    """
    vm = rt.vm
    tracer = vm.tracer
    # The driver's per-activation choice (DESIGN.md §12): under burst
    # sampling an activation spawned during a burst never tracks.
    tracked = tracer is not None and frame.tracked
    # Tracking can only toggle inside a native (Sys.phase), at a
    # checkpoint (a sampling-window boundary), or while a callee runs,
    # so the flag is hoisted out of the dispatch loop and refreshed at
    # those places.
    traced = tracked and tracer.enabled and rt.window_on
    code = frame.method.body
    regs = frame.regs
    pc = 0
    try:
        while True:
            instr = code[pc]
            pc += 1
            op = instr.op
            count += 1
            if count > limit:
                limit = rt.fire(count, instr, frame)
                traced = tracked and tracer.enabled and rt.window_on

            if op == ins.OP_BINOP:
                regs[instr.dest] = vm._binop(instr, regs, frame)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_CONST:
                regs[instr.dest] = instr.value
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_MOVE:
                regs[instr.dest] = regs[instr.src]
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_BRANCH:
                pc = (instr.then_index if regs[instr.cond]
                      else instr.else_index)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_JUMP:
                pc = instr.target_index

            elif op == ins.OP_LOAD_FIELD:
                obj = regs[instr.obj]
                if obj is None:
                    raise VMNullError(
                        f"null dereference reading .{instr.field}",
                        instr, frame)
                regs[instr.dest] = obj.fields[instr.field]
                if traced:
                    tracer.trace_load_field(instr, frame, obj)

            elif op == ins.OP_STORE_FIELD:
                obj = regs[instr.obj]
                if obj is None:
                    raise VMNullError(
                        f"null dereference writing .{instr.field}",
                        instr, frame)
                value = regs[instr.src]
                obj.fields[instr.field] = value
                if traced:
                    tracer.trace_store_field(instr, frame, obj, value)

            elif op == ins.OP_ARRAY_LOAD:
                arr = regs[instr.arr]
                if arr is None:
                    raise VMNullError("null array load", instr, frame)
                idx = regs[instr.idx]
                elems = arr.elems
                if idx < 0 or idx >= len(elems):
                    raise VMBoundsError(
                        f"index {idx} out of bounds for length {len(elems)}",
                        instr, frame)
                regs[instr.dest] = elems[idx]
                if traced:
                    tracer.trace_array_load(instr, frame, arr, idx)

            elif op == ins.OP_ARRAY_STORE:
                arr = regs[instr.arr]
                if arr is None:
                    raise VMNullError("null array store", instr, frame)
                idx = regs[instr.idx]
                elems = arr.elems
                if idx < 0 or idx >= len(elems):
                    raise VMBoundsError(
                        f"index {idx} out of bounds for length {len(elems)}",
                        instr, frame)
                value = regs[instr.src]
                elems[idx] = value
                if traced:
                    tracer.trace_array_store(instr, frame, arr, idx, value)

            elif op == ins.OP_ARRAY_LEN:
                arr = regs[instr.arr]
                if arr is None:
                    raise VMNullError("null array length", instr, frame)
                regs[instr.dest] = len(arr.elems)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_CALL:
                callee, recv_obj = vm._make_callee_frame(instr, frame)
                if traced:
                    tracer.trace_call(instr, frame, callee, recv_obj)
                resume = yield (callee.method, callee, count, limit)
                count = resume[1]
                limit = resume[2]
                traced = tracked and resume[3]
                if instr.dest is not None:
                    regs[instr.dest] = resume[0]
                if traced:
                    tracer.trace_call_complete(instr, frame)

            elif op == ins.OP_RETURN:
                value = regs[instr.src] if instr.src is not None else None
                if traced:
                    tracer.trace_return(instr, frame)
                yield (None, value, count, limit)
                return

            elif op == ins.OP_UNOP:
                src = regs[instr.src]
                regs[instr.dest] = (-src if instr.unop == ins.UN_NEG
                                    else not src)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_INTRINSIC:
                regs[instr.dest] = vm._intrinsic(instr, regs, frame)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_NEW_OBJECT:
                cls = vm.program.classes[instr.class_name]
                obj = vm.heap.new_object(cls, instr.iid)
                regs[instr.dest] = obj
                if traced:
                    tracer.trace_new_object(instr, frame, obj)

            elif op == ins.OP_NEW_ARRAY:
                length = regs[instr.size]
                if length < 0:
                    raise VMBoundsError(
                        f"negative array size {length}", instr, frame)
                arr = vm.heap.new_array(instr.elem_type, instr.iid, length)
                regs[instr.dest] = arr
                if traced:
                    tracer.trace_new_array(instr, frame, arr)

            elif op == ins.OP_LOAD_STATIC:
                regs[instr.dest] = vm._static_slot(
                    instr.class_name, instr.field)
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_STORE_STATIC:
                vm._set_static_slot(instr.class_name, instr.field,
                                    regs[instr.src])
                if traced:
                    tracer.trace_instr(instr, frame)

            elif op == ins.OP_CALL_NATIVE:
                vm.instr_count = count  # natives may inspect the count
                native = instr.resolved_native
                if native is None:
                    # Not resolvable at finalize (unknown name): raise
                    # the usual execution-time error.
                    native = lookup_native(instr.native)
                args = [regs[a] for a in instr.args]
                result = native(vm, args)
                if instr.dest is not None:
                    regs[instr.dest] = result
                # Re-check: the native may have toggled tracking
                # (phase) or moved a sampling boundary (phase reset).
                limit = rt.limit
                traced = tracked and tracer.enabled and rt.window_on
                if traced:
                    tracer.trace_native(instr, frame)

            else:  # pragma: no cover - defensive
                raise VMError(f"unknown opcode {op}", instr, frame)
    except VMError:
        # Like the templates: the faulting activation stores the exact
        # count once, for the driver's containment.
        vm.instr_count = count
        raise
