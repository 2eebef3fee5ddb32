"""Adaptive burst sampling: deterministic tracking windows.

Against the compiled execution tier, full dependence tracking costs an
order of magnitude over untraced execution (BENCH_PR7): the untraced
closures got ~9x faster while the tracker's per-instruction graph work
stayed constant.  Burst sampling closes that gap by running the program
*untracked* for long bursts and switching the tracker on only for
periodic windows, then scaling the observed Gcost frequencies by the
sampling factor (total instructions / tracked instructions).

Estimation contract
-------------------

Sampled graphs give *unbiased frequency estimates*: per-site and
per-method Gcost, hot lists, and total cost scale accurately by the
sampling factor (the accuracy suite bounds the error on the stress
workload).  Reachability-derived metrics -- IPD/IPP from
:func:`repro.analyses.deadvalues.measure_bloat` -- are **not**
estimable from a sampled graph: an untracked burst severs the shadow
heap, so def-use chains that cross a window boundary are lost and
almost every sampled node looks "ultimately dead".  Bloat
classification therefore always comes from an exact (unsampled) run;
tools that consume sampled profiles must report frequency estimates
only.  ``tests/test_compiled.py::TestSampling::
test_ipd_bias_direction_is_overapproximation`` pins the bias's
direction rather than hiding it.

The schedule is a pure function of the executed-instruction count --
never of wall-clock time -- so a supervised retry or a checkpoint
resume of the same shard replays the *identical* window sequence and
produces the identical sampled graph.  The paper's phase mechanism
(``Sys.phase``) resets the schedule cursor: every phase gets a tracked
warmup window at its head, so short phases are never skipped entirely.

Adaptivity: within one phase the untracked bursts grow geometrically
(``growth``), bounding the tracked fraction of very long phases while
keeping dense coverage of phase heads, where behaviour changes.

Terminology
-----------

warmup
    Instructions tracked at the start of every phase.
window
    Instructions tracked per periodic burst after warmup.
period
    Initial cycle length; the first untracked burst is
    ``period - window`` instructions.
growth
    Multiplier applied to the untracked burst after each cycle
    (1.0 = uniform sampling).  Bursts are capped at ``max_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default schedule used by ``--sample on`` (see ``parse``): a 32k
#: tracked window per 4M-instruction cycle (0.8% duty) with 2x burst
#: growth, decaying towards ``window / max_gap`` (0.2%) on long phases.
#: Windows are deliberately long: per-window graph cost is dominated by
#: re-creating shadow nodes after an untracked burst, so a few long
#: windows are much cheaper -- and no less accurate for frequency
#: estimates -- than many short ones.
DEFAULT_SPEC = "32768:4194304:32768:2.0"


@dataclass(frozen=True)
class SampleSchedule:
    """Immutable description of a deterministic sampling schedule."""

    window: int = 32768
    period: int = 4194304
    warmup: int = 32768
    #: Burst growth in integer percent (100 = 1.0x, uniform).  Kept as
    #: an integer so the schedule arithmetic is exact and replays
    #: identically across processes and resumes.
    growth_pct: int = 200
    max_gap: int = 16 * 1024 * 1024

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("sampling window must be positive")
        if self.period <= self.window:
            raise ValueError("sampling period must exceed the window")
        if self.warmup <= 0:
            raise ValueError("sampling warmup must be positive")
        if self.growth_pct < 100:
            raise ValueError("sampling growth must be >= 1.0")

    # -- serialization (shard meta / job specs) -------------------------

    def as_dict(self) -> dict:
        return {"window": self.window, "period": self.period,
                "warmup": self.warmup, "growth_pct": self.growth_pct,
                "max_gap": self.max_gap}

    @classmethod
    def from_dict(cls, data) -> "SampleSchedule":
        return cls(window=int(data["window"]), period=int(data["period"]),
                   warmup=int(data["warmup"]),
                   growth_pct=int(data.get("growth_pct", 100)),
                   max_gap=int(data.get("max_gap", 16 * 1024 * 1024)))

    def spec(self) -> str:
        return (f"{self.window}:{self.period}:{self.warmup}:"
                f"{self.growth_pct / 100:g}")

    def cursor(self, start: int = 0) -> "SampleCursor":
        return SampleCursor(self, start)


def parse_sample_spec(spec):
    """Parse a ``--sample`` argument.

    ``off``/``none`` -> None; ``on`` -> the default schedule;
    otherwise ``window:period[:warmup[:growth]]``.
    """
    if spec is None:
        return None
    text = str(spec).strip().lower()
    if text in ("off", "none", ""):
        return None
    if text == "on":
        text = DEFAULT_SPEC
    parts = text.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"bad sample spec {spec!r}: expected "
            f"window:period[:warmup[:growth]] or on/off")
    try:
        window = int(parts[0])
        period = int(parts[1])
        warmup = int(parts[2]) if len(parts) > 2 else min(window * 2, period)
        growth = float(parts[3]) if len(parts) > 3 else 1.0
    except ValueError as exc:
        raise ValueError(f"bad sample spec {spec!r}: {exc}") from None
    return SampleSchedule(window=window, period=period, warmup=warmup,
                          growth_pct=int(round(growth * 100)))


class SampleCursor:
    """Mutable per-run window state driven by instruction counts.

    The VM consults the cursor through its budget checkpoint: the next
    toggle boundary is folded into the ``count > limit`` comparison the
    dispatch loop already performs, so sampling adds *zero* work per
    instruction.  ``boundary`` is the last instruction count of the
    current state; instruction ``boundary + 1`` executes in the toggled
    state, exactly like the instruction-budget semantics.
    """

    __slots__ = ("schedule", "on", "boundary", "gap", "tracked",
                 "_seg_start", "toggles")

    def __init__(self, schedule: SampleSchedule, start: int = 0):
        self.schedule = schedule
        self.tracked = 0
        self.toggles = 0
        self.phase_reset(start)

    def phase_reset(self, count: int):
        """Start a fresh per-phase cycle: warmup window at ``count``."""
        sched = self.schedule
        if getattr(self, "on", False):
            self.tracked += count - self._seg_start
        self.on = True
        self._seg_start = count
        self.boundary = count + sched.warmup
        self.gap = max(1, sched.period - sched.window)

    def toggle(self):
        """Cross ``boundary``: flip the window state deterministically."""
        sched = self.schedule
        self.toggles += 1
        if self.on:
            self.tracked += self.boundary - self._seg_start
            self.on = False
            self.boundary += self.gap
            self.gap = min(sched.max_gap, self.gap * sched.growth_pct // 100)
        else:
            self.on = True
            self._seg_start = self.boundary
            self.boundary += sched.window

    def finish(self, count: int):
        """Close the accounting at end of run (or at a contained fault)."""
        if self.on:
            self.tracked += count - self._seg_start
            self._seg_start = count

    def stats(self, total: int) -> dict:
        """Shard-meta record: schedule + exact replayable accounting."""
        tracked = self.tracked
        return {
            "schedule": self.schedule.as_dict(),
            "tracked_instructions": tracked,
            "total_instructions": total,
            "toggles": self.toggles,
            "factor": (total / tracked) if tracked else None,
        }


# -- estimate scaling ------------------------------------------------------

def aggregate_factor(metas) -> float:
    """Sampling factor for a merged profile: total / tracked instructions.

    Shards without sampling meta count as fully tracked.  Returns 1.0
    for fully tracked campaigns (nothing to scale).
    """
    total = 0
    tracked = 0
    for meta in metas:
        instructions = int(meta.get("instructions", 0))
        sampling = meta.get("sampling")
        total += instructions
        if sampling and sampling.get("tracked_instructions") is not None:
            tracked += int(sampling["tracked_instructions"])
        else:
            tracked += instructions
    if tracked <= 0 or total <= 0:
        return 1.0
    return total / tracked


def apply_sampling_scale(graph, factor: float):
    """Scale node frequencies by ``factor`` in place (estimate mode).

    Returns the previous frequency list so callers that need the raw
    sampled counts afterwards can restore them.
    """
    old = graph.freq
    if factor == 1.0:
        return old
    graph.freq = [int(round(f * factor)) for f in old]
    return old
