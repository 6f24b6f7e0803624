"""End-to-end request deadlines and the SLO-driven degrade ladder.

The paper's headline is a latency promise; this module is the layer
that *enforces* one.  Three pieces compose:

* :class:`Deadline` — a per-request budget carried from the network
  edge down through the coalescer, the batch executor and the shard
  coordinator.  Every blocking wait along the way clamps to the
  remaining budget instead of its own static timeout.
* :class:`CompletionPredictor` — an EWMA + reservoir-quantile model of
  how long a request admitted *now* will take to complete (queue drain
  at the observed per-item service rate plus an execute-time tail).
  Per-stage budget accounting (:data:`STAGES`) feeds it from the
  coalescer's dispatch loop.
* :class:`SloController` — the policy object gluing both to the
  configurable **degrade ladder**: when predicted (or observed)
  completion exceeds the residual budget the request walks
  ``exact -> estimate -> shed`` — answered exactly, answered from the
  landmark triangulation bound (``method="estimate"``,
  ``"degraded": true``), or rejected with an honest
  ``retry_after_ms`` hint.  An optional :class:`AIMDLimiter` replaces
  the front end's static soft admission limit with an adaptive window
  (additive increase on met deadlines, multiplicative decrease on
  misses), the static hard limit staying as the backstop.

Everything takes an injectable ``clock`` so deadline propagation is
testable with a fake clock, and every counter lands in the
``"slo"`` block of the net snapshot (and, for the shard coordinator's
budget accounting, in ``transport_stats()["slo"]``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import QueryError
from repro.service.telemetry import LatencyHistogram

#: Pipeline stages a request's budget is spent in, in order.  Stage
#: EWMAs and per-stage deadline-miss counters are keyed by these names.
STAGES = ("queue", "dispatch", "execute", "collect")

#: Every rung the degrade ladder may contain, in severity order.
LADDER_RUNGS = ("exact", "estimate", "shed")

#: The default ladder: exact answer, landmark estimate, shed.
DEFAULT_LADDER = ("exact", "estimate", "shed")


def parse_ladder(text) -> tuple:
    """Parse a ``--degrade-ladder`` spec like ``"exact,estimate,shed"``.

    The ladder must start at ``exact``, contain no duplicates, and use
    only the known rungs; ``shed`` is always the implicit terminal rung
    even when omitted (a request that falls off the ladder is shed).
    """
    if isinstance(text, (tuple, list)):
        rungs = tuple(text)
    else:
        rungs = tuple(part.strip() for part in str(text).split(",") if part.strip())
    if not rungs:
        raise QueryError("degrade ladder must name at least one rung")
    unknown = [rung for rung in rungs if rung not in LADDER_RUNGS]
    if unknown:
        raise QueryError(
            f"unknown degrade-ladder rung(s) {unknown}; valid: {list(LADDER_RUNGS)}"
        )
    if len(set(rungs)) != len(rungs):
        raise QueryError(f"degrade ladder repeats a rung: {list(rungs)}")
    if rungs[0] != "exact":
        raise QueryError("degrade ladder must start with 'exact'")
    return rungs


class Deadline:
    """One request's absolute completion deadline.

    Created at admission from a millisecond budget; every layer below
    asks :meth:`remaining` (or :meth:`clamp`) instead of carrying the
    budget by value, so time spent in *any* stage is automatically
    charged against the stages after it.
    """

    __slots__ = ("budget_s", "expires_at", "clock")

    def __init__(self, budget_s: float, *, clock=time.monotonic) -> None:
        self.budget_s = float(budget_s)
        self.clock = clock
        self.expires_at = clock() + self.budget_s

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def elapsed(self) -> float:
        """Seconds spent since admission."""
        return self.budget_s - self.remaining()

    def clamp(self, timeout: Optional[float]) -> float:
        """Clamp a stage timeout to the remaining budget (floor 1 ms)."""
        residual = max(self.remaining(), 1e-3)
        if timeout is None:
            return residual
        return min(timeout, residual)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.4f})"


class CompletionPredictor:
    """EWMA + quantile model of time-to-completion for a new request.

    Two signals feed it from the dispatch loop: per-batch execute times
    (tail quantile plus a per-item EWMA) and whole-request completion
    times.  :meth:`predict_s` combines them — queue drain at the
    per-item rate plus one execute tail — which is what an admission
    decision needs: "if I enqueue this now, when does it answer?".
    """

    def __init__(
        self, *, quantile: float = 99.0, alpha: float = 0.2, reservoir: int = 2048
    ) -> None:
        self.quantile = float(quantile)
        self.alpha = float(alpha)
        self.ewma_item_s = 0.0
        self.ewma_execute_s = 0.0
        self.execute = LatencyHistogram(reservoir)
        self.completion = LatencyHistogram(reservoir)

    def observe_execute(self, elapsed_s: float, items: int) -> None:
        """Record one dispatched batch's execute time."""
        elapsed_s = max(0.0, float(elapsed_s))
        self.execute.observe(elapsed_s)
        share = elapsed_s / items if items else 0.0
        self.ewma_item_s = self._fold(self.ewma_item_s, share)
        self.ewma_execute_s = self._fold(self.ewma_execute_s, elapsed_s)

    def observe_completion(self, elapsed_s: float) -> None:
        """Record one request's admission-to-response time."""
        self.completion.observe(max(0.0, float(elapsed_s)))

    def _fold(self, ewma: float, sample: float) -> float:
        if ewma == 0.0:
            return sample
        return (1.0 - self.alpha) * ewma + self.alpha * sample

    def execute_tail_s(self) -> float:
        """Pessimistic single-batch execute time (quantile vs EWMA max)."""
        return max(self.ewma_execute_s, self.execute.percentile(self.quantile))

    def predict_s(self, depth: int = 0) -> float:
        """Predicted completion time for a request admitted at ``depth``.

        Cold (no samples yet) this is 0.0 — admit everything until the
        model has data.
        """
        return depth * self.ewma_item_s + self.execute_tail_s()

    def snapshot(self) -> dict:
        return {
            "ewma_item_us": self.ewma_item_s * 1e6,
            "execute_tail_ms": self.execute_tail_s() * 1e3,
            "completion_p99_ms": self.completion.percentile(99.0) * 1e3,
            "samples": self.execute.count,
        }


class AIMDLimiter:
    """Adaptive concurrency window: additive increase, multiplicative decrease.

    Replaces the static soft admission limit: met deadlines grow the
    window by ``increase / window`` (one unit per window of successes,
    TCP-style), a miss or shed multiplies it by ``decrease`` — at most
    once per ``cooldown_s``, so one slow batch's worth of misses counts
    as a single congestion signal rather than collapsing the window to
    the floor.
    """

    def __init__(
        self,
        *,
        initial: float,
        floor: int = 16,
        ceiling: Optional[float] = None,
        increase: float = 1.0,
        decrease: float = 0.5,
        cooldown_s: float = 0.05,
        clock=time.monotonic,
    ) -> None:
        if floor < 1:
            raise QueryError("limiter floor must be at least 1")
        if not 0.0 < decrease < 1.0:
            raise QueryError("limiter decrease must be in (0, 1)")
        if increase <= 0:
            raise QueryError("limiter increase must be positive")
        self.floor = int(floor)
        self.ceiling = float(ceiling) if ceiling is not None else 4.0 * float(initial)
        if self.ceiling < self.floor:
            raise QueryError("limiter ceiling must be >= floor")
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.cooldown_s = float(cooldown_s)
        self.clock = clock
        self._limit = min(max(float(initial), self.floor), self.ceiling)
        self._last_decrease: Optional[float] = None
        self.increases = 0
        self.decreases = 0

    @property
    def limit(self) -> int:
        """The current admission window, in requests."""
        return max(self.floor, int(self._limit))

    def on_ok(self) -> None:
        """One request met its deadline: grow additively."""
        self._limit = min(
            self.ceiling, self._limit + self.increase / max(self._limit, 1.0)
        )
        self.increases += 1

    def on_miss(self) -> None:
        """A deadline miss or shed: shrink multiplicatively (cooled down)."""
        now = self.clock()
        if (
            self._last_decrease is not None
            and now - self._last_decrease < self.cooldown_s
        ):
            return
        self._last_decrease = now
        self._limit = max(float(self.floor), self._limit * self.decrease)
        self.decreases += 1

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "increases": self.increases,
            "decreases": self.decreases,
        }


@dataclass
class SloConfig:
    """Knobs of the deadline/SLO layer (durations in milliseconds).

    Attributes:
        default_deadline_ms: budget applied to requests that carry no
            ``deadline_ms`` of their own; ``None`` means requests
            without an explicit deadline run without one (today's
            semantics, byte for byte).
        slo_p99_ms: target p99 completion time.  With the adaptive
            limiter on, completions above this target count as
            congestion signals even when the request's own deadline was
            met.
        ladder: the degrade ladder (see :func:`parse_ladder`).
        adaptive_limit: replace the static soft limit with an
            :class:`AIMDLimiter` (the hard limit stays the backstop).
        limit_floor: the adaptive window's floor.
        limit_increase / limit_decrease / limit_cooldown_s: AIMD knobs.
        quantile: the predictor's execute-time tail quantile.
        probe_every: after this many *consecutive* predicted misses,
            admit one request anyway.  A pessimistic prediction is
            otherwise self-confirming: everything degrades at
            admission, nothing dispatches, and the predictor never
            sees the fresh execute sample that would let it recover.
            ``0`` disables probing.
    """

    default_deadline_ms: Optional[float] = None
    slo_p99_ms: Optional[float] = None
    ladder: tuple = DEFAULT_LADDER
    adaptive_limit: bool = False
    limit_floor: int = 16
    limit_increase: float = 1.0
    limit_decrease: float = 0.5
    limit_cooldown_s: float = 0.05
    quantile: float = 99.0
    probe_every: int = 32

    def __post_init__(self) -> None:
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise QueryError("default_deadline_ms must be positive (or None)")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise QueryError("slo_p99_ms must be positive (or None)")
        if self.probe_every < 0:
            raise QueryError("probe_every must be >= 0 (0 disables probing)")
        self.ladder = parse_ladder(self.ladder)


class SloController:
    """Per-server deadline accounting, prediction and ladder policy.

    Owned by the network front end; the coalescer holds a reference for
    stage accounting and the adaptive soft limit.  Single-threaded
    by design (all mutation happens on the event loop; the timed
    dispatch wrapper only *reads* the clock from the executor thread).
    """

    def __init__(
        self,
        config: Optional[SloConfig] = None,
        *,
        soft_limit: Optional[int] = None,
        hard_limit: Optional[int] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or SloConfig()
        self.clock = clock
        self.predictor = CompletionPredictor(quantile=self.config.quantile)
        self.limiter: Optional[AIMDLimiter] = None
        if self.config.adaptive_limit:
            initial = float(soft_limit) if soft_limit else 4096.0
            self.limiter = AIMDLimiter(
                initial=initial,
                floor=min(self.config.limit_floor, int(initial)),
                ceiling=float(hard_limit) if hard_limit else 4.0 * initial,
                increase=self.config.limit_increase,
                decrease=self.config.limit_decrease,
                cooldown_s=self.config.limit_cooldown_s,
                clock=clock,
            )
        self.stage_ewma_s = dict.fromkeys(STAGES, 0.0)
        self.stage_misses = dict.fromkeys(STAGES, 0)
        self.rungs = dict.fromkeys(LADDER_RUNGS, 0)
        self.deadline_requests = 0
        self.deadline_hits = 0
        self.deadline_misses = 0
        self.probes = 0
        self._miss_streak = 0

    # ------------------------------------------------------------------
    # deadlines and the ladder
    # ------------------------------------------------------------------
    def deadline_for(self, request_ms: Optional[float] = None) -> Optional[Deadline]:
        """The effective deadline for one request (``None`` = unbounded)."""
        ms = request_ms if request_ms is not None else self.config.default_deadline_ms
        if ms is None:
            return None
        return Deadline(ms / 1e3, clock=self.clock)

    def admit(self, deadline: Optional[Deadline], depth: int) -> str:
        """Admission-time ladder decision for a deadline-carrying request.

        Returns the rung the request should take *now*: ``"exact"`` to
        enqueue, or the first degrade rung when the predictor says the
        queue ahead of it already blows the budget.  Every
        ``probe_every``-th consecutive miss is admitted anyway — the
        sacrificial probe whose execute sample lets a pessimistic
        predictor climb back down (see :class:`SloConfig`).
        """
        if deadline is None:
            return "exact"
        self.deadline_requests += 1
        if self.predictor.predict_s(depth) <= deadline.remaining():
            self._miss_streak = 0
            return "exact"
        self._miss_streak += 1
        if self.config.probe_every and self._miss_streak >= self.config.probe_every:
            self._miss_streak = 0
            self.probes += 1
            return "exact"
        self.note_stage_miss("queue")
        if self.limiter is not None:
            self.limiter.on_miss()
        return self.rung_after("exact")

    def rung_after(self, rung: str) -> str:
        """The next rung down the configured ladder (``"shed"`` terminal)."""
        ladder = self.config.ladder
        try:
            index = ladder.index(rung)
        except ValueError:
            return "shed"
        if index + 1 < len(ladder):
            return ladder[index + 1]
        return "shed"

    def note_rung(self, rung: str) -> None:
        """Count the rung a deadline-carrying request finally took."""
        self.rungs[rung] = self.rungs.get(rung, 0) + 1

    # ------------------------------------------------------------------
    # stage accounting
    # ------------------------------------------------------------------
    def observe_stage(self, stage: str, seconds: float) -> None:
        ewma = self.stage_ewma_s[stage]
        seconds = max(0.0, float(seconds))
        self.stage_ewma_s[stage] = (
            seconds if ewma == 0.0 else 0.8 * ewma + 0.2 * seconds
        )

    def note_stage_miss(self, stage: str) -> None:
        self.stage_misses[stage] += 1

    def observe_execute(self, elapsed_s: float, items: int) -> None:
        self.predictor.observe_execute(elapsed_s, items)

    def note_completion(self, deadline: Deadline) -> bool:
        """Record a finished deadline-carrying request; True when met."""
        elapsed = deadline.elapsed()
        self.predictor.observe_completion(elapsed)
        met = not deadline.expired
        if met:
            self.deadline_hits += 1
            if self.limiter is not None:
                target = self.config.slo_p99_ms
                if target is not None and elapsed * 1e3 > target:
                    self.limiter.on_miss()
                else:
                    self.limiter.on_ok()
        else:
            self.deadline_misses += 1
            if self.limiter is not None:
                self.limiter.on_miss()
        return met

    # ------------------------------------------------------------------
    # the adaptive soft limit
    # ------------------------------------------------------------------
    def effective_soft_limit(self) -> Optional[int]:
        """The adaptive admission window, or ``None`` for the static one."""
        if self.limiter is None:
            return None
        return self.limiter.limit

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``"slo"`` block of the net snapshot."""
        snap = {
            "deadline": {
                "default_ms": self.config.default_deadline_ms,
                "requests": self.deadline_requests,
                "hits": self.deadline_hits,
                "misses": self.deadline_misses,
                "misses_by_stage": dict(self.stage_misses),
            },
            "ladder": {
                "rungs": list(self.config.ladder),
                "taken": dict(self.rungs),
            },
            "stages_ms": {
                stage: self.stage_ewma_s[stage] * 1e3 for stage in STAGES
            },
            "predictor": {**self.predictor.snapshot(), "probes": self.probes},
        }
        if self.limiter is not None:
            snap["limiter"] = self.limiter.snapshot()
        return snap
