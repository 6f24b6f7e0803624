"""Deterministic, seedable fault injection for the shard serving plane.

Chaos testing only earns its keep when a failure reproduces: this
module describes worker faults as *data* — a picklable, JSON-able
:class:`FaultPlan` keyed by worker id — and executes them at exact
frame indices inside the worker loop, so a run with the same plan and
the same workload fails in exactly the same place every time.

Supported fault kinds (per worker, ``"*"`` applies to all):

* ``kill_after_frames`` — the worker SIGKILLs itself upon *receiving*
  frame N, i.e. mid-frame: the request is consumed, no response is
  ever produced, and earlier responses still queued for the worker's
  sender thread die with it.  This is the hard crash the supervisor must convert
  into a failover or a restart.
* ``stall_at_frame`` / ``stall_s`` — the worker sleeps before
  answering frame N: wedged-but-alive, observable only through the
  sub-batch deadline.
* ``slow_s`` — added latency on every frame (a slow replica, for
  exercising load-aware routing under asymmetric replicas).
* ``jitter_s`` — *deterministic* per-frame latency jitter: each frame
  sleeps ``jitter_s * frac(worker, index)`` where ``frac`` is a hash of
  the (worker, frame-index) pair — the latency profile of a run is a
  pure function of the plan and the workload, so an SLO regression
  reproduces exactly.
* ``corrupt_at_frame`` — the response frame is truncated on the wire;
  the coordinator's size-validated decode turns it into a typed
  worker fault.
* ``stale_at_frame`` — a duplicate response with a stale sequence
  number precedes the real one; the stream transports must discard it.

By default a rule applies only to worker *generation* 0 — a restarted
worker comes back clean, so "kill once" scenarios converge.  Set
``every_generation=True`` for sustained churn (the worker re-kills
itself after every restart), which is what ``bench_chaos.py`` drives.

Plans reach the procpool workers in their ``meta`` dict, and the
injector wraps the frame loop in ``_worker_main``.
``repro-paths serve --inject-faults <plan>`` accepts the same specs
for manual drills (a JSON object, or the named presets of
:meth:`FaultPlan.parse`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from repro.exceptions import QueryError

_FIELD_NAMES = None  # populated after WorkerFaults is defined


@dataclass
class WorkerFaults:
    """The fault rule for one worker (or the ``"*"`` wildcard).

    Frame indices are 1-based and count *received* frames, per worker
    generation.  All fields are optional; an all-default rule is a
    no-op.
    """

    kill_after_frames: Optional[int] = None
    stall_at_frame: Optional[int] = None
    stall_s: float = 0.0
    slow_s: float = 0.0
    jitter_s: float = 0.0
    corrupt_at_frame: Optional[int] = None
    stale_at_frame: Optional[int] = None
    every_generation: bool = False

    def active(self, generation: int) -> bool:
        return generation == 0 or self.every_generation


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(WorkerFaults))


class FaultInjector:
    """Executes one :class:`WorkerFaults` rule inside a worker loop."""

    def __init__(self, rule: WorkerFaults, worker: int, generation: int) -> None:
        self.rule = rule
        self.worker = worker
        self.generation = generation

    @classmethod
    def from_spec(
        cls, spec: Optional[Mapping], worker: int, generation: int
    ) -> Optional["FaultInjector"]:
        """Build a worker's injector from a plan spec, or ``None``."""
        if not spec:
            return None
        plan = FaultPlan.from_spec(spec)
        rule = plan.rule_for(worker)
        if rule is None or not rule.active(generation):
            return None
        return cls(rule, worker, generation)

    def before_frame(self, index: int) -> None:
        """Run receive-side faults for 1-based frame ``index``."""
        rule = self.rule
        if rule.slow_s > 0:
            time.sleep(rule.slow_s)
        if rule.jitter_s > 0:
            time.sleep(rule.jitter_s * jitter_fraction(self.worker, index))
        if rule.stall_at_frame is not None and index == rule.stall_at_frame:
            if rule.stall_s > 0:
                time.sleep(rule.stall_s)
        if rule.kill_after_frames is not None and index >= rule.kill_after_frames:
            # A real SIGKILL, not an exception: the request frame is
            # consumed and no response will ever be pushed — the
            # harshest mid-frame death the coordinator can observe.
            os.kill(os.getpid(), signal.SIGKILL)

    def outgoing(self, payload: bytes, index: int) -> list[bytes]:
        """The wire payload(s) to send for frame ``index``'s response."""
        rule = self.rule
        out: list[bytes] = []
        if rule.stale_at_frame is not None and index == rule.stale_at_frame:
            # A duplicate of the response wearing sequence number 0 —
            # below every sequence the coordinator will ever await, so
            # the stale-frame rule must discard it.
            out.append(_with_seq(payload, 0))
        if rule.corrupt_at_frame is not None and index == rule.corrupt_at_frame:
            out.append(payload[: max(1, len(payload) // 2)])
        else:
            out.append(payload)
        return out


class FaultPlan:
    """A deterministic map of worker id -> fault rule.

    ``rules`` keys are worker ids (int or str) or ``"*"``; values are
    :class:`WorkerFaults` or plain mappings of their fields.  ``seed``
    is carried for workload-side determinism (the chaos bench feeds it
    to its pair generator) — frame-indexed rules need no randomness of
    their own.
    """

    def __init__(
        self,
        rules: Mapping[Union[int, str], Union[WorkerFaults, Mapping]],
        *,
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.rules: dict[str, WorkerFaults] = {}
        for key, value in rules.items():
            if not isinstance(value, WorkerFaults):
                unknown = set(value) - set(_FIELD_NAMES)
                if unknown:
                    raise QueryError(
                        f"unknown fault fields {sorted(unknown)}; "
                        f"valid fields: {list(_FIELD_NAMES)}"
                    )
                value = WorkerFaults(**value)
            self.rules[str(key)] = value

    # ------------------------------------------------------------------
    # worker-side lookup
    # ------------------------------------------------------------------
    def rule_for(self, worker: int) -> Optional[WorkerFaults]:
        rule = self.rules.get(str(worker))
        if rule is None:
            rule = self.rules.get("*")
        return rule

    def injector(self, worker: int, generation: int) -> Optional[FaultInjector]:
        rule = self.rule_for(worker)
        if rule is None or not rule.active(generation):
            return None
        return FaultInjector(rule, worker, generation)

    # ------------------------------------------------------------------
    # (de)serialisation — the spec travels in the worker meta dict
    # ------------------------------------------------------------------
    def spec(self) -> dict:
        return {
            "seed": self.seed,
            "rules": {
                key: dataclasses.asdict(rule) for key, rule in self.rules.items()
            },
        }

    @classmethod
    def from_spec(cls, spec: Mapping) -> "FaultPlan":
        return cls(spec.get("rules", {}), seed=spec.get("seed", 0))

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """Normalise a constructor argument into a plan (or ``None``)."""
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, Mapping):
            if "rules" in value:
                return cls.from_spec(value)
            return cls(value)
        raise QueryError(
            f"cannot build a FaultPlan from {type(value).__name__!r}"
        )

    # ------------------------------------------------------------------
    # CLI / preset parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI fault spec: a JSON object or a named preset.

        Presets:

        * ``churn[:N]`` — every worker kills itself after N frames
          (default 20), in every generation: sustained worker churn.
        * ``kill:W[:N]`` — worker W dies upon receiving frame N
          (default 1), once.
        * ``dark:W[:N]`` — like ``kill`` but in every generation, so
          the worker stays dark through restarts (breaker drills).
        * ``stall:W[:N[:S]]`` — worker W stalls S seconds (default 30)
          before answering frame N (default 1), once.
        * ``delay:W[:MS]`` — worker W (or ``*`` for all) adds MS
          milliseconds (default 1) to *every* frame, in every
          generation: a persistently slow replica for SLO drills.
        * ``jitter:W[:MS]`` — like ``delay`` but each frame sleeps a
          deterministic hash-derived fraction of MS (see
          :func:`jitter_fraction`): a noisy tail, reproducibly.

        JSON objects map worker ids (or ``"*"``) to rule fields, e.g.
        ``{"0": {"kill_after_frames": 5}, "*": {"slow_s": 0.001}}``.
        """
        text = text.strip()
        if text.startswith("{"):
            try:
                return cls.coerce(json.loads(text))
            except json.JSONDecodeError as exc:
                raise QueryError(f"bad fault-plan JSON: {exc}") from None
        parts = text.split(":")
        name, args = parts[0], parts[1:]
        try:
            if name == "churn":
                frames = int(args[0]) if args else 20
                return cls({"*": WorkerFaults(
                    kill_after_frames=frames, every_generation=True,
                )})
            if name in ("kill", "dark"):
                worker = int(args[0])
                frames = int(args[1]) if len(args) > 1 else 1
                return cls({worker: WorkerFaults(
                    kill_after_frames=frames,
                    every_generation=(name == "dark"),
                )})
            if name == "stall":
                worker = int(args[0])
                frames = int(args[1]) if len(args) > 1 else 1
                seconds = float(args[2]) if len(args) > 2 else 30.0
                return cls({worker: WorkerFaults(
                    stall_at_frame=frames, stall_s=seconds,
                )})
            if name in ("delay", "jitter"):
                worker = args[0] if args[0] == "*" else int(args[0])
                ms = float(args[1]) if len(args) > 1 else 1.0
                seconds = ms / 1e3
                rule = (
                    WorkerFaults(slow_s=seconds, every_generation=True)
                    if name == "delay"
                    else WorkerFaults(jitter_s=seconds, every_generation=True)
                )
                return cls({worker: rule})
        except (IndexError, ValueError):
            raise QueryError(f"bad fault-plan spec {text!r}") from None
        raise QueryError(
            f"unknown fault preset {name!r}; "
            f"use churn/kill/dark/stall/delay/jitter or a JSON object"
        )


def jitter_fraction(worker: int, index: int) -> float:
    """Deterministic uniform-ish fraction in ``[0, 1)`` per (worker, frame).

    A tiny integer hash (SplitMix-style avalanche) over the pair, so
    two runs of the same plan and workload sleep the same amount on the
    same frame — randomness without a seed to lose.
    """
    h = (index * 0x9E3779B1 + worker * 0x85EBCA77 + 1) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 2**32


def _with_seq(payload: bytes, seq: int) -> bytes:
    """A copy of an encoded response frame wearing a different seq."""
    return np.int64(seq).tobytes() + payload[8:]
