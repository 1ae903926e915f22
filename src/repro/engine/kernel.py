"""The scalar round-step kernel (Algorithm 1's loop body, once).

:class:`RoundKernel` owns the three-beat round step every scalar driver
shares — propose a grouping, update skills through the interaction mode,
account the round's learning gain — together with everything that has to
ride along with it exactly once:

* the observability wiring: ``policy.propose:{name}`` and
  ``core.skill_update`` spans, the per-round journal events
  (``round_start`` / ``propose`` / ``gain`` / ``skill_update`` /
  ``round_end``), and the ``core.rounds`` / ``core.interactions`` /
  ``core.proposals.*`` counters and round timers;
* the runtime-contract hooks of :mod:`repro.analysis.contracts`
  (partition, mode-specific invariants, non-negative gains) behind the
  same single flag read the old inlined loops used;
* the gain accounting ``gain_t = float(np.sum(updated − current))``.

Drivers construct one kernel per run (or per served session, with
``instrument=False`` so service trajectories stay observationally
unchanged) and call :meth:`RoundKernel.step` per round.  The kernel
never records trajectories — arrays, groupings, and histories belong to
the driver — and it never draws randomness of its own, so trajectories
are bit-identical to the previously hand-inlined loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis import contracts as _contracts
from repro.core.gain_functions import GainFunction
from repro.core.grouping import Grouping
from repro.core.interactions import InteractionMode, get_mode
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports engine)
    from repro.core.simulation import GroupingPolicy

__all__ = ["RoundKernel", "StepOutcome", "check_required_mode"]

#: The propose-step override signature (a caller-supplied grouper that
#: replaces the kernel policy's own ``propose``).
ProposeFn = Callable[[np.ndarray, int, np.random.Generator], Grouping]


def check_required_mode(policy: "GroupingPolicy", mode: InteractionMode) -> None:
    """Reject a policy whose internal objective assumes a different mode.

    Objective-aware policies (e.g. LPA) declare the mode their scoring
    assumes via a ``required_mode`` property; running them under another
    mode is a user error every driver must reject the same way.

    Raises:
        ValueError: on a mode mismatch.
    """
    required = getattr(policy, "required_mode", None)
    if required is not None and required != mode.name:
        raise ValueError(
            f"policy {policy.name!r} optimizes for mode {required!r} "
            f"but the simulation runs mode {mode.name!r}"
        )


@dataclass(frozen=True)
class StepOutcome:
    """What one round step produced.

    Attributes:
        grouping: the grouping played this round.
        updated: the post-round skill array (a fresh array; the input is
            never mutated).
        gain: the round's learning gain ``LG(G_t)``.
        seconds: wall-clock duration of the step (``None`` unless the
            kernel is timing).
    """

    grouping: Grouping
    updated: np.ndarray
    gain: float
    seconds: "float | None" = None


class RoundKernel:
    """One configured scalar round step: propose → update → gain.

    Args:
        policy: the grouping policy proposing each round.
        mode: interaction mode (name or instance).
        gain_fn: the learning-gain function.
        record_timings: measure per-step wall-clock durations even when
            observability is off.
        instrument: resolve the process-global observability state
            (journal, metrics, spans).  The serving layer passes
            ``False`` so served rounds emit exactly the events they
            always did; results are bit-identical either way.

    Raises:
        ValueError: if the policy's ``required_mode`` contradicts
            ``mode``.
    """

    def __init__(
        self,
        policy: "GroupingPolicy",
        mode: "str | InteractionMode",
        gain_fn: GainFunction,
        *,
        record_timings: bool = False,
        instrument: bool = True,
    ) -> None:
        self.policy = policy
        self.mode = get_mode(mode)
        self.gain_fn = gain_fn
        check_required_mode(policy, self.mode)
        self.policy_label = policy.name or type(policy).__name__
        obs = _obs.state() if instrument else None
        self.journal = obs.journal if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None
        self.timing = record_timings or obs is not None
        if self.metrics is not None:
            # `core.rounds` / `core.round_seconds` aggregate across
            # engines; the `.scalar` variants attribute work per engine
            # (see repro.engine.stacked for the batched counterpart).
            self._rounds_counter = self.metrics.counter("core.rounds")
            self._engine_rounds_counter = self.metrics.counter("core.rounds.scalar")
            self._interactions_counter = self.metrics.counter("core.interactions")
            self._proposals_counter = self.metrics.counter(f"core.proposals.{self.policy_label}")
            self._round_timer = self.metrics.timer("core.round_seconds")
            self._engine_round_timer = self.metrics.timer("core.round_seconds.scalar")

    def step(
        self,
        current: np.ndarray,
        k: int,
        rng: np.random.Generator,
        *,
        round_index: int,
        propose: "ProposeFn | None" = None,
    ) -> StepOutcome:
        """Play one round over ``current`` and return its outcome.

        Args:
            current: the pre-round skill array (never mutated).
            k: number of groups; divides ``len(current)``.
            rng: the run's random generator, handed to the propose step.
            round_index: 0-based round number, for journal events.
            propose: optional override for the propose step; defaults to the
                kernel policy's own
                :meth:`~repro.core.simulation.GroupingPolicy.propose`.

        Raises:
            ValueError: if the proposal does not match ``(n, k)``.
            ContractViolation: when runtime contracts are enabled and an
                invariant fails.
        """
        step_started = time.perf_counter() if self.timing else 0.0
        journal = self.journal
        if journal is not None:
            journal.emit("round_start", round=round_index)
            propose_started = time.perf_counter()
        with _trace.span(f"policy.propose:{self.policy_label}"):
            if propose is None:
                grouping = self.policy.propose(current, k, rng)
            else:
                grouping = propose(current, k, rng)
        if journal is not None:
            journal.emit(
                "propose",
                round=round_index,
                policy=self.policy_label,
                dur=round(time.perf_counter() - propose_started, 9),
            )
        if grouping.n != len(current) or grouping.k != k:
            raise ValueError(
                f"policy {self.policy_label!r} returned a grouping with n={grouping.n}, "
                f"k={grouping.k}; expected n={len(current)}, k={k}"
            )
        checking = _contracts.contracts_enabled()
        if checking:
            _contracts.check_partition(grouping, n=len(current), k=k)
        with _trace.span("core.skill_update"):
            updated = self.mode.update(current, grouping, self.gain_fn)
        gain_t = float(np.sum(updated - current))
        if checking:
            if self.mode.name == "star":
                _contracts.check_star_teacher_unchanged(current, updated, grouping)
            elif self.mode.name == "clique":
                _contracts.check_clique_order_preserved(current, updated, grouping)
            _contracts.check_gains_nonnegative(gain_t)
        if journal is not None:
            journal.emit("gain", round=round_index, value=gain_t)
            journal.emit("skill_update", round=round_index, total_skill=float(updated.sum()))
        seconds: "float | None" = None
        if self.timing:
            seconds = time.perf_counter() - step_started
            if self.metrics is not None:
                self._round_timer.observe(seconds)
                self._engine_round_timer.observe(seconds)
        if self.metrics is not None:
            self._rounds_counter.inc()
            self._engine_rounds_counter.inc()
            self._interactions_counter.inc(grouping.n)
            self._proposals_counter.inc()
        if journal is not None:
            journal.emit("round_end", round=round_index, gain=gain_t)
        return StepOutcome(grouping=grouping, updated=updated, gain=gain_t, seconds=seconds)

    def __repr__(self) -> str:
        return (
            f"RoundKernel(policy={self.policy_label!r}, mode={self.mode.name!r}, "
            f"gain={self.gain_fn!r})"
        )
