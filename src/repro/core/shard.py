"""Sharded round kernels: million-participant rounds with bounded memory.

Both ``DYGROUPS-MODE-LOCAL`` groupers are pure functions of the
descending skill order, and both batched updates are group-local — so a
round over ``n`` participants decomposes exactly:

* **propose** — partition each trial's population into contiguous
  *skill-range* shards (:func:`shard_cuts` picks the boundary values
  with one O(n) introselect per row), stable-sort each shard
  independently, and merge.  Because shards are value-disjoint and every
  tie shares a shard by construction, the k-way merge degenerates to
  concatenation high-to-low — and the result is the monolithic
  :func:`repro.core.batch.descending_orders` permutation **bit for
  bit**, including the ascending-index tie convention.
* **update** — Star's group-max gather and Clique's Theorem-3
  prefix-sum run per contiguous *group chunk* (:func:`shard_group_slices`)
  into a shared output, performing the identical elementwise float
  operations on the identical operands as the monolithic kernels, so
  bit-identity is structural rather than numerical luck.

Shard boundaries are recomputed from the *current* skills every call —
that is the per-round rebalancing: as skills drift, the value ranges
follow, keeping shards near ``n / shards`` elements (the
``core.shard.imbalance`` gauge reports the worst ratio; an all-ties
population collapses into one shard and the gauge says so).

Memory: the monolithic path materializes ``(R, n)`` sort scratch plus
full-population update temporaries at once.  The sharded path bounds
the *sort working set* to one shard at a time and the *update
temporaries* to one group chunk at a time, and can spill its two large
persistent arrays (the ``(R, n)`` order output and the per-row grouped
index scratch) to an unlinked temp-file ``np.memmap`` when their
estimated footprint exceeds ``REPRO_SHARD_MEM_MB``
(:meth:`ShardPlan.should_spill`) — the out-of-core option that keeps
resident set bounded while the page cache absorbs the rest.

Knobs: ``REPRO_SHARDS`` (shard count; ``0``/unset auto-sizes at
:data:`DEFAULT_SHARD_SIZE` elements per shard) and
``REPRO_SHARD_MEM_MB`` (spill threshold; unset never spills), both
overridable per call through :class:`ShardPlan`.

Observability: ``core.shard.orders`` / ``core.shard.partial_sorts`` /
``core.shard.spills`` counters, ``core.shard.count`` /
``core.shard.imbalance`` gauges, and one ``shard_plan`` journal event
per sharded propose.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro._validation import require_divisible_groups
from repro.core.gain_functions import GainFunction
from repro.core.interactions import InteractionMode
from repro.obs import runtime as _obs

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "SHARDS_ENV",
    "SHARD_MEM_ENV",
    "ShardPlan",
    "apply_update_sharded",
    "bucket_partition",
    "resolve_shard_mem_mb",
    "resolve_shards",
    "shard_cuts",
    "shard_group_slices",
    "sharded_descending_orders",
    "update_clique_sharded",
    "update_star_sharded",
]

#: Environment variable supplying the default shard count (0/unset = auto).
SHARDS_ENV = "REPRO_SHARDS"

#: Environment variable supplying the spill threshold in MiB (unset = never).
SHARD_MEM_ENV = "REPRO_SHARD_MEM_MB"

#: Auto-sizing target: elements per shard when no count is requested.
DEFAULT_SHARD_SIZE = 262_144


def resolve_shards(shards: "int | None" = None) -> int:
    """Resolve the requested shard count (argument → :data:`SHARDS_ENV` → 0).

    ``0`` means "not requested": :meth:`ShardPlan.shard_count` auto-sizes
    it, and ``engine="auto"`` does not prefer the sharded path for it.

    Raises:
        ValueError: for a negative or non-integer count, or a variable
            value that is not an integer.
    """
    if shards is None:
        shards = 0
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 0:
        raise ValueError(f"shards must be a non-negative int, got {shards!r}")
    if shards == 0:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return 0
        try:
            shards = int(raw)
        except ValueError:
            raise ValueError(f"{SHARDS_ENV} must be an integer, got {raw!r}") from None
        if shards < 0:
            raise ValueError(f"{SHARDS_ENV} must be non-negative, got {shards}")
    return shards


def resolve_shard_mem_mb(mem_mb: "float | None" = None) -> "float | None":
    """Resolve the spill threshold (argument → :data:`SHARD_MEM_ENV` → None).

    Raises:
        ValueError: for a non-positive threshold or a variable value that
            is not a number.
    """
    if mem_mb is None:
        raw = os.environ.get(SHARD_MEM_ENV, "").strip()
        if not raw:
            return None
        try:
            mem_mb = float(raw)
        except ValueError:
            raise ValueError(f"{SHARD_MEM_ENV} must be a number, got {raw!r}") from None
    if isinstance(mem_mb, bool) or not isinstance(mem_mb, (int, float)) or mem_mb <= 0:
        raise ValueError(f"mem_mb must be a positive number, got {mem_mb!r}")
    return float(mem_mb)


@dataclass(frozen=True)
class ShardPlan:
    """How a round's population is partitioned into skill-range shards.

    Attributes:
        shards: requested shard count; ``0`` auto-sizes to about
            :data:`DEFAULT_SHARD_SIZE` elements per shard.  The effective
            count is clamped to ``[1, n]`` per population.
        mem_mb: out-of-core threshold in MiB — when the sharded order
            pass's persistent arrays would exceed it, they live in an
            unlinked temp-file memmap instead of the heap.  ``None``
            never spills.
    """

    shards: int = 0
    mem_mb: "float | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) or self.shards < 0:
            raise ValueError(f"shards must be a non-negative int, got {self.shards!r}")
        if self.mem_mb is not None and (
            isinstance(self.mem_mb, bool)
            or not isinstance(self.mem_mb, (int, float))
            or self.mem_mb <= 0
        ):
            raise ValueError(f"mem_mb must be a positive number, got {self.mem_mb!r}")

    @classmethod
    def from_env(cls, shards: "int | None" = None) -> "ShardPlan":
        """A plan from the environment knobs, with ``shards`` overriding."""
        return cls(shards=resolve_shards(shards), mem_mb=resolve_shard_mem_mb())

    def shard_count(self, n: int) -> int:
        """The effective shard count for a population of ``n``."""
        if n <= 0:
            return 1
        if self.shards == 0:
            return max(1, -(-n // DEFAULT_SHARD_SIZE))
        return max(1, min(self.shards, n))

    def should_spill(self, trials: int, n: int) -> bool:
        """Whether the order pass's persistent arrays exceed the threshold.

        The estimate covers the ``(trials, n)`` order output plus the
        per-row grouped-index scratch; transient per-shard sort buffers
        are already bounded by the shard size.
        """
        if self.mem_mb is None:
            return False
        estimate = (trials * n + n) * np.dtype(np.intp).itemsize
        return estimate > self.mem_mb * 1024 * 1024


def shard_cuts(values: np.ndarray, shards: int) -> np.ndarray:
    """Ascending boundary values splitting one row into value-range shards.

    One ``np.partition`` introselect (O(n)) places the boundary elements;
    the returned cut values partition by *value*, never by count, so a
    run of ties always lands whole in one shard — the property that
    makes per-shard sorting reproduce the global stable tie order.
    Heavy ties can therefore yield duplicate cuts (empty shards) or one
    oversized shard; both are correct, just imbalanced.
    """
    n = values.shape[0]
    count = max(1, min(shards, n))
    if count <= 1:
        return np.empty(0, dtype=np.float64)
    positions = sorted({n - (n * s) // count for s in range(1, count)} - {0, n})
    if not positions:
        return np.empty(0, dtype=np.float64)
    part = np.partition(values, positions)
    return np.ascontiguousarray(part[positions], dtype=np.float64)


def bucket_partition(
    values: np.ndarray, cuts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable group-by-shard of one row: ``(offsets, grouped_indices)``.

    ``grouped[offsets[b]:offsets[b + 1]]`` lists the original indices of
    shard ``b`` — shard 0 holds the highest values — each shard in
    **ascending original index** order, so a stable descending sort of a
    shard's gathered values reproduces the global tie-break exactly.
    Elements equal to a cut value join the higher shard (``side="right"``
    counts them with the values above the cut), which is what keeps ties
    unsplit.
    """
    count = cuts.shape[0] + 1
    fences = np.searchsorted(cuts, values, side="right")
    shard_ids = (cuts.shape[0] - fences).astype(np.uint16 if count <= 65_535 else np.intp)
    grouped = np.argsort(shard_ids, kind="stable")
    counts = np.bincount(shard_ids, minlength=count)
    offsets = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets, grouped


def _order_scratch(trials: int, n: int, spill: bool) -> "tuple[np.ndarray, np.ndarray]":
    """The order output and per-row index scratch, heap or memmap backed.

    Spilled arrays live in immediately-unlinked temp files: the mapping
    keeps the pages reachable, the kernel reclaims them under pressure,
    and the space frees itself when the arrays die — no cleanup path.
    """
    if not spill:
        return np.empty((trials, n), dtype=np.intp), np.empty(n, dtype=np.intp)
    orders = np.memmap(
        tempfile.TemporaryFile(prefix="repro-shard-orders-"),
        dtype=np.intp, mode="w+", shape=(trials, n),
    )
    scratch = np.memmap(
        tempfile.TemporaryFile(prefix="repro-shard-scratch-"),
        dtype=np.intp, mode="w+", shape=(n,),
    )
    return orders, scratch


def _observe_orders(
    *, trials: int, n: int, shards: int, largest: int, partial_sorts: int, spilled: bool
) -> None:
    """Account one sharded order pass in the metrics registry and journal."""
    obs = _obs.state()
    if obs is None:
        return
    metrics = obs.metrics
    metrics.counter("core.shard.orders").inc(trials)
    metrics.counter("core.shard.partial_sorts").inc(partial_sorts)
    if spilled:
        metrics.counter("core.shard.spills").inc()
    metrics.gauge("core.shard.count").set(shards)
    ideal = n / shards if shards else 1.0
    metrics.gauge("core.shard.imbalance").set(largest / ideal if ideal else 1.0)
    if obs.journal is not None:
        obs.journal.emit(
            "shard_plan",
            trials=trials,
            n=n,
            shards=shards,
            largest_shard=int(largest),
            partial_sorts=partial_sorts,
            spilled=bool(spilled),
        )


def sharded_descending_orders(
    matrix: np.ndarray, plan: "ShardPlan | None" = None
) -> np.ndarray:
    """Sharded stable descending argsort of each row — bit-identical.

    The sharded variant of :func:`repro.core.batch.descending_orders`:
    per row, pick value-range boundaries (:func:`shard_cuts`), group
    elements by shard in ascending-index order
    (:func:`bucket_partition`), stable-sort each shard's values
    descending, and concatenate high-to-low.  Shards are value-disjoint
    and ties never straddle a boundary, so the concatenation *is* the
    k-way merge and equals the monolithic stable argsort bit for bit.
    Positive matrices sort each shard by its ``int64`` bit views, a
    choice made once per matrix.

    With ``plan.mem_mb`` set and exceeded, the order output and index
    scratch spill to unlinked temp-file memmaps
    (``core.shard.spills`` counts it); the returned array is then a
    disk-backed ``np.memmap`` that behaves like any ndarray.
    """
    plan = plan if plan is not None else ShardPlan()
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    trials, n = matrix.shape
    shards = plan.shard_count(n)
    # Same fast-path rule, same scope (the whole matrix), as the monolith.
    bitview = bool(matrix.size) and bool(np.all(matrix > 0.0))
    spilled = plan.should_spill(trials, n)
    orders, scratch = _order_scratch(trials, n, spilled)
    largest = 0
    partial_sorts = 0
    for r in range(trials):
        row = matrix[r]
        cuts = shard_cuts(row, shards)
        if cuts.size == 0:
            # One shard (requested, tiny n, or an all-ties row): the
            # plain stable sort, just like the monolith's row.
            if bitview:
                orders[r] = np.argsort(-row.view(np.int64), kind="stable")
            else:
                orders[r] = np.argsort(-row, kind="stable")
            largest = max(largest, n)
            partial_sorts += 1
            continue
        offsets, grouped = bucket_partition(row, cuts)
        scratch[:] = grouped
        out_row = orders[r]
        for b in range(offsets.shape[0] - 1):
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            if hi <= lo:
                continue
            idx = scratch[lo:hi]
            vals = np.ascontiguousarray(row[idx])
            if bitview:
                local = np.argsort(-vals.view(np.int64), kind="stable")
            else:
                local = np.argsort(-vals, kind="stable")
            out_row[lo:hi] = idx[local]
            largest = max(largest, hi - lo)
            partial_sorts += 1
    _observe_orders(
        trials=trials, n=n, shards=shards,
        largest=largest, partial_sorts=partial_sorts, spilled=spilled,
    )
    return orders


def shard_group_slices(k: int, shards: int) -> "list[tuple[int, int]]":
    """Partition ``k`` groups into at most ``shards`` contiguous chunks.

    The update kernels' unit of locality: each ``(g0, g1)`` chunk covers
    about ``k / shards`` groups, so chunk temporaries stay near
    ``n / shards`` elements regardless of ``n``.
    """
    count = max(1, min(shards, k))
    edges = [(k * s) // count for s in range(count + 1)]
    return [(edges[s], edges[s + 1]) for s in range(count) if edges[s + 1] > edges[s]]


def _check_members(skills: np.ndarray, members: np.ndarray, k: int) -> int:
    """Validate a members matrix against a skill matrix; returns group size."""
    if skills.ndim != 2:
        raise ValueError(f"skills must be 2-D (trials, n), got shape {skills.shape}")
    if members.shape != skills.shape:
        raise ValueError(
            f"members matrix shape {members.shape} does not match skills shape {skills.shape}"
        )
    return require_divisible_groups(skills.shape[1], k)


def update_star_sharded(
    skills: np.ndarray,
    members: np.ndarray,
    k: int,
    gain: GainFunction,
    plan: "ShardPlan | None" = None,
) -> np.ndarray:
    """Shard-local ``UPDATE-SKILLS-STAR`` — bit-identical, bounded scratch.

    Runs :func:`repro.engine.stacked.update_star_many`'s exact
    gather → group-max → gain → scatter arithmetic one group chunk at a
    time into a shared output.  The update is group-local, so chunking
    changes only how much is materialized at once — never which float
    operation runs on which operands.
    """
    t = _check_members(skills, members, k)
    plan = plan if plan is not None else ShardPlan()
    trials, n = skills.shape
    mem3 = members.reshape(trials, k, t)
    out = np.empty_like(skills)
    for g0, g1 in shard_group_slices(k, plan.shard_count(n)):
        cols = np.ascontiguousarray(mem3[:, g0:g1]).reshape(trials, (g1 - g0) * t)
        group_vals = np.take_along_axis(skills, cols, axis=1).reshape(trials, g1 - g0, t)
        teachers = np.max(group_vals, axis=2, keepdims=True)
        updated = group_vals + np.asarray(gain(teachers - group_vals), dtype=np.float64)
        np.put_along_axis(out, cols, updated.reshape(trials, (g1 - g0) * t), axis=1)
    return out


def update_clique_sharded(
    skills: np.ndarray,
    members: np.ndarray,
    k: int,
    gain: GainFunction,
    plan: "ShardPlan | None" = None,
) -> np.ndarray:
    """Shard-local ``UPDATE-SKILLS-CLIQUE`` (Theorem 3) for linear gains.

    The group-chunked twin of
    :func:`repro.engine.stacked.update_clique_many`: per chunk, the same
    two-pass stable sort (by member index, then stable by descending
    value — the scalar ``lexsort((-value, member))`` convention) and the
    same prefix-sum increment, on the same operands.  The positive-value
    bit-view fast path is decided per chunk; for positive values the bit
    order equals the value order with identical tie-keeping, so the
    permutation — and therefore every downstream float — is unchanged.

    Raises:
        ValueError: for a non-linear gain function (no closed form).
    """
    t = _check_members(skills, members, k)
    if not gain.is_linear:
        raise ValueError("update_clique_sharded requires a linear gain function")
    rate: float = gain.rate  # type: ignore[attr-defined]
    plan = plan if plan is not None else ShardPlan()
    trials, n = skills.shape
    mem3 = members.reshape(trials, k, t)
    out = np.empty_like(skills)
    for g0, g1 in shard_group_slices(k, plan.shard_count(n)):
        groups = g1 - g0
        mem = np.ascontiguousarray(mem3[:, g0:g1])
        vals = np.take_along_axis(skills, mem.reshape(trials, groups * t), axis=1).reshape(
            trials, groups, t
        )
        by_index = np.argsort(mem, axis=2, kind="stable")
        mem = np.take_along_axis(mem, by_index, axis=2)
        vals = np.take_along_axis(vals, by_index, axis=2)
        if vals.size and np.all(vals > 0.0):
            by_value = np.argsort(
                -np.ascontiguousarray(vals).view(np.int64), axis=2, kind="stable"
            )
        else:
            by_value = np.argsort(-vals, axis=2, kind="stable")
        mem = np.take_along_axis(mem, by_value, axis=2)
        vals = np.take_along_axis(vals, by_value, axis=2)
        increment = np.zeros_like(vals)
        if t > 1:
            prefix = np.cumsum(vals, axis=2)
            ranks = np.arange(1, t, dtype=np.float64)
            increment[:, :, 1:] = rate * (prefix[:, :, :-1] - ranks * vals[:, :, 1:]) / ranks
        np.put_along_axis(
            out,
            mem.reshape(trials, groups * t),
            (vals + increment).reshape(trials, groups * t),
            axis=1,
        )
    return out


def apply_update_sharded(
    skills: np.ndarray,
    members: np.ndarray,
    k: int,
    mode: InteractionMode,
    gain: GainFunction,
    plan: "ShardPlan | None" = None,
) -> np.ndarray:
    """Dispatch the shard-local skill update for a mode.

    Raises:
        ValueError: for a mode without a batched update, or clique with a
            non-linear gain.
    """
    if mode.name == "star":
        return update_star_sharded(skills, members, k, gain, plan)
    if mode.name == "clique":
        return update_clique_sharded(skills, members, k, gain, plan)
    raise ValueError(f"mode {mode.name!r} has no sharded skill update")
