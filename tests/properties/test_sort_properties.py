"""Property-based pins for the packed descending sort and the in-order Clique path.

:func:`repro.core.batch.descending_orders` sorts strictly positive rows
with a two-digit radix over their IEEE-754 bit patterns: the low digit
of the key and then the high digit, each packed beside an index into
one ``uint64`` word.  It must return exactly the stable descending
argsort — ``np.lexsort((np.arange(n), -row))`` per row — on the inputs
that stress it:

* tie-heavy alphabets (ties are broken by the packed index alone);
* ``np.nextafter`` chains (keys that differ only in their lowest bits);
* the full exponent range, subnormals to ``+inf`` (keys that differ
  only in their highest bits);
* ``n`` at and just past powers of two, where the index width ``b``
  and with it the digit split change;
* multi-row matrices (flat gathers across rows).

:func:`repro.engine.stacked.update_clique_many` skips its per-group
sorts when every group already lists (value desc, index asc).  Its
output must equal the two-pass sorting path's, both for rank-listing
proposals (which take the in-order path) and for shuffled ones — equal
values whose indices arrive out of order included, which must take the
sorting path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.batch import descending_orders, flat_rank_listing
from repro.core.gain_functions import LinearGain
from repro.core.vectorized import _percentile_listing
from repro.engine.stacked import _groups_in_order, update_clique_many

TINY = float(np.finfo(np.float64).smallest_subnormal)


def _reference_orders(matrix: np.ndarray) -> np.ndarray:
    """Per-row stable descending argsort, ties by ascending index."""
    n = matrix.shape[1]
    return np.stack([np.lexsort((np.arange(n), -row)) for row in matrix])


def _assert_orders_exact(matrix: np.ndarray) -> None:
    orders = descending_orders(matrix)
    assert orders.dtype == np.intp
    assert np.array_equal(orders, _reference_orders(matrix))


rows = st.integers(min_value=1, max_value=4)
lengths = st.integers(min_value=1, max_value=300)


@given(
    rows=rows,
    n=lengths,
    alphabet=st.lists(
        st.floats(min_value=TINY, max_value=1e308, allow_subnormal=True),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_tie_heavy_alphabets(rows, n, alphabet, data):
    picks = data.draw(
        st.lists(st.integers(0, len(alphabet) - 1), min_size=rows * n, max_size=rows * n)
    )
    _assert_orders_exact(np.asarray(alphabet)[picks].reshape(rows, n))


@given(
    rows=rows,
    n=lengths,
    start=st.floats(min_value=TINY, max_value=1e300, allow_subnormal=True),
    steps=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_nextafter_chains(rows, n, start, steps, seed):
    chain = [start]
    for _ in range(steps - 1):
        chain.append(float(np.nextafter(chain[-1], np.inf)))
    picks = np.random.default_rng(seed).integers(0, steps, size=(rows, n))
    _assert_orders_exact(np.asarray(chain)[picks])


@given(
    rows=rows,
    n=lengths,
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_full_exponent_range(rows, n, data):
    values = data.draw(
        st.lists(
            st.floats(min_value=TINY, allow_subnormal=True, allow_infinity=True),
            min_size=rows * n,
            max_size=rows * n,
        )
    )
    _assert_orders_exact(np.asarray(values, dtype=np.float64).reshape(rows, n))


@given(
    rows=rows,
    exponent=st.integers(min_value=0, max_value=11),
    past=st.integers(min_value=0, max_value=1),
    levels=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lengths_at_and_just_past_powers_of_two(rows, exponent, past, levels, seed):
    n = 2**exponent + past
    rng = np.random.default_rng(seed)
    matrix = 1.0 + rng.integers(0, levels, size=(rows, n)) * rng.lognormal(0.0, 2.0)
    _assert_orders_exact(matrix)


@given(
    rows=rows,
    n=lengths,
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_non_positive_rows_take_the_float_sort(rows, n, data):
    values = data.draw(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]),
            min_size=rows * n,
            max_size=rows * n,
        )
    )
    _assert_orders_exact(np.asarray(values).reshape(rows, n))


# -- the in-order Clique path ------------------------------------------------


@st.composite
def clique_instances(draw, max_k: int = 4, max_group_size: int = 6, max_trials: int = 3):
    """(skills, k) over a small alphabet, so ties appear in most groups."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    trials = draw(st.integers(min_value=1, max_value=max_trials))
    levels = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    alphabet = rng.lognormal(1.0, 1.0, size=levels)
    skills = alphabet[rng.integers(0, levels, size=(trials, k * size))]
    return skills, k, seed


def _groups(skills: np.ndarray, members: np.ndarray, k: int):
    trials, n = skills.shape
    values = np.take_along_axis(skills, members, axis=1)
    return members.reshape(trials, k, n // k), values.reshape(trials, k, n // k)


def _reversed_within_groups(members: np.ndarray, k: int) -> np.ndarray:
    trials, n = members.shape
    return members.reshape(trials, k, n // k)[:, :, ::-1].reshape(trials, n).copy()


def _sorted_within_groups(skills: np.ndarray, members: np.ndarray, k: int) -> np.ndarray:
    """Each group re-listed (value desc, index asc), per group by lexsort."""
    mem, vals = _groups(skills, members, k)
    out = np.empty_like(mem)
    for r in range(mem.shape[0]):
        for g in range(k):
            out[r, g] = mem[r, g][np.lexsort((mem[r, g], -vals[r, g]))]
    return out.reshape(members.shape)


@given(instance=clique_instances(), mode=st.sampled_from(["star", "clique", "percentile"]))
@settings(max_examples=60, deadline=None)
def test_rank_listing_members_take_the_in_order_path(instance, mode):
    skills, k, _ = instance
    n = skills.shape[1]
    if mode == "percentile":
        listing = _percentile_listing(n, k, 0.75)
    else:
        listing = flat_rank_listing(n, k, mode)
    members = descending_orders(skills)[:, listing]
    assert _groups_in_order(*_groups(skills, members, k))
    # Reversing every group forces the two-pass sorting path.
    reversed_members = _reversed_within_groups(members, k)
    assert not _groups_in_order(*_groups(skills, reversed_members, k))
    gain = LinearGain(0.5)
    assert np.array_equal(
        update_clique_many(skills, members, k, gain),
        update_clique_many(skills, reversed_members, k, gain),
    )


@given(instance=clique_instances())
@settings(max_examples=60, deadline=None)
def test_shuffled_members_equal_their_in_order_listing(instance):
    skills, k, seed = instance
    trials, n = skills.shape
    rng = np.random.default_rng(seed)
    shuffled = np.stack([rng.permutation(n) for _ in range(trials)]).astype(np.intp)
    in_order = _sorted_within_groups(skills, shuffled, k)
    assert _groups_in_order(*_groups(skills, in_order, k))
    gain = LinearGain(0.3)
    assert np.array_equal(
        update_clique_many(skills, shuffled, k, gain),
        update_clique_many(skills, in_order, k, gain),
    )


@given(instance=clique_instances())
@settings(max_examples=60, deadline=None)
def test_equal_values_with_indices_out_of_order_take_the_sorting_path(instance):
    skills, k, _ = instance
    trials, n = skills.shape
    members = descending_orders(skills)[:, flat_rank_listing(n, k, "clique")]
    mem, vals = _groups(skills, members, k)
    ties = np.argwhere(vals[:, :, :-1] == vals[:, :, 1:])
    assume(len(ties) > 0)
    r, g, i = ties[0]
    swapped = mem.copy()
    swapped[r, g, [i, i + 1]] = swapped[r, g, [i + 1, i]]
    swapped = swapped.reshape(trials, n)
    assert not _groups_in_order(*_groups(skills, swapped, k))
    gain = LinearGain(0.5)
    assert np.array_equal(
        update_clique_many(skills, swapped, k, gain),
        update_clique_many(skills, members, k, gain),
    )
