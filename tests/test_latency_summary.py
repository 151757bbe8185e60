"""Property tests for the mergeable latency distribution summary.

The percentile pipeline rests on four algebraic guarantees of
:class:`~repro.simulation.latency.LatencySummary`, and each is pinned here
with hypothesis over adversarial value/weight mixes:

* merge is **order-invariant**: associative and commutative bit-exactly
  (integer counts, so no float accumulation order can leak through);
* ``quantile`` is **monotone in rank**;
* ``quantile`` has **rank error <= one bin width**: the true rank-``q``
  atom lies inside the returned bin;
* ``scale(k)`` is **bit-identical to k-fold self-merge** -- the identity
  the event kernel's macro-tick fast-forward relies on for byte-identical
  quiescence skipping.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.simulation.latency import (  # noqa: E402
    BINS_PER_DECADE,
    MAX_BIN_INDEX,
    WEIGHT_SCALE,
    LatencySummary,
    bin_index,
    bin_value_ms,
    quantise_weight,
)

# Latencies spanning well past both clamp edges (bins cover 1e-3..1e6 ms).
latencies = st.floats(min_value=1e-5, max_value=1e8, allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)
atoms = st.lists(st.tuples(latencies, weights), min_size=1, max_size=60)


def summary_of(recorded):
    out = LatencySummary()
    for value, weight in recorded:
        out.record(value, weight)
    return out


class TestBins:
    @given(latencies)
    def test_bin_index_is_clamped_and_midpoint_round_trips(self, value):
        index = bin_index(value)
        assert 0 <= index <= MAX_BIN_INDEX
        # The representative value maps back into its own bin.
        assert bin_index(bin_value_ms(index)) == index

    @given(latencies, latencies)
    def test_bin_index_is_monotone(self, a, b):
        if a <= b:
            assert bin_index(a) <= bin_index(b)

    @given(weights)
    def test_positive_weights_never_vanish(self, weight):
        assert quantise_weight(weight) >= 1

    def test_zero_and_negative_weights_drop(self):
        assert quantise_weight(0.0) == 0
        assert quantise_weight(-1.0) == 0


class TestMergeAlgebra:
    @given(atoms, atoms, atoms)
    @settings(max_examples=60)
    def test_merge_is_associative_and_commutative_bit_exactly(self, a, b, c):
        x, y, z = summary_of(a), summary_of(b), summary_of(c)
        left = x.copy().merge(y.copy().merge(z.copy()))
        right = x.copy().merge(y.copy()).merge(z.copy())
        swapped = z.copy().merge(y.copy()).merge(x.copy())
        # Bit-exact: integer-count dict equality, not approximate.
        assert left.counts == right.counts == swapped.counts
        assert LatencySummary.merged([x, y, z]).counts == left.counts

    @given(atoms)
    def test_merge_with_empty_is_identity(self, a):
        x = summary_of(a)
        assert x.copy().merge(LatencySummary()).counts == x.counts
        assert LatencySummary().merge(x).counts == x.counts

    @given(atoms, st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_scale_equals_k_fold_self_merge(self, a, k):
        x = summary_of(a)
        folded = LatencySummary.merged(x for _ in range(k))
        assert x.scale(k).counts == folded.counts

    def test_scale_rejects_non_integer_factors(self):
        with pytest.raises(ValueError, match="non-negative int"):
            LatencySummary().scale(1.5)
        with pytest.raises(ValueError, match="non-negative int"):
            LatencySummary().scale(-1)


class TestQuantiles:
    @given(atoms, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_quantile_is_monotone_in_rank(self, a, q1, q2):
        x = summary_of(a)
        lo, hi = sorted((q1, q2))
        assert x.quantile(lo) <= x.quantile(hi)

    @given(st.lists(latencies, min_size=1, max_size=60), st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60)
    def test_rank_error_is_at_most_one_bin(self, values, q):
        # Unit weights quantise to equal counts, so the summary's rank walk
        # and a direct walk over the sorted raw values agree on which atom
        # holds rank q; the summary must return that atom's own bin.
        x = LatencySummary()
        for value in values:
            x.record(value)
        target = q * len(values) * WEIGHT_SCALE
        cumulative = 0
        true_atom = max(values)
        for value in sorted(values, key=bin_index):
            cumulative += WEIGHT_SCALE
            if cumulative >= target:
                true_atom = value
                break
        observed = x.quantile(q)
        assert bin_index(observed) == bin_index(true_atom)
        # ... which bounds the log-space error by one bin width.
        if bin_index(true_atom) not in (0, MAX_BIN_INDEX):
            assert abs(math.log10(observed) - math.log10(true_atom)) <= 1.0 / BINS_PER_DECADE

    @given(atoms)
    def test_quantile_extremes_hit_the_occupied_bins(self, a):
        x = summary_of(a)
        assert x.quantile(0.0) == bin_value_ms(min(x.counts))
        assert x.quantile(1.0) == bin_value_ms(max(x.counts))

    def test_empty_summary_quantile_is_zero(self):
        assert LatencySummary().quantile(0.5) == 0.0


class TestSerialisation:
    @given(atoms)
    def test_pairs_are_sorted_and_sparse(self, a):
        pairs = summary_of(a).to_pairs()
        assert pairs == sorted(pairs)
        assert all(count > 0 for _, count in pairs)
