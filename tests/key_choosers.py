"""Sampled key choosers: the request distributions YCSB supports.

The paper draws keys from YCSB's *hotspot* distribution with 50% of the
requests accessing a subset of keys covering 40% of the key space
(Section 3.1).  The simulator never samples keys; it uses the analytic
per-partition shares of
:func:`~repro.workloads.ycsb.workloads.hotspot_partition_weights`.  This
module is the sampled oracle the tests check those shares against
(``test_properties.py``, ``test_distribution_perf.py``), in the way
``solver_oracles.py`` backs the production solver.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.util.rng import make_rng


class KeyChooser(ABC):
    """Chooses record indices in ``[0, record_count)``."""

    def __init__(self, record_count: int, seed: int | random.Random | None = None) -> None:
        if record_count <= 0:
            raise ValueError(f"record count must be positive, got {record_count!r}")
        self.record_count = record_count
        self._rng = make_rng(seed)

    @abstractmethod
    def next_index(self) -> int:
        """Return the next record index."""

    def extend(self, new_record_count: int) -> None:
        """Grow the key space (after inserts)."""
        if new_record_count > self.record_count:
            self.record_count = new_record_count


class UniformChooser(KeyChooser):
    """Every record is equally likely."""

    def next_index(self) -> int:
        return self._rng.randrange(self.record_count)


class HotspotChooser(KeyChooser):
    """A fraction of requests targets a "hot" prefix of the key space.

    With ``hot_operation_fraction=0.5`` and ``hot_set_fraction=0.4``, 50% of
    the requests go to the first 40% of the keys -- the paper's setting.
    """

    def __init__(
        self,
        record_count: int,
        hot_set_fraction: float = 0.4,
        hot_operation_fraction: float = 0.5,
        seed: int | random.Random | None = None,
    ) -> None:
        super().__init__(record_count, seed)
        if not 0.0 < hot_set_fraction <= 1.0:
            raise ValueError("hot set fraction must be in (0, 1]")
        if not 0.0 <= hot_operation_fraction <= 1.0:
            raise ValueError("hot operation fraction must be in [0, 1]")
        self.hot_set_fraction = hot_set_fraction
        self.hot_operation_fraction = hot_operation_fraction

    @property
    def hot_set_size(self) -> int:
        """Number of keys in the hot set (at least 1)."""
        return max(1, int(self.record_count * self.hot_set_fraction))

    def next_index(self) -> int:
        if self._rng.random() < self.hot_operation_fraction:
            return self._rng.randrange(self.hot_set_size)
        cold = self.record_count - self.hot_set_size
        if cold <= 0:
            return self._rng.randrange(self.record_count)
        return self.hot_set_size + self._rng.randrange(cold)


class ZipfianChooser(KeyChooser):
    """Zipfian-distributed access (YCSB's default for workloads A-C, F).

    ``extend`` grows the harmonic sum ``zetan`` incrementally from the old
    record count instead of recomputing it with an O(n) loop, so key-space
    growth under insert-heavy workloads costs O(new keys), not O(n) per
    insert.  ``_zeta_terms_computed`` counts the harmonic terms evaluated
    over the chooser's lifetime (used by the complexity regression test).
    """

    def __init__(
        self,
        record_count: int,
        theta: float = 0.99,
        seed: int | random.Random | None = None,
    ) -> None:
        super().__init__(record_count, seed)
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.theta = theta
        self._zeta_terms_computed = 0
        self._zetan = self._zeta_range(1, record_count)
        self._alpha = 1.0 / (1.0 - theta)
        self._refresh_eta()

    def _zeta_range(self, start: int, stop: int) -> float:
        """Sum of ``1 / i**theta`` for ``i`` in ``[start, stop]``."""
        self._zeta_terms_computed += max(0, stop - start + 1)
        theta = self.theta
        return sum(1.0 / (i ** theta) for i in range(start, stop + 1))

    def _refresh_eta(self) -> None:
        n = self.record_count
        zeta2 = 1.0 if n < 2 else 1.0 + 1.0 / (2 ** self.theta)
        denominator = 1.0 - zeta2 / self._zetan
        if denominator == 0.0:
            # n <= 2: zetan equals zeta2, and every draw resolves in the
            # first two branches of next_index, so eta is never consulted.
            self._eta = 0.0
            return
        self._eta = (1 - (2.0 / n) ** (1 - self.theta)) / denominator

    def extend(self, new_record_count: int) -> None:
        if new_record_count > self.record_count:
            old = self.record_count
            self.record_count = new_record_count
            # Folding each term into the accumulator continues the exact
            # left-to-right sum a full recompute would produce, at O(growth)
            # cost instead of O(n).
            theta = self.theta
            zetan = self._zetan
            for i in range(old + 1, new_record_count + 1):
                zetan += 1.0 / (i ** theta)
            self._zetan = zetan
            self._zeta_terms_computed += new_record_count - old
            self._refresh_eta()

    def next_index(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        index = int(
            self.record_count * (self._eta * u - self._eta + 1.0) ** self._alpha
        )
        return min(index, self.record_count - 1)


class LatestChooser(KeyChooser):
    """Skewed towards the most recently inserted records (workload D style)."""

    def __init__(
        self,
        record_count: int,
        theta: float = 0.99,
        seed: int | random.Random | None = None,
    ) -> None:
        super().__init__(record_count, seed)
        # Share the generator so one seed drives one reproducible stream.
        self._zipf = ZipfianChooser(record_count, theta=theta, seed=self._rng)

    def extend(self, new_record_count: int) -> None:
        super().extend(new_record_count)
        self._zipf.extend(new_record_count)

    def next_index(self) -> int:
        offset = self._zipf.next_index()
        return max(0, self.record_count - 1 - offset)


def partition_request_shares(
    chooser_factory,
    record_count: int,
    partitions: int,
    samples: int = 20000,
    seed: int | random.Random = 7,
) -> list[float]:
    """Share of requests landing on each equal-size partition.

    Used to derive per-partition weights from a key distribution, e.g. the
    34/26/20/20 split the paper reports for 4 partitions under the hotspot
    distribution.

    Uniform and hotspot distributions have closed-form shares, which are
    returned exactly (and ~20000x faster than sampling).  Zipfian/Latest
    (and any other chooser) fall back to drawing ``samples`` keys.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    chooser: KeyChooser = chooser_factory(record_count, seed=seed)
    boundary = math.ceil(record_count / partitions)
    analytic = _analytic_partition_shares(chooser, record_count, partitions, boundary)
    if analytic is not None:
        return analytic
    counts = [0] * partitions
    for _ in range(samples):
        index = chooser.next_index()
        counts[min(index // boundary, partitions - 1)] += 1
    total = sum(counts)
    return [count / total for count in counts]


def _analytic_partition_shares(
    chooser: KeyChooser, record_count: int, partitions: int, boundary: int
) -> list[float] | None:
    """Closed-form shares for uniform/hotspot choosers, else ``None``.

    Partition ``j`` covers indices ``[j * boundary, (j + 1) * boundary)``
    with the last partition absorbing the tail, mirroring the sampling
    loop's ``min(index // boundary, partitions - 1)`` bucketing.  Exact
    types only (subclasses may override ``next_index``).
    """

    def bounds(j: int) -> tuple[int, int]:
        lo = j * boundary
        hi = (j + 1) * boundary if j < partitions - 1 else record_count
        return min(lo, record_count), min(hi, record_count)

    if type(chooser) is UniformChooser:
        return [
            (hi - lo) / record_count for lo, hi in map(bounds, range(partitions))
        ]
    if type(chooser) is HotspotChooser:
        hot = chooser.hot_set_size
        hot_fraction = chooser.hot_operation_fraction
        cold = record_count - hot
        shares: list[float] = []
        for j in range(partitions):
            lo, hi = bounds(j)
            hot_overlap = max(0, min(hi, hot) - lo)
            share = hot_fraction * hot_overlap / hot
            if cold > 0:
                cold_overlap = max(0, hi - max(lo, hot))
                share += (1.0 - hot_fraction) * cold_overlap / cold
            else:
                # No cold keys: non-hot draws are uniform over the whole
                # key space (see HotspotChooser.next_index).
                share += (1.0 - hot_fraction) * (hi - lo) / record_count
            shares.append(share)
        return shares
    return None
