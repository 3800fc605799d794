"""Dynamic roulette wheel: O(log n) updates and O(log n) draws.

ACO mutates fitness between selections (pheromone updates, visited-city
zeroing).  Rebuilding a prefix-sum array or alias table per change costs
O(n); a Fenwick (binary indexed) tree over the fitness values supports

* ``update(i, f)``   — change one fitness in O(log n),
* ``update_many``    — a batch of changes: per-index tree walks below a
  size cutoff, one vectorised linear rebuild above it,
* ``select(rng)``    — one exact roulette draw in O(log n) by descending
  the implicit tree with the spin value,
* ``select_many``    — a batch of draws from the current state in one
  vectorised ``searchsorted`` (same half-open interval semantics and
  the same uniform stream as repeated ``select`` calls),
* ``prefix_sum(i)``  — the paper's ``p_i`` in O(log n).

This is the classic sequential answer to the workload the paper
parallelises; the throughput bench compares it against the race and the
static samplers.
"""

from __future__ import annotations

import numpy as np

from repro.core.fitness import validate_fitness
from repro.errors import DegenerateFitnessError, FitnessError
from repro.rng.adapters import resolve_rng
from repro.typing import FitnessLike

__all__ = ["FenwickSampler"]


class FenwickSampler:
    """A mutable roulette wheel backed by a Fenwick tree.

    The tree array ``_tree`` uses 1-based indexing; node ``j`` stores the
    sum of fitness over the ``j & -j`` positions ending at ``j``.
    ``select`` walks down the highest power of two, the standard
    "find smallest prefix exceeding the spin" descent.
    """

    def __init__(self, fitness: FitnessLike) -> None:
        f = validate_fitness(fitness)  # already a private, writable copy
        self._n = len(f)
        self._values = f
        # Vectorised linear-time construction: the tree is fully
        # determined by the prefix sums, so building it is the same pass
        # as the above-cutoff rebuild in :meth:`update_many`.
        self._tree = np.empty(self._n + 1, dtype=np.float64)
        self._rebuild()
        self._size = 1
        while self._size * 2 <= self._n:
            self._size *= 2

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of items on the wheel."""
        return self._n

    @property
    def total(self) -> float:
        """Current ``sum(f)``."""
        return float(self.prefix_sum(self._n - 1))

    @property
    def values(self) -> np.ndarray:
        """Copy of the current fitness values."""
        return self._values.copy()

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> float:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for n={self._n}")
        return float(self._values[i])

    # ------------------------------------------------------------------
    def update(self, i: int, fitness: float) -> None:
        """Set item ``i``'s fitness to ``fitness`` in O(log n)."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for n={self._n}")
        if not np.isfinite(fitness) or fitness < 0.0:
            raise FitnessError(f"fitness must be finite and >= 0, got {fitness}")
        delta = fitness - self._values[i]
        if delta == 0.0:
            return
        self._values[i] = fitness
        j = i + 1
        while j <= self._n:
            self._tree[j] += delta
            j += j & -j

    def update_many(self, indices, values) -> None:
        """Set ``values[j]`` at ``indices[j]`` for a whole batch at once.

        Duplicate indices resolve last-wins, matching a sequential loop
        of :meth:`update` calls.  Below :attr:`rebuild_cutoff` distinct
        indices the per-index O(log n) tree walks win; at or above it
        the whole tree is rebuilt in one vectorised linear pass
        (``tree[j] = cs[j] - cs[j - (j & -j)]`` from the cumulative sum)
        — the crossover measured by the microbenchmark in
        ``tests/core/test_dynamic.py``.  Validation is atomic: a bad
        index or value raises before any state changes.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        vals = np.asarray(values, dtype=np.float64).ravel()
        if idx.shape != vals.shape:
            raise ValueError(
                f"indices and values must match, got {idx.shape} vs {vals.shape}"
            )
        if idx.size == 0:
            return
        if int(idx.min()) < 0 or int(idx.max()) >= self._n:
            bad = idx[(idx < 0) | (idx >= self._n)][0]
            raise IndexError(f"index {int(bad)} out of range for n={self._n}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise FitnessError("fitness values must be finite and >= 0")
        # Last write wins: first occurrence in the reversed batch.
        uniq, first = np.unique(idx[::-1], return_index=True)
        vals_u = vals[::-1][first]
        if uniq.size < self.rebuild_cutoff:
            for i, f in zip(uniq.tolist(), vals_u.tolist()):
                self.update(i, f)
            return
        self._values[uniq] = vals_u
        self._rebuild()

    @property
    def rebuild_cutoff(self) -> int:
        """Distinct-update count above which a full rebuild is cheaper.

        A tree walk costs ~2-3 us of Python-level iteration per index
        while the vectorised rebuild costs ~10-40 us *total* for wheels
        in the hundreds-to-thousands range, so the measured crossover is
        startlingly low: ~6 updates at n <= 1000, ~14 at n = 4000
        (microbenchmark in ``tests/core/test_dynamic.py``).
        """
        return max(6, self._n // 256)

    def _rebuild(self) -> None:
        """Recompute the whole tree from ``_values`` in one linear pass.

        Node ``j`` (1-based) covers the ``j & -j`` positions ending at
        ``j``, so its mass is the prefix-sum difference
        ``cs[j] - cs[j - (j & -j)]``.
        """
        cs = np.empty(self._n + 1, dtype=np.float64)
        cs[0] = 0.0
        np.cumsum(self._values, out=cs[1:])
        j = np.arange(1, self._n + 1)
        self._tree[0] = 0.0
        self._tree[1:] = cs[j] - cs[j - (j & -j)]

    def scale(self, factor: float) -> None:
        """Multiply every fitness by ``factor`` (evaporation) in O(n).

        Cheaper than n updates: both arrays scale linearly.
        """
        if not np.isfinite(factor) or factor < 0.0:
            raise FitnessError(f"factor must be finite and >= 0, got {factor}")
        self._values *= factor
        self._tree *= factor

    def prefix_sum(self, i: int) -> float:
        """The paper's inclusive ``p_i = f_0 + ... + f_i`` in O(log n)."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for n={self._n}")
        j = i + 1
        acc = 0.0
        while j > 0:
            acc += self._tree[j]
            j -= j & -j
        return float(acc)

    # ------------------------------------------------------------------
    def select(self, rng=None) -> int:
        """One exact roulette draw in O(log n).

        Descends the implicit tree: at each power-of-two stride, move
        right when the spin exceeds the left subtree's mass.  FP rounding
        can land the spin on a zero-fitness position; the repair loop
        walks to the next positive item (measure-zero frequency).
        """
        total = self.total
        if total <= 0.0:
            raise DegenerateFitnessError("all fitness values are zero")
        rng = resolve_rng(rng)
        spin = float(rng.random()) * total
        pos = 0
        stride = self._size
        remaining = spin
        while stride > 0:
            nxt = pos + stride
            # <= implements the half-open interval [p_{i-1}, p_i): a spin
            # landing exactly on a boundary belongs to the next item.
            if nxt <= self._n and self._tree[nxt] <= remaining:
                remaining -= self._tree[nxt]
                pos = nxt
            stride //= 2
        # pos is now the count of items strictly before the winner.
        idx = pos
        while idx < self._n and self._values[idx] == 0.0:
            idx += 1
        if idx >= self._n:
            idx = int(np.flatnonzero(self._values > 0.0)[-1])
        return idx

    def select_many(self, size: int, rng=None) -> np.ndarray:
        """``size`` draws from the *current* wheel state, vectorised.

        Consumes the same uniform stream as ``size`` sequential
        :meth:`select` calls (``Generator.random(size)`` is the same
        draw sequence as ``size`` scalar draws) and locates every spin
        with one ``searchsorted`` over the prefix sums.  ``side="right"``
        implements the identical half-open interval convention as the
        tree descent (a spin on a boundary belongs to the next item) and
        skips zero-width (zero-fitness) positions; on integer-valued
        wheels the two paths agree bit-for-bit.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if size == 0:
            return np.empty(0, dtype=np.int64)
        total = self.total
        if total <= 0.0:
            raise DegenerateFitnessError("all fitness values are zero")
        rng = resolve_rng(rng)
        spins = np.asarray(rng.random(size), dtype=np.float64) * total
        cs = np.cumsum(self._values)
        out = np.searchsorted(cs, spins, side="right").astype(np.int64)
        # FP guard: a spin rounding up to the total lands past the end;
        # the final positive item owns the boundary (same repair as the
        # scalar descent).
        over = out >= self._n
        if over.any():  # pragma: no cover - FP corner
            out[over] = int(np.flatnonzero(self._values > 0.0)[-1])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FenwickSampler(n={self._n}, total={self.total:g})"
