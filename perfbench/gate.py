"""Correctness gate: every output of a run is checked after its window.

* A draw reply must equal a solo replay of the same request: the wheel
  taken from an independent :class:`~repro.service.registry.WheelRegistry`
  fed the same inputs, drawn with ``select_many`` from
  ``request_stream(service seed, digest_key(wheel id), request seed)``.
* A version id minted by UPDATE must equal the id the independent
  registry derives from the same history, and that version's fitness
  must equal the benchmark's own copy with the deltas applied.
* A table histogram must sum to its draw count and fit its exact
  distribution (chi-square, rare categories pooled): ``f / sum(f)`` for
  ``log_bidding``, :func:`repro.stats.exact.independent_win_probabilities`
  for ``independent``.  Table II ``independent`` never selects
  processor 0.

Replies are kept as a 64-bit digest of their bytes, so recording costs
the same small amount per request whatever a reply holds.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.rng.streams import request_stream
from repro.service.registry import WheelRegistry, digest_key
from repro.stats.exact import independent_win_probabilities
from repro.stats.gof import chi_square_gof

#: A histogram whose chi-square p-value falls below this fails the gate.
#: Small enough that the thousands of histograms many runs check never
#: reject a correct sampler by chance.
GOF_ALPHA = 1e-9


def digest(draws) -> int:
    """Digest of a draw reply (the int64 bytes, so length counts too)."""
    return hash(np.ascontiguousarray(draws, dtype=np.int64).tobytes())


def replay(registry: WheelRegistry, service_seed: int, wheel_id: str,
           seed: int, n: int) -> np.ndarray:
    """The solo replay of one draw request."""
    rng = request_stream(service_seed, digest_key(wheel_id), seed)
    return registry.get(wheel_id).select_many(n, rng=rng)


def canonical_delta(indices, values):
    """``(indices, values)`` with duplicates resolved last-wins."""
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    uniq, first = np.unique(idx[::-1], return_index=True)
    return uniq, vals[::-1][first]


def expected_probabilities(fitness: np.ndarray, method: str) -> np.ndarray:
    if method == "log_bidding":
        return fitness / fitness.sum()
    if method == "independent":
        return independent_win_probabilities(fitness)
    raise ValueError(f"no exact distribution for method {method!r}")


def _pool_rare(counts: np.ndarray, probs: np.ndarray, size: int):
    """Merge the rarest categories into one bin expected >= 5 times.

    Pearson's statistic is unreliable for categories expected only a few
    times: Table I ``independent`` expects processor 1 about 0.06 times
    in 2 million draws, and seeing it twice is no evidence of a bias.
    """
    order = np.argsort(probs)
    k = min(int(np.searchsorted(np.cumsum(probs[order]) * size, 5.0)) + 1, probs.size)
    if k < 2:
        return counts, probs
    rare, rest = order[:k], order[k:]
    return (np.append(counts[rest], counts[rare].sum()),
            np.append(probs[rest], probs[rare].sum()))


def check_counts(counts: np.ndarray, size: int, expected: np.ndarray,
                 zero_items=()) -> List[str]:
    """Problems with one table histogram (empty when it passes)."""
    problems = []
    counts = np.asarray(counts)
    if counts.shape != expected.shape:
        return [f"histogram shape {counts.shape} != {expected.shape}"]
    if int(counts.sum()) != size:
        problems.append(f"counts sum to {int(counts.sum())}, not {size}")
    if (counts < 0).any():
        problems.append("negative count")
    for i in zero_items:
        if counts[i] != 0:
            problems.append(f"item {i} selected {int(counts[i])} times, never allowed")
    if not problems:
        p = chi_square_gof(*_pool_rare(counts, expected, size)).p_value
        if p < GOF_ALPHA:
            problems.append(f"chi-square p={p:.3g} against the exact distribution")
    return problems


def check_draw_replies(service_seed: int, fitnesses: List[np.ndarray],
                       wheel_ids: List[str], digests, failed, request) -> int:
    """Wrong draw replies; ``digests[k]`` belongs to request ``k``.

    ``request(k)`` gives ``(wheel index, seed, n)`` of request ``k``;
    requests in ``failed`` got an error reply and were counted already.
    Registration in the independent registry must mint the same ids.
    """
    registry = WheelRegistry(max_wheels=len(fitnesses))
    wrong = 0
    for f, wid in zip(fitnesses, wheel_ids):
        if registry.register(f)[0] != wid:
            wrong += 1
    for k, d in enumerate(digests):
        if k in failed:
            continue
        w, seed, n = request(k)
        if digest(replay(registry, service_seed, wheel_ids[w], seed, n)) != d:
            wrong += 1
    return wrong


def check_lineage(service_seed: int, root_fitness: np.ndarray, root_id: str,
                  steps: List[Dict], deltas, draw_seed, n: int) -> int:
    """Wrong outputs along one client's version chain.

    ``steps[j]`` holds the digest of the draw on version ``j`` (``None``
    when that request failed) and the id UPDATE ``j`` minted (absent
    when the window ended first).  ``deltas`` yields UPDATE ``j``'s
    ``(indices, values)`` and ``draw_seed(j)`` the draw's request seed.
    """
    registry = WheelRegistry(max_wheels=8)
    current, _ = registry.register(root_fitness)
    wrong = int(current != root_id)
    fitness = np.array(root_fitness, dtype=np.float64)
    for j, step in enumerate(steps):
        got = step.get("draw")
        if got is not None:
            if digest(replay(registry, service_seed, current, draw_seed(j), n)) != got:
                wrong += 1
        if "update" not in step:
            break
        idx, vals = next(deltas)
        minted, _ = registry.update(current, idx, vals)
        uniq, vals_u = canonical_delta(idx, vals)
        fitness[uniq] = vals_u
        if minted != step["update"]:
            wrong += 1
        if not np.array_equal(registry.get(minted).fitness.values, fitness):
            wrong += 1
        current = step["update"]
        if current != minted:
            break  # the chain diverged; later steps cannot be replayed
    return wrong
