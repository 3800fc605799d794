"""Batched CRCW max races — the paper's §III core object at paper scale.

The PRAM simulator (:func:`repro.pram.algorithms.max_random_write_race`)
executes the race one processor-step at a time, which caps it at a few
hundred processors.  This module simulates **R independent races at
once** as NumPy arrays, in two complementary formulations:

* :func:`simulate_races` — the *value-space* kernel.  Each race keeps a
  shared cell ``s``; per round it computes the active mask
  (``bids > s``), picks one surviving writer per race under the machine's
  arbitration policy (RANDOM / ARBITRARY / PRIORITY / COMMON-detect),
  commits the R cells, and repeats until no race has an active writer.
  With ``arbitration="pram"`` it consumes, per race, the *identical*
  SplitMix64 arbitration stream a fresh :class:`repro.pram.PRAM` machine
  would (same :func:`repro.rng.machine_substreams` derivation, same
  conditional ``randint_below`` draws), so the fast path is provably the
  same stochastic process — validated step-for-step in the tests against
  ``max_random_write_race(record_rounds=True)``.

* :func:`sample_round_counts` — the *rank-space* kernel for RANDOM
  arbitration.  When the bids are distinct only ranks matter: the
  surviving write each round is uniform among the ``m`` active bidders,
  leaving ``U{0, .., m-1}`` of them active.  Simulating the active-count
  chain directly needs O(trials) memory regardless of ``k``, which is
  what lets the Theorem-1 experiment run at the paper's scale
  (``k = 2**20``, 10**5 trials) in well under a second.

:func:`parallel_round_counts` fans trial blocks out across worker
processes on SplitMix64 substreams (the same derivation as
:mod:`repro.engine.parallel`), byte-identical for fixed
``(seed, workers)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.engine.parallel import fan_out, shard_sizes, suggest_workers
from repro.errors import CommonWriteViolation, SelectionError
from repro.pram.policies import WritePolicy
from repro.rng.streams import machine_substreams, stream_seeds

__all__ = [
    "RaceBatch",
    "simulate_races",
    "sample_round_counts",
    "parallel_round_counts",
    "suggest_race_workers",
    "MIN_TRIALS_PER_WORKER",
]

#: Below this many races per worker, process startup outweighs the work.
MIN_TRIALS_PER_WORKER = 100_000

#: Safety valve: a race over k distinct bids ends within k rounds.
_MAX_ROUNDS_SLACK = 4


def _as_policy(policy: Union[str, WritePolicy]) -> WritePolicy:
    if isinstance(policy, WritePolicy):
        return policy
    try:
        return WritePolicy(policy.lower())
    except ValueError:
        raise ValueError(
            f"unknown write policy {policy!r}; available: "
            f"{sorted(p.value for p in WritePolicy)}"
        ) from None


@dataclass
class RaceBatch:
    """Outcome of a batch of R independent CRCW max races."""

    #: Winning index per race (announcement step, ties arbitrated).
    winners: np.ndarray
    #: Final shared-cell value per race (the maximum finite bid).
    maxima: np.ndarray
    #: While-loop iterations per race — the quantity of Theorem 1.
    rounds: np.ndarray
    #: Participants with a finite bid per race (the paper's ``k``).
    k: np.ndarray
    #: Arbitration policy the batch ran under.
    policy: WritePolicy
    #: With ``record_rounds=True``: per race, the surviving writer of
    #: every round, in round order (the step-for-step PRAM hook).
    round_winners: Optional[List[List[int]]] = None


def _validate_bids(bids) -> np.ndarray:
    b = np.asarray(bids, dtype=np.float64)
    if b.ndim == 1:
        b = b[np.newaxis, :]
    if b.ndim != 2 or b.shape[1] == 0:
        raise SelectionError(f"bids must be (R, k) with k >= 1, got shape {b.shape}")
    if np.isnan(b).any():
        raise SelectionError("NaN bids are not comparable")
    dead = (b == -math.inf).all(axis=1)
    if dead.any():
        raise SelectionError(
            f"race {int(np.flatnonzero(dead)[0])}: all bids are -inf; "
            "no processor can win the race"
        )
    return b


def _pick_random_active(active: np.ndarray, counts: np.ndarray, rng) -> np.ndarray:
    """One uniformly random True column per row of a boolean matrix."""
    ranks = rng.integers(0, counts)  # target rank in [0, m) per row
    csum = np.cumsum(active, axis=1)
    return (csum == (ranks + 1)[:, np.newaxis]).argmax(axis=1)


def _common_or_raise(bids: np.ndarray, mask: np.ndarray, what: str) -> None:
    """COMMON discipline: every race's masked writes must agree."""
    masked = np.where(mask, bids, np.nan)
    lo = np.nanmin(masked, axis=1)
    hi = np.nanmax(masked, axis=1)
    bad = hi > lo
    if bad.any():
        r = int(np.flatnonzero(bad)[0])
        raise CommonWriteViolation(
            f"CRCW-COMMON conflict in race {r}: processors wrote differing "
            f"{what} values ({lo[r]!r} vs {hi[r]!r})"
        )


def _vector_races(
    b: np.ndarray, policy: WritePolicy, rng, record: bool
) -> RaceBatch:
    """All R races advanced together, one vectorized commit per round."""
    n_races, width = b.shape
    s = np.full(n_races, -math.inf)
    rounds = np.zeros(n_races, dtype=np.int64)
    logs: Optional[List[List[int]]] = [[] for _ in range(n_races)] if record else None
    max_rounds = width + _MAX_ROUNDS_SLACK
    for _ in range(max_rounds):
        active = b > s[:, np.newaxis]
        counts = active.sum(axis=1)
        running = counts > 0
        if not running.any():
            break
        rounds[running] += 1
        act = active[running]
        if policy is WritePolicy.RANDOM:
            cols = _pick_random_active(act, counts[running], rng)
        elif policy is WritePolicy.PRIORITY:
            cols = act.argmax(axis=1)
        elif policy is WritePolicy.ARBITRARY:
            cols = width - 1 - act[:, ::-1].argmax(axis=1)
        else:  # COMMON: concurrent writes must agree; detect and raise.
            _common_or_raise(b[running], act, "bid")
            cols = act.argmax(axis=1)
        s[running] = b[running, cols]
        if logs is not None:
            for race, col in zip(np.flatnonzero(running), cols):
                logs[race].append(int(col))
    else:  # pragma: no cover - unreachable: s strictly increases per round
        raise SelectionError("race failed to terminate within its round budget")
    # Announcement: every processor holding the maximum writes its id;
    # the same arbitration discipline picks the surviving announcement.
    ties = b == s[:, np.newaxis]
    tie_counts = ties.sum(axis=1)
    if policy is WritePolicy.RANDOM:
        winners = _pick_random_active(ties, tie_counts, rng)
    elif policy is WritePolicy.PRIORITY:
        winners = ties.argmax(axis=1)
    elif policy is WritePolicy.ARBITRARY:
        winners = width - 1 - ties[:, ::-1].argmax(axis=1)
    else:
        multi = tie_counts > 1
        if multi.any():
            r = int(np.flatnonzero(multi)[0])
            raise CommonWriteViolation(
                f"CRCW-COMMON conflict in race {r}: {int(tie_counts[r])} tied "
                "processors announced differing ids"
            )
        winners = ties.argmax(axis=1)
    return RaceBatch(
        winners=winners.astype(np.int64),
        maxima=s,
        rounds=rounds,
        k=(b != -math.inf).sum(axis=1).astype(np.int64),
        policy=policy,
        round_winners=logs,
    )


def _pram_faithful_race(b: np.ndarray, policy: WritePolicy, seed: int):
    """One race consuming exactly a fresh PRAM machine's arbitration stream.

    The machine derives ``(proc_seed, arbiter)`` via
    :func:`repro.rng.machine_substreams` and consumes one
    ``arbiter.randint_below(m)`` per commit with ``m >= 2`` writers —
    single-writer commits resolve without touching the stream
    (:func:`repro.pram.policies.resolve_write`).  Reproducing that
    consumption pattern makes winner, round count, *and* the per-round
    surviving-writer sequence bit-identical to the simulator's.
    """
    _, arbiter = machine_substreams(seed)
    s = -math.inf
    rounds = 0
    log: List[int] = []
    while True:
        active = np.flatnonzero(b > s)
        if active.size == 0:
            break
        rounds += 1
        if policy is WritePolicy.RANDOM:
            col = int(active[0] if active.size == 1 else active[arbiter.randint_below(active.size)])
        elif policy is WritePolicy.PRIORITY:
            col = int(active[0])
        elif policy is WritePolicy.ARBITRARY:
            col = int(active[-1])
        else:
            vals = b[active]
            if vals.max() > vals.min():
                raise CommonWriteViolation(
                    "CRCW-COMMON conflict: processors wrote differing bid values"
                )
            col = int(active[0])
        s = float(b[col])
        log.append(col)
    ties = np.flatnonzero(b == s)
    if policy is WritePolicy.RANDOM:
        winner = int(ties[0] if ties.size == 1 else ties[arbiter.randint_below(ties.size)])
    elif policy is WritePolicy.PRIORITY:
        winner = int(ties[0])
    elif policy is WritePolicy.ARBITRARY:
        winner = int(ties[-1])
    else:
        if ties.size > 1:
            raise CommonWriteViolation(
                f"CRCW-COMMON conflict: {ties.size} tied processors announced "
                "differing ids"
            )
        winner = int(ties[0])
    return winner, s, rounds, log


def simulate_races(
    bids,
    *,
    policy: Union[str, WritePolicy] = WritePolicy.RANDOM,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    arbitration: str = "vector",
    rng=None,
    record_rounds: bool = False,
) -> RaceBatch:
    """Run R independent CRCW max races over a ``(R, k)`` bid matrix.

    Parameters
    ----------
    bids:
        ``(R, k)`` array (or a single length-``k`` vector) of bids;
        ``-inf`` entries sit their race out.  Every race needs at least
        one finite bid.
    policy:
        CRCW write policy (enum or name).  RANDOM is the paper's model;
        PRIORITY / ARBITRARY are the ablation policies, COMMON detects
        (and raises on) conflicting concurrent writes.
    seed:
        Seeds the vectorized RANDOM arbitration stream (ignored when
        ``rng`` is given).
    seeds:
        ``arbitration="pram"`` only: per-race machine seeds, so race
        ``r`` reproduces ``max_random_write_race(bids[r], seed=seeds[r])``
        bit-for-bit.
    arbitration:
        ``"vector"`` (default) draws all R arbitrations per round from one
        NumPy stream — the fast, statistically identical path.  ``"pram"``
        replays each race against its own machine-derived SplitMix64
        arbiter — the bit-faithful cross-validation path.
    rng:
        Optional ``numpy.random.Generator`` for the vector path.
    record_rounds:
        Attach per-race surviving-writer logs (see :class:`RaceBatch`).
    """
    b = _validate_bids(bids)
    pol = _as_policy(policy)
    if arbitration == "vector":
        if seeds is not None:
            raise ValueError("per-race seeds require arbitration='pram'")
        if rng is None:
            rng = np.random.default_rng(stream_seeds(seed, 1)[0])
        return _vector_races(b, pol, rng, record_rounds)
    if arbitration != "pram":
        raise ValueError(f"arbitration must be 'vector' or 'pram', got {arbitration!r}")
    if seeds is None:
        seeds = [seed] * b.shape[0]
    if len(seeds) != b.shape[0]:
        raise ValueError(f"need one seed per race: {len(seeds)} seeds for {b.shape[0]} races")
    winners = np.empty(b.shape[0], dtype=np.int64)
    maxima = np.empty(b.shape[0], dtype=np.float64)
    rounds = np.empty(b.shape[0], dtype=np.int64)
    logs: List[List[int]] = []
    for r in range(b.shape[0]):
        winners[r], maxima[r], rounds[r], log = _pram_faithful_race(
            b[r], pol, int(seeds[r])
        )
        logs.append(log)
    return RaceBatch(
        winners=winners,
        maxima=maxima,
        rounds=rounds,
        k=(b != -math.inf).sum(axis=1).astype(np.int64),
        policy=pol,
        round_winners=logs if record_rounds else None,
    )


# ----------------------------------------------------------------------
# rank-space kernel: paper-scale round counts under RANDOM arbitration
# ----------------------------------------------------------------------
def sample_round_counts(
    k: int,
    trials: int,
    *,
    seed: int = 0,
    rng=None,
) -> np.ndarray:
    """Round counts of ``trials`` RANDOM-arbitrated races of ``k`` bidders.

    Simulates the exact rank chain ``m -> U{0, .., m-1}`` (the law of the
    value-space race for distinct bids — cross-validated in the tests),
    vectorized over trials: memory is O(trials) independent of ``k`` and
    the expected round count is ``H_k``, so ``k = 2**20`` with 10**5
    trials takes tens of milliseconds.  Returns an ``(trials,)`` int64
    array of per-race while-loop iteration counts.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if rng is None:
        rng = np.random.default_rng(stream_seeds(seed, 1)[0])
    m = np.full(trials, k, dtype=np.int64)
    rounds = np.zeros(trials, dtype=np.int64)
    alive = m > 0
    while alive.any():
        rounds[alive] += 1
        m[alive] = rng.integers(0, m[alive])
        alive = m > 0
    return rounds


def suggest_race_workers(
    trials: int,
    *,
    available: Optional[int] = None,
    min_trials_per_worker: int = MIN_TRIALS_PER_WORKER,
) -> int:
    """Auto-tune the worker count for a trial budget (always >= 1)."""
    return suggest_workers(
        trials, available=available, min_draws_per_worker=min_trials_per_worker
    )


def _round_counts_task(payload) -> np.ndarray:
    """Top-level worker body (must be picklable for the process pool)."""
    k, shard, child_seed = payload
    return sample_round_counts(k, shard, rng=np.random.default_rng(child_seed))


def parallel_round_counts(
    k: int,
    trials: int,
    *,
    seed: int = 0,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Fan ``trials`` races out over worker processes; concat in worker order.

    Worker ``w`` of ``W`` always consumes SplitMix64 child seed ``w`` of
    ``stream_seeds(seed, W)`` and the shard sizes of
    :func:`repro.engine.parallel.shard_sizes` — the same determinism
    contract as the draw fan-out, so the result is byte-identical across
    runs for fixed ``(seed, workers)``.  ``workers=None`` consults
    :func:`suggest_race_workers`.
    """
    if workers is None:
        workers = suggest_race_workers(trials)
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    payloads = [
        (k, shard, child)
        for shard, child in zip(shard_sizes(trials, workers), stream_seeds(seed, workers))
    ]
    return np.concatenate(fan_out(_round_counts_task, payloads))
