"""Self-test of the correctness gate: corrupted outputs must be caught.

    python3 perfbench/selftest.py

Runs short versions of the workloads with a transport that corrupts one
reply (a flipped draw, a wrong minted version id) and checks the gate
counts exactly that failure; then alters one count of a table histogram
and checks the gate rejects it.  Exits 0 when every corruption is caught
and the clean runs pass, 1 otherwise.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Corrupting:
    """Wraps a transport and corrupts reply number ``target`` of ``op``."""

    def __init__(self, inner, op: str, target: int, corrupt) -> None:
        self.inner, self.op, self.target, self.corrupt = inner, op, target, corrupt
        self.seen = 0

    async def __call__(self, request):
        reply = await self.inner(request)
        if request["op"] == self.op and request.get("id") is not None:
            if self.seen == self.target:
                reply = self.corrupt(dict(reply))
            self.seen += 1
        return reply


def _flip_draw(reply):
    draws = reply["draws"].copy()
    draws[0] = draws[0] + 1 if draws[0] == 0 else draws[0] - 1
    reply["draws"] = draws
    return reply


def _wrong_version(reply):
    wid = reply["wheel"]
    reply["wheel"] = wid[:-1] + ("0" if wid[-1] != "0" else "1")
    return reply


def _serve(workload_cls, seed: int, steps: int, corrupt=None) -> int:
    """Wrong outputs the gate finds after ``steps`` steps of each client."""
    import serving

    wl = workload_cls(seed)
    service = serving.make_service(False, wl.service_seed)

    async def go():
        transport = serving.FrameTransport(service)
        try:
            await wl.setup(transport)
            if corrupt is not None:
                transport = Corrupting(transport, *corrupt)
            wl.start()
            rec = serving.Recorder(serving.SLICE_S)
            live = set(range(wl.clients))
            for _ in range(steps):
                for c in sorted(live):
                    if not await wl.step(c, transport, rec):
                        live.discard(c)
        finally:
            await service.close()

    asyncio.run(go())
    return wl.check()


def main() -> int:
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(tmp, "tune")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _checks()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _checks() -> int:
    import gate
    import serving
    import tables
    from repro.engine.parallel import parallel_counts

    results = {}
    results["draw: clean run passes"] = _serve(serving.DrawWorkload, 5, 2) == 0
    results["draw: one flipped draw is one failure"] = (
        _serve(serving.DrawWorkload, 5, 2, ("draw", 17, _flip_draw)) == 1
    )
    results["mutate: clean run passes"] = _serve(serving.MutateWorkload, 5, 3) == 0
    results["mutate: one flipped draw is one failure"] = (
        _serve(serving.MutateWorkload, 5, 3, ("draw", 12, _flip_draw)) == 1
    )
    results["mutate: a wrong version id fails"] = (
        _serve(serving.MutateWorkload, 5, 3, ("update", 9, _wrong_version)) >= 1
    )

    for (t, m) in tables.CONFIGS:
        f, _ = tables.TABLES[t]
        size = 200_000
        counts = parallel_counts(f, size, method=m, seed=7, workers=1, kernel="faithful")
        expected = gate.expected_probabilities(f, m)
        zero = tables._zero_items(t, m)
        results[f"{t}.{m}: clean histogram passes"] = not gate.check_counts(
            counts, size, expected, zero
        )
        altered = counts.copy()
        altered[-1] += 1
        results[f"{t}.{m}: one altered count fails"] = bool(
            gate.check_counts(altered, size, expected, zero)
        )
        if zero:
            moved = counts.copy()
            moved[0] += 1
            moved[-1] -= 1
            results[f"{t}.{m}: selecting processor 0 fails"] = bool(
                gate.check_counts(moved, size, expected, zero)
            )
    biased = parallel_counts(tables.TABLES["t1"][0], 200_000, method="independent",
                             seed=7, workers=1, kernel="faithful")
    results["t1: independent counts fail the log_bidding distribution"] = bool(
        gate.check_counts(biased, 200_000, gate.expected_probabilities(
            tables.TABLES["t1"][0], "log_bidding"))
    )

    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
