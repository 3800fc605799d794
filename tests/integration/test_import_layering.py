"""Import layering: the serving core loads without the layers above it.

Dependencies point one way, core -> engine -> service, with the bench
drivers, the audit harness and the lab on top.  A fresh interpreter
with SciPy and networkx blocked must still import the package and the
serving modules, and serve register -> update -> draw in-process and on
a one-shard cluster, without loading any of the upper layers.
"""

import json
import os
import subprocess
import sys

import repro

SCRIPT = r"""
import asyncio
import json
import sys

sys.modules["scipy"] = sys.modules["networkx"] = None

import repro
import repro.engine.compiled
import repro.engine.parallel
import repro.service.cluster
import repro.service.server
from repro.service.cluster import ClusterService
from repro.service.protocol import raise_structured
from repro.service.server import SelectionService


async def flow(service):
    reg = await service.handle_request({"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0]})
    raise_structured(reg)
    upd = await service.handle_request(
        {"op": "update", "wheel": reg["wheel"], "indices": [0], "values": [5.0]}
    )
    raise_structured(upd)
    draw = await service.handle_request(
        {"op": "draw", "wheel": upd["wheel"], "n": 16, "seed": 3}
    )
    raise_structured(draw)
    raise_structured(await service.handle_request({"op": "stats"}))
    await service.close()
    return [int(i) for i in draw["draws"]]


inproc = asyncio.run(asyncio.wait_for(flow(SelectionService(seed=0)), 60.0))
cluster = asyncio.run(asyncio.wait_for(flow(ClusterService(workers=1, seed=0)), 60.0))
upper = ("scipy", "networkx", "repro.audit", "repro.bench", "repro.lab",
         "repro.aco", "repro.stats", "repro.tune")
print(json.dumps({
    "same_draws": inproc == cluster,
    "loaded": [name for name in upper if sys.modules.get(name) is not None],
}))
"""


def test_serving_core_loads_without_upper_layers():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert result["same_draws"]
