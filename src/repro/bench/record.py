"""The one writer behind every ``BENCH_*.json`` record.

Each bench driver builds its report, names its schema and sections, and
keeps its own ``validate_bench_*`` function for the checks only it can
make.  What every record shares lives here: the host ``meta`` block, the
envelope check (a JSON object, the right schema tag, every section an
object) and the validate-then-write step.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Callable, Dict, Sequence

import numpy as np

from repro._version import __version__

__all__ = ["host_meta", "check_envelope", "write_report"]


def host_meta() -> Dict[str, Any]:
    """The ``meta`` block of a record: versions, core count, timestamp."""
    return {
        "repro": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def check_envelope(
    report: Any,
    schema: str,
    sections: Sequence[str] = ("config", "results", "meta"),
) -> None:
    """Raise ``ValueError`` unless ``report`` is a ``schema`` record
    whose ``sections`` are all JSON objects."""
    if not isinstance(report, dict):
        raise ValueError("bench report must be a JSON object")
    if report.get("schema") != schema:
        raise ValueError(f"schema mismatch: {report.get('schema')!r} != {schema!r}")
    for section in sections:
        if not isinstance(report.get(section), dict):
            raise ValueError(f"missing section {section!r}")


def write_report(
    report: Dict[str, Any], path, validate: Callable[[Dict[str, Any]], None]
):
    """Validate ``report``, then write it to ``path`` as indented JSON.

    Nothing is written when ``validate`` raises.  Returns ``path``.
    """
    validate(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path
