"""Shared helpers: percentiles, digests, memory, host facts."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for service directories, caches, spans and records.
WORK_DIR = ROOT / ".perfbench"


def use_source_tree() -> None:
    """Import the program from ``src/`` of this checkout, with no
    ``CHIMERA_*`` setting inherited from the caller's environment."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {ROOT}/src")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for key in [k for k in os.environ if k.startswith("CHIMERA_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = src


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(obj: Any) -> str:
    """Short content hash of a JSON-able value (floats exact)."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Content hash of ``src/``: identifies the program when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_facts(seed: int, seconds: float, full_seconds: Optional[int]
               ) -> Dict[str, Any]:
    """Facts every record carries."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpus = os.cpu_count() or 1
    usable = nproc()
    return {
        "nproc": usable,
        "cpu_count": cpus,
        "one_core_host": usable == 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "seconds": seconds,
        "mode": ("full" if full_seconds is None or seconds >= full_seconds
                 else "shortened"),
    }


def load_json(path: Path, default: Any) -> Any:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def quantile_summary(values: List[float]) -> Dict[str, float]:
    return {"n": len(values), "p50": median(values),
            "p90": percentile(values, 90.0), "p95": percentile(values, 95.0),
            "max": max(values) if values else float("nan")}
