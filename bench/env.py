"""Process environment and provenance shared by the benchmark's processes.

``prepare_imports()`` must run before numpy is imported: it pins the BLAS
and OpenMP pools to one thread and puts this checkout's ``src`` first on
the import path, so the benchmark measures the code next to it and never
an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_imports() -> None:
    """Pin thread pools, then import anwsim from this checkout or exit 2."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare_imports() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "anwsim" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no anwsim sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import anwsim

    if Path(anwsim.__file__).resolve().parent != SRC / "anwsim":
        sys.stderr.write(f"bench: imported anwsim from {anwsim.__file__}, not {SRC}\n")
        sys.exit(2)


def _git_sha() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def provenance() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
