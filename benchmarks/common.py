"""Paths, thread pinning and environment facts shared by the benchmark scripts.

Import this module before numpy: BLAS reads its thread count once, when
the library loads.
"""

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: on a 2-core box a 2-thread OpenBLAS pool whose workers
# have gone to sleep takes ~8 ms for the n = 511 noise load and ~0.6 ms
# while they spin, so that kernel's time depends on what ran before it.
# Single-threaded it takes ~1 ms either way.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Cap every BLAS/OpenMP pool at BLAS_THREADS for this process and its children."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def require_source():
    """Put the checkout's src/ first on sys.path, or exit 2 if it is missing.

    The benchmark measures the program in its own checkout, never an
    installed copy, so a checkout without src/spdefem cannot be measured.
    """
    if not (SRC / "spdefem" / "__init__.py").is_file():
        print(f"benchmark: no spdefem sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS as the library reports them."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
