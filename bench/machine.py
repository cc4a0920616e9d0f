"""Description of the machine and numeric stack a benchmark run measured."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _last_level_cache() -> str | None:
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level, size = _read(index + "/level"), _read(index + "/size")
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), size)
    return f"L{best[0]} {best[1]}" if best else None


def _openblas(package) -> dict:
    """Version from the build config; live thread count from the bundled library."""
    blas = package.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    return info


def describe() -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(numpy),
        "scipy_blas": _openblas(scipy),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
