"""Host facts recorded with every benchmark result.

Everything is read from what the process can see; no machine setting is
changed. Facts that cannot be read are named under "missing".
"""

import os
import platform


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        level = _read(f"{base}/{entry}/level")
        if level is not None and level.strip() == "3":
            size = _read(f"{base}/{entry}/size")
            return size.strip() if size else None
    return None


def _mem_total():
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            return line.split(":", 1)[1].strip()
    return None


def _blas():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        # numpy older than 1.26 only prints its build configuration
        return None, None


def host_facts():
    import numpy as np
    import scipy

    blas_name, blas_version = _blas()
    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "KRONSTAP_THREADS": os.environ.get("KRONSTAP_THREADS", "unset"),
    }
    facts["missing"] = sorted(k for k, v in facts.items() if v is None)
    return facts
