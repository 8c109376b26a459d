"""Helpers shared by ``run.py`` and the benchmark's child processes.

Everything here is stdlib-only and imports nothing from ``repro``, so
``run.py`` can check that the program's sources are present before it
imports them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout the benchmark runs in: the directory holding ``perfbench/``.
CHECKOUT = BENCH_DIR.parent
SRC_DIR = CHECKOUT / "src"
#: Scratch space for generated corpora, stores and span files; removed at
#: the end of every run and listed in the root ``.gitignore``.
WORK_ROOT = CHECKOUT / ".perfbench-work"

MS = "MS_ip_te_pll"
PS = "PS_ip_te_pll"
ENSEMBLE = "BW+MS_ip_te_pll"
LIGHT_MEASURES = ("BW", "BT")
K = 10


def program_present() -> bool:
    return (SRC_DIR / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first on
    the import path, unbuffered output, no stray bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_children(jobs: "list[list[str]]", *, timeout: float) -> None:
    """Run several children at once; raise if any fails."""
    processes = [
        subprocess.Popen(
            [sys.executable, *args],
            env=child_env(),
            cwd=str(CHECKOUT),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for args in jobs
    ]
    failures = []
    try:
        for args, process in zip(jobs, processes):
            output, _ = process.communicate(timeout=timeout)
            if process.returncode != 0:
                failures.append(f"child {args[0]} exited {process.returncode}:\n{output[-4000:]}")
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    if failures:
        raise RuntimeError("\n".join(failures))


def replica_cpus() -> "list[int]":
    """The CPUs the measured in-process replicas are pinned to: the first
    two this process may run on."""
    return sorted(os.sched_getaffinity(0))[:2]


def write_json(path: "Path | str", data) -> None:
    Path(path).write_text(json.dumps(data))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def digest(value) -> str:
    """Order-preserving digest of a JSON-able answer; floats keep every
    bit because ``json`` writes their shortest round-trip repr."""
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the max when fewer than 1/(1-f) samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """Peak resident set of the calling process (``ru_maxrss``), in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).iterdir() if entry.is_file())
