"""Shared plumbing: paths, child processes, statistics, provenance.

Every program under test runs as a child process started from the
checkout root with ``PYTHONPATH=src``; its wall time is taken around
the whole process and its CPU time and peak RSS come from ``wait4``,
which folds in every worker the child reaped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Everything the benchmark writes lives under here (git-ignored).
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
NPROC = os.cpu_count() or 1
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def make_workdir(name: str) -> str:
    path = os.path.join(STATE_DIR, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    return path


def child_env(workdir: str) -> Dict[str, str]:
    """The environment of every child: the checkout's sources first,
    and temporary files kept inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    env.pop("REPRO_CACHE_DIR", None)
    return env


@dataclass
class Proc:
    """One finished child process."""

    argv: List[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class Child:
    """A running child process whose output goes to files (never
    pipes), so a chatty child cannot block on a full pipe while the
    parent sits in ``wait4``."""

    def __init__(self, argv: Sequence[str], workdir: str,
                 name: str = "child", new_session: bool = False) -> None:
        self.argv = list(argv)
        self.out_path = os.path.join(workdir, name + ".out")
        self.err_path = os.path.join(workdir, name + ".err")
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.started = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, cwd=ROOT, env=child_env(workdir), stdout=out,
                stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=new_session)

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> Proc:
        """Reap the child (killing it after ``timeout``) and measure it."""
        watchdog = threading.Timer(timeout, self.process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - self.started
        self.process.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, encoding="utf-8",
                  errors="replace") as handle:
            stdout = handle.read()
        with open(self.err_path, encoding="utf-8",
                  errors="replace") as handle:
            stderr = handle.read()
        return Proc(argv=self.argv, returncode=self.process.returncode,
                    wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    stdout=stdout, stderr=stderr)


def run_child(argv: Sequence[str], workdir: str,
              timeout: float = CHILD_TIMEOUT_S) -> Proc:
    """Run ``argv`` to completion and measure it."""
    return Child(argv, workdir).wait(timeout)


def python_child(*args: str) -> List[str]:
    """argv for a Python child running a benchmark-side entry point."""
    return [sys.executable, os.path.join(BENCH_DIR, "child.py")] + \
        list(args)


def cli_child(*args: str) -> List[str]:
    """argv for ``repro-hoiho ARGS`` from the checkout's sources."""
    return [sys.executable, "-m", "repro.cli"] + list(args)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of raw samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tree_size(path: str) -> int:
    """Total bytes of the regular files under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; do not ask a parent repo
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources (every file under ``src/``
    but byte-code), so a record can be tied to the code that made it
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def provenance() -> Dict[str, object]:
    """The machine and source a result was measured on."""
    return {"nproc": NPROC,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "source_digest": source_digest()}


def load_average() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]


def write_json(path: str, document: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: str) -> Optional[object]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
