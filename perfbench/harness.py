"""Shared pieces of the benchmark: the pinned child environment, timed
children, job loop, artifact digests and the machine record."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_JOBS = 3
# thread pools of the numeric libraries; pinned so at most nproc threads run
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PERFLOW_THREADS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, env):
    """Run a child to completion; return (exit code, wall s, cpu s, max RSS MB, stdout)."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, env=env, cwd=ROOT, stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode:
            sys.stderr.write(err.read().decode(errors="replace"))
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6, out.read().decode()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit() -> str:
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "perflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": source_commit(),
        "source_sha256": source_digest(),
        "pinned_env": {var: "1" for var in THREAD_VARS} | {"PERFLOW_THREADS": "unset"},
    }


def artifacts(out: Path) -> dict:
    """SHA-256 and byte size of every file a command wrote."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        info = found[str(path.relative_to(out))] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if path.suffix == ".csv":
            info["rows"] = data.count(b"\n") - 1
    return found


def command_dirs(cmds) -> list[Path]:
    return [WORK / "job" / f"{i}_{'_'.join(a.strip('-') for a in argv[:3])}" for i, argv in enumerate(cmds)]


def check_outputs(argv, out: Path, ok: bool) -> list[str]:
    if not ok:
        return ["non-zero exit"]
    try:
        return workloads.check(argv, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]


def run_jobs(seconds, run_job) -> list:
    """Closed loop: start another job while its expected time still fits."""
    results, spent = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_job())
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_JOBS and elapsed + statistics.median(spent) > seconds:
            return results


def stable_artifacts(jobs) -> dict:
    """Last job's digests, each marked with whether every job wrote the same bytes."""
    last = jobs[-1]["artifacts"]
    return {
        cmd: {
            name: dict(info, stable_across_jobs=all(j["artifacts"].get(cmd, {}).get(name) == info for j in jobs))
            for name, info in files.items()
        }
        for cmd, files in last.items()
    }
