"""perflow benchmark: drive the CLI end to end, or trace its layers in process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload basins --seed 1 --seconds 36 --trace 0

``--trace 0`` measures what a user sees.  One closed-loop client runs the
workload's command list one command at a time, each in a fresh interpreter,
until ``--seconds`` are spent; one pass through the list is a job.  It
reports the set-up time, and the median wall time, CPU time and peak memory
of a job.

``--trace 1`` calls the same commands in process with the package's public
functions wrapped from outside (see ``tracing.py``) and reports per-layer
times and work counters.

The last line of stdout is the result object; the line before it is a
report with sample counts, the machine, the inputs and artifact digests.
Exit code 2 means the benchmark could not run (for example, no ``src/perflow``
next to it); a run whose outputs are wrong still exits 0 with ``correct``
false.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import harness
import workloads
from harness import SRC, WORK, spawn

SETUP_CODE = "import perflow, perflow.cli; perflow.cli.build_parser(); print(perflow.__file__)"


def check_setup(env):
    """One untimed import that fills ``__pycache__`` and shows where perflow comes from."""
    rc, *_, out = spawn([sys.executable, "-c", SETUP_CODE], env)
    if rc or not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perflow does not import from {SRC}: {out.strip()!r}")


def run_cli_job(cmds, env) -> dict:
    """One set-up sample, then one pass through the commands.

    Set-up samples are spread over the run with the jobs, so that both see
    the same spells of a busy host.
    """
    rc, setup, *_ = spawn([sys.executable, "-c", SETUP_CODE], env)
    job = {"setup": setup, "wall": 0.0, "cpu": 0.0, "rss": 0.0, "attempted": 1, "failed": int(rc != 0),
           "problems": ["importing perflow failed"] if rc else [], "artifacts": {}}
    for argv, out in zip(cmds, harness.command_dirs(cmds)):
        shutil.rmtree(out, ignore_errors=True)
        rc, wall, cpu, rss, _ = spawn([sys.executable, "-m", "perflow.cli", *argv, "--out", str(out)], env)
        job["wall"] += wall
        job["cpu"] += cpu
        job["rss"] = max(job["rss"], rss)
        job["attempted"] += 1
        problems = harness.check_outputs(argv, out, rc == 0)
        job["failed"] += bool(problems)
        job["problems"] += [f"{' '.join(argv)}: {p}" for p in problems]
        job["artifacts"][out.name] = harness.artifacts(out)
    return job


def end_to_end(args, cmds, env) -> tuple[dict, dict]:
    check_setup(env)
    jobs = harness.run_jobs(args.seconds, lambda: run_cli_job(cmds, env))
    setup = [j["setup"] for j in jobs]
    problems = [p for j in jobs for p in j["problems"]]
    attempted = 1 + sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "job_s": (statistics.median(j["wall"] for j in jobs), "s", len(jobs)),
        "job_cpu_s": (statistics.median(j["cpu"] for j in jobs), "s", len(jobs)),
        "peak_rss_mb": (statistics.median(j["rss"] for j in jobs), "MB", len(jobs)),
    }
    report = {
        "problems": problems,
        "artifacts": harness.stable_artifacts(jobs),
        "attempted": attempted,
        "failed": failed,
        "jobs": [{k: j[k] for k in ("setup", "wall", "cpu", "rss")} for j in jobs],
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perflow" / "__init__.py").is_file():
        print(f"no perflow sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env = harness.child_env()
    cmds = workloads.commands(args.workload, args.seed)

    if args.trace:
        import tracing

        metrics, report = tracing.traced_run(args, cmds, env)
    else:
        metrics, report = end_to_end(args, cmds, env)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workloads.SEEDED[args.workload],
        "trace": args.trace,
        "client": "closed loop, 1 client, one command at a time",
        "commands": [" ".join(c) for c in cmds],
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "environment": harness.environment(),
    } | report
    (WORK / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
