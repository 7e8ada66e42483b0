"""Workload command lists and the output checks that define a failed operation.

Every workload is a fixed list of ``perflow`` CLI commands at the README
example settings.  Only ``simulate`` reads the seed: it draws each ``--x0``
from [0.5, 1.2], inside the basin of the stable root at 1, and the noise seed
of each discrete run.  ``basins`` and ``certificates`` are deterministic and
ignore the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# workload -> whether its inputs depend on the seed
SEEDED = {"basins": False, "simulate": True, "certificates": False}
WORKLOADS = tuple(SEEDED)

GRID = 2001
STEPS = 100_000
DOMAIN = (-0.5, 1.5)
X0_RANGE = (0.5, 1.2)
# refined unstable roots of the built-in example, at their printed digits
UNSTABLE_ROOT = {"rgd": 0.227360, "prm": 0.398966}
ROOT_TOL = 5e-7
# headline constants at r = 0.4 about 0, compared at their printed digits
HEADLINE = (("c1", 0.50, 2), ("c2", 1.77, 2), ("feasible_radius", 0.212, 3))


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command list of one job; the same seed gives the same list."""
    if workload == "basins":
        return [["basins", "--flow", flow, "--grid", str(GRID)] for flow in ("rgd", "prm")]
    if workload == "simulate":
        rng = random.Random(seed)

        def x0():
            return f"{rng.uniform(*X0_RANGE):.6f}"

        discrete = [
            "simulate", "--flow", "discrete-rgd", "--steps", str(STEPS),
            "--schedule", "inverse:0.5,10",
        ]
        return [
            discrete + ["--noise", "bernoulli:100", "--seed", str(rng.randrange(2**31)), "--x0", x0()],
            discrete + ["--noise", "gaussian:0.1", "--seed", str(rng.randrange(2**31)), "--x0", x0()],
            ["simulate", "--flow", "rgd", "--x0", x0(), "--t-end", "50"],
            ["simulate", "--flow", "prm", "--x0", x0(), "--t-end", "50"],
        ]
    if workload == "certificates":
        return [
            ["equilibria", "--flow", "rgd"],
            ["equilibria", "--flow", "prm"],
            ["certify", "--x-star", "0", "--r", "0.4", "--grid", "4001", "--sweep"],
            ["bounds"],
            ["align", "--lo", "0", "--hi", "1", "--grid", "10001"],
            ["repro", "fig1"],
            ["repro", "fig2"],
            ["repro", "constants"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def expected_artifacts(argv) -> list[str]:
    cmd = argv[0]
    if cmd == "simulate":
        return ["trajectory.csv", "summary.json"]
    if cmd == "basins":
        return ["basins.csv", "equilibria.json", "basins_summary.json"]
    if cmd == "equilibria":
        return ["equilibria.json"]
    if cmd == "certify":
        return ["certificate.json", "envelope.json"] + (["constants_sweep.csv"] if "--sweep" in argv else [])
    if cmd == "bounds":
        return ["bounds.json"]
    if cmd == "align":
        return ["alignment.csv", "alignment.json"]
    if cmd == "repro":
        return [{"fig1": "fig1.csv", "fig2": "fig2.csv", "constants": "constants.json"}[argv[1]]]
    raise ValueError(f"unknown command {cmd!r}")


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _check_root(flow, doc, problems):
    roots = [e["location"][0] for e in doc["equilibria"] if "unstable" in e["labels"]]
    ref = UNSTABLE_ROOT[flow]
    if len(roots) != 1 or abs(roots[0] - ref) > ROOT_TOL:
        problems.append(f"{flow} unstable roots {roots}, expected one at {ref}")
        return None
    return roots[0]


def _check_simulate(argv, out, problems):
    summary = json.loads((out / "summary.json").read_text())
    xs = [float(row[1]) for row in _csv_rows(out / "trajectory.csv")]
    if not all(math.isfinite(x) and DOMAIN[0] <= x <= DOMAIN[1] for x in xs):
        problems.append("trajectory leaves the domain or is non-finite")
    if summary["num_recorded"] != len(xs):
        problems.append(f"summary records {summary['num_recorded']} rows, csv has {len(xs)}")
    if _flag(argv, "--flow") == "discrete-rgd":
        steps = int(_flag(argv, "--steps"))
        if len(xs) != steps + 1 or summary["terminal_status"] != "max-time":
            problems.append(f"recursion ended {summary['terminal_status']} after {len(xs)} rows")
    elif summary["terminal_status"] != "converged-to-equilibrium" or abs(xs[-1] - 1.0) > 1e-6:
        problems.append(f"flow from x0 in the basin of 1 ended {summary['terminal_status']} at {xs[-1]}")


def _check_basins(argv, out, problems):
    flow = _flag(argv, "--flow")
    grid = int(_flag(argv, "--grid"))
    root = _check_root(flow, json.loads((out / "equilibria.json").read_text()), problems)
    summary = json.loads((out / "basins_summary.json").read_text())
    if sum(summary["label_counts"].values()) != grid or len(_csv_rows(out / "basins.csv")) != grid:
        problems.append(f"labels do not cover the {grid}-point grid")
    cell = (DOMAIN[1] - DOMAIN[0]) / (grid - 1)
    bounds = [b["boundary"] for b in summary.get("boundaries", [])]
    if root is not None and (not bounds or any(abs(b - root) > cell for b in bounds)):
        problems.append(f"boundaries {bounds} farther than one cell from the root {root}")


def _check_headline(doc, problems):
    for key, ref, digits in HEADLINE:
        value = doc.get(key)
        if not isinstance(value, float) or round(value, digits) != ref:
            problems.append(f"{key} = {value}, expected {ref}")


def check(argv, out: Path) -> list[str]:
    """Problems with the artifacts one command wrote; empty when it is correct."""
    missing = [name for name in expected_artifacts(argv) if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    problems: list[str] = []
    cmd = argv[0]
    if cmd == "simulate":
        _check_simulate(argv, out, problems)
    elif cmd == "basins":
        _check_basins(argv, out, problems)
    elif cmd == "equilibria":
        _check_root(_flag(argv, "--flow"), json.loads((out / "equilibria.json").read_text()), problems)
    elif cmd == "certify":
        cert = json.loads((out / "certificate.json").read_text())
        cert["feasible_radius"] = math.sqrt(cert["c1"] / cert["c2"]) * cert["radius"]
        _check_headline(cert, problems)
        if len(_csv_rows(out / "constants_sweep.csv")) != 40:
            problems.append("constants sweep does not have 40 radii")
    elif cmd == "bounds":
        doc = json.loads((out / "bounds.json").read_text())
        if not doc["theta_tradeoff"] or not math.isfinite(doc["report"]["transient_rate"]):
            problems.append("bounds report is empty or non-finite")
    elif cmd == "align":
        if len(_csv_rows(out / "alignment.csv")) != int(_flag(argv, "--grid")):
            problems.append("alignment grid has the wrong number of rows")
    elif argv[1] == "constants":
        doc = json.loads((out / "constants.json").read_text())
        _check_headline(doc, problems)
        for flow, ref in UNSTABLE_ROOT.items():
            if abs(doc[f"{flow}_crossing"] - ref) > ROOT_TOL:
                problems.append(f"{flow} crossing {doc[f'{flow}_crossing']}, expected {ref}")
    else:
        rows = {"fig1": GRID, "fig2": 50}[argv[1]]
        if len(_csv_rows(out / f"{argv[1]}.csv")) != rows:
            problems.append(f"{argv[1]}.csv does not have {rows} rows")
    return problems
