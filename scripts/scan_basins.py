#!/usr/bin/env python3
"""Map basins of attraction of both flows for the built-in example.

For each flow this runs ``perflow basins``, which locates the equilibria and
labels a grid of initial conditions by the root each one tends to, read off
the sign of the field, then prints the basin boundaries next to the
unstable root they should straddle, both read back from the artifacts.
CSV/JSON artifacts land under --out/<flow>/.
"""

import argparse
import json
from pathlib import Path

from perflow.cli import main as perflow_main
from perflow.equilibria import UNSTABLE


def run(grid: int, out: str) -> None:
    for flow in ("rgd", "prm"):
        flow_out = Path(out) / flow
        code = perflow_main(["basins", "--flow", flow, "--grid", str(grid), "--out", str(flow_out)])
        if code != 0:
            raise SystemExit(code)
        summary = json.loads((flow_out / "basins_summary.json").read_text())
        reports = json.loads((flow_out / "equilibria.json").read_text())["equilibria"]
        boundaries = [b["boundary"] for b in summary["boundaries"]]
        unstable = [r["location"][0] for r in reports if UNSTABLE in r["labels"]]
        root = unstable[0] if unstable else float("nan")
        print(f"{flow}: boundaries at {boundaries}, unstable root at {root:.6f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=2001)
    parser.add_argument("--out", default="basin_out")
    args = parser.parse_args()
    run(args.grid, args.out)
