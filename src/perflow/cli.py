"""Command-line front end emitting reproducible CSV/JSON artifacts.

Grammar::

    perflow <simulate|basins|equilibria|certify|bounds|align|repro>
            [--config FILE] [--out DIR] [--key value ...]

Flags override values from the configuration file, which overrides built-in
defaults.  Every command writes fixed filenames under ``--out`` and is
deterministic given its configuration and seed: floats are emitted with 17
significant digits (round-trip exact), CSV uses comma separators and LF line
endings, JSON keys are sorted.  Exit codes: 0 success, 2 configuration
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import certify as cert_mod
from . import config as config_mod
from . import equilibria as eq_mod
from . import flows
from .errors import ConfigError, PerflowError


# ---------------------------------------------------------------------------
# deterministic serialization

_CSV_SPECS = {"f": "%.17g", "i": "%d", "b": "%s"}
_CSV_CHUNK_ROWS = 1024  # rows formatted per write; bounds the text held at once


def _write_csv(path: Path, header, columns):
    """Write equal-length columns as CSV, each cell formatted by its column's dtype.

    Floats use ``%.17g``, which spells every value (``inf``, ``nan``, ``-0``
    included) as ``format(v, ".17g")`` does; integers use ``%d`` and booleans
    ``true``/``false``.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) != 1:
        raise ValueError("CSV needs one column of equal length per header name")
    row_fmt = ",".join(_CSV_SPECS[c.dtype.kind] for c in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunks = [c[start:start + _CSV_CHUNK_ROWS] for c in columns]
            cells = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in chunks]
            fh.write("".join([row_fmt % row for row in zip(*(c.tolist() for c in cells))]))


def _write_json(path: Path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg) -> int:
    model = config_mod.build_model(cfg)
    if cfg.flow == flows.DISCRETE_RGD:
        traj = flows.discrete_rgd(
            model,
            np.asarray(cfg.x0),
            cfg.steps,
            config_mod.parse_schedule(cfg.schedule),
            config_mod.parse_noise(cfg.noise, cfg.seed),
        )
    else:
        traj = flows.integrate_flow(
            model, cfg.flow, np.asarray(cfg.x0), cfg.t_end, h=cfg.h, eq_tol=cfg.eq_tol
        )
    out = _out_dir(cfg)
    header = ["t"] + [f"x_{i}" for i in range(traj.states.shape[1])]
    _write_csv(out / "trajectory.csv", header, [traj.times, *traj.states.T])
    _write_json(
        out / "summary.json",
        {
            "kind": traj.kind,
            "terminal_status": traj.terminal_status,
            "final_time": float(traj.final_time),
            "final_state": [float(v) for v in traj.final_state],
            "num_recorded": int(traj.times.size),
            "config": config_mod.to_document(cfg),
        },
    )
    return 0


def _equilibrium_reports(cfg, model):
    kind = cfg.flow if cfg.flow != flows.DISCRETE_RGD else flows.RGD_FLOW
    return kind, eq_mod.find_equilibria(
        model, kind, grid_n=cfg.grid_n, refine_tol=cfg.refine_tol
    )


def cmd_equilibria(cfg) -> int:
    model = config_mod.build_model(cfg)
    kind, reports = _equilibrium_reports(cfg, model)
    out = _out_dir(cfg)
    _write_json(
        out / "equilibria.json",
        {
            "field_kind": kind,
            "grid_n": cfg.grid_n,
            "refine_tol": cfg.refine_tol,
            "equilibria": [r.to_dict() for r in reports],
        },
    )
    return 0


def cmd_basins(cfg) -> int:
    model = config_mod.build_model(cfg)
    kind, reports = _equilibrium_reports(cfg, model)
    basin = eq_mod.basin_scan(
        model,
        kind,
        reports,
        grid_n=cfg.grid_n,
        t_end=cfg.t_end,
        match_radius=cfg.match_radius,
        h=cfg.h,
        eq_tol=cfg.eq_tol,
    )
    out = _out_dir(cfg)
    n = basin.grid.shape[1]
    _write_csv(
        out / "basins.csv", [f"x_{i}" for i in range(n)] + ["label"], [*basin.grid.T, basin.labels]
    )
    _write_json(
        out / "equilibria.json",
        {
            "field_kind": kind,
            "grid_n": cfg.grid_n,
            "refine_tol": cfg.refine_tol,
            "equilibria": [r.to_dict() for r in reports],
        },
    )
    labels, counts = np.unique(basin.labels, return_counts=True)
    summary = {
        "field_kind": kind,
        "grid_n": cfg.grid_n,
        "t_end": cfg.t_end,
        "match_radius": cfg.match_radius,
        "label_counts": {str(int(l)): int(c) for l, c in zip(labels, counts)},
    }
    if n == 1:
        summary["boundaries"] = eq_mod.basin_boundaries(basin)
    _write_json(out / "basins_summary.json", summary)
    return 0


def _certificate_pair(cfg, model):
    cert = cert_mod.estimate_curvature_constants(
        model, np.asarray(cfg.x_star), cfg.radius, grid_n=cfg.grid_n
    )
    env = cert_mod.estimate_perturbation_envelope(
        model,
        np.asarray(cfg.x_star),
        cfg.radius,
        grid_n=cfg.grid_n,
        fit_mode=cfg.fit_mode,
        epsilon_cap=cfg.epsilon_cap,
    )
    return cert, env


_SWEEP_HEADER = ["r", "c1", "c2", "c3", "c4", "feasible_radius", "valid"]


def _feasible_or_nan(cert):
    try:
        return cert_mod.feasible_radius(cert)
    except PerflowError:
        return float("nan")


def _sweep_columns(model, x_star, radii, grid_n):
    certs = cert_mod.sweep_curvature_constants(model, x_star, radii, grid_n=grid_n)
    rows = [(c.radius, c.c1, c.c2, c.c3, c.c4, _feasible_or_nan(c)) for c in certs]
    numbers = np.array(rows, dtype=float).reshape(-1, 6)
    return [*numbers.T, np.array([c.valid for c in certs], dtype=bool)]


def cmd_certify(cfg, sweep: bool = False, sweep_step: float = 0.01) -> int:
    model = config_mod.build_model(cfg)
    cert, env = _certificate_pair(cfg, model)
    out = _out_dir(cfg)
    _write_json(out / "certificate.json", cert.to_dict())
    _write_json(out / "envelope.json", env.to_dict())
    if sweep:
        radii = np.arange(sweep_step, cfg.radius + sweep_step / 2.0, sweep_step)
        _write_csv(
            out / "constants_sweep.csv",
            _SWEEP_HEADER,
            _sweep_columns(model, np.asarray(cfg.x_star), radii, cfg.grid_n),
        )
    return 0


def cmd_bounds(cfg) -> int:
    model = config_mod.build_model(cfg)
    cert, env = _certificate_pair(cfg, model)
    report = cert_mod.ultimate_bounds(cert, env, np.asarray(cfg.x0), cfg.theta)
    tradeoff = [
        {
            "theta": r.theta,
            "transient_rate": r.transient_rate,
            "ultimate_radius": r.ultimate_radius,
            "t_bound": r.t_bound,
            "admissible": r.admissible,
        }
        for r in cert_mod.theta_tradeoff(cert, env, np.asarray(cfg.x0))
    ]
    out = _out_dir(cfg)
    _write_json(out / "bounds.json", {"report": report.to_dict(), "theta_tradeoff": tradeoff})
    return 0


def cmd_align(cfg) -> int:
    model = config_mod.build_model(cfg)
    report = cert_mod.alignment_check(model, cfg.lo, cfg.hi, cfg.grid_n)
    out = _out_dir(cfg)
    _write_csv(
        out / "alignment.csv",
        ["x", "lhs", "rhs", "holds"],
        [report.points, report.lhs, report.rhs, report.holds],
    )
    _write_json(out / "alignment.json", report.to_dict())
    return 0


def cmd_repro(cfg, target: str) -> int:
    model = config_mod.build_model(cfg)
    out = _out_dir(cfg)
    if target == "fig1":
        lo, hi = cfg.domain
        xs = np.linspace(lo, hi, int(round((hi - lo) / 1e-3)) + 1)
        p = np.asarray(model.shift.value(xs), dtype=float)
        dp = np.asarray(model.shift.derivative(xs), dtype=float)
        pts = xs[:, None]
        risk = np.asarray(model.decoupled_risk(pts, pts), dtype=float)
        g1 = np.asarray(model.grad_x1(pts, pts), dtype=float)[:, 0]
        total = g1 + np.asarray(model.grad_x2(pts, pts), dtype=float)[:, 0]
        _write_csv(
            out / "fig1.csv",
            ["x", "p", "p_prime", "pr", "pr_grad", "grad_x1"],
            [xs, p, dp, risk, total, g1],
        )
        return 0
    if target == "fig2":
        radii = np.arange(0.01, 0.5001, 0.01)
        _write_csv(out / "fig2.csv", _SWEEP_HEADER, _sweep_columns(model, np.zeros(1), radii, 4001))
        return 0
    # headline numbers: both field crossings plus the r = 0.4 constants
    rgd_reports = eq_mod.find_equilibria(model, flows.RGD_FLOW, grid_n=2001)
    prm_reports = eq_mod.find_equilibria(model, flows.PRM_FLOW, grid_n=2001)

    def crossing(reports):
        unstable = [r for r in reports if eq_mod.UNSTABLE in r.labels]
        return float(unstable[0].location[0]) if unstable else float("nan")

    cert = cert_mod.estimate_curvature_constants(model, np.zeros(1), 0.4, grid_n=4001)
    _write_json(
        out / "constants.json",
        {
            "rgd_crossing": crossing(rgd_reports),
            "prm_crossing": crossing(prm_reports),
            "c1": cert.c1,
            "c2": cert.c2,
            "feasible_radius": cert_mod.feasible_radius(cert),
            "radius": cert.radius,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _common_flags(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (fixed filenames per command)")
    parser.add_argument("--model", help="model kind, e.g. bernoulli-squared or bernoulli-phi")
    parser.add_argument("--shift-kind", dest="shift_kind", help="response shift kind")
    parser.add_argument(
        "--shift-params", dest="shift_params", help="response shift parameters as JSON"
    )
    parser.add_argument("--domain", nargs=2, type=float, metavar=("LO", "HI"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perflow",
        description="Simulate decision-dependent risk flows and certify their convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory (continuous or discrete)")
    _common_flags(p)
    p.add_argument("--flow", help="rgd | prm | discrete-rgd")
    p.add_argument("--x0", nargs="+", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--eq-tol", dest="eq_tol", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--schedule", help="constant:A | inverse:A,B")
    p.add_argument("--noise", help="none | gaussian:SIGMA | bernoulli:N")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("basins", help="label a grid of initial conditions by limit equilibrium")
    _common_flags(p)
    p.add_argument("--flow", help="rgd | prm")
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--eq-tol", dest="eq_tol", type=float)
    p.add_argument("--match-radius", dest="match_radius", type=float)
    p.add_argument("--refine-tol", dest="refine_tol", type=float)

    p = sub.add_parser("equilibria", help="locate and classify field zeros")
    _common_flags(p)
    p.add_argument("--flow", help="rgd | prm")
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--refine-tol", dest="refine_tol", type=float)

    p = sub.add_parser("certify", help="estimate curvature constants and the perturbation envelope")
    _common_flags(p)
    p.add_argument("--x-star", dest="x_star", nargs="+", type=float)
    p.add_argument("--r", dest="radius", type=float, help="certification ball radius")
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--fit-mode", dest="fit_mode", help="delta-zero | epsilon-capped")
    p.add_argument("--epsilon-cap", dest="epsilon_cap", type=float)
    p.add_argument("--sweep", action="store_true", help="also emit the constants-vs-radius CSV")
    p.add_argument("--sweep-step", dest="sweep_step", type=float, default=0.01)

    p = sub.add_parser("bounds", help="evaluate transient/ultimate convergence bounds")
    _common_flags(p)
    p.add_argument("--x-star", dest="x_star", nargs="+", type=float)
    p.add_argument("--r", dest="radius", type=float)
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--x0", nargs="+", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--fit-mode", dest="fit_mode")
    p.add_argument("--epsilon-cap", dest="epsilon_cap", type=float)

    p = sub.add_parser("align", help="check the perturbation-alignment condition on an interval")
    _common_flags(p)
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--grid", dest="grid_n", type=int)

    p = sub.add_parser("repro", help="emit the headline data files for the built-in example")
    _common_flags(p)
    p.add_argument("target", choices=["fig1", "fig2", "constants"])

    return parser


def _load_config(args) -> dict:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read configuration file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration file must hold a JSON object")

    for key in config_mod.to_document(config_mod.ExperimentConfig()):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = list(value) if isinstance(value, (list, tuple)) else value

    shift_kind = getattr(args, "shift_kind", None)
    shift_params = getattr(args, "shift_params", None)
    if shift_kind is not None or shift_params is not None:
        shift = dict(doc.get("shift", {}))
        if shift_kind is not None:
            shift["kind"] = shift_kind
        if shift_params is not None:
            try:
                shift["params"] = json.loads(shift_params)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--shift-params is not valid JSON: {exc}") from exc
        doc["shift"] = shift
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.parse_config(_load_config(args))
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "basins":
            return cmd_basins(cfg)
        if args.command == "equilibria":
            return cmd_equilibria(cfg)
        if args.command == "certify":
            return cmd_certify(cfg, sweep=args.sweep, sweep_step=args.sweep_step)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        if args.command == "align":
            return cmd_align(cfg)
        return cmd_repro(cfg, args.target)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PerflowError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
