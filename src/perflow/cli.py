"""Command-line front end emitting reproducible CSV/JSON artifacts.

Grammar::

    perflow <simulate|basins|equilibria|certify|bounds|align|repro>
            [--config FILE] [--out DIR] [--key value ...]

Flags override values from the configuration file, which overrides built-in
defaults.  ``_COMMANDS`` is the one table of commands: handler, help line and
the configuration keys its flags set.  A flag is spelled after its key
(``t_end`` -> ``--t-end``; ``grid_n`` is ``--grid``, ``radius`` is ``--r``)
and typed after the key's default: ``--domain`` takes two numbers and
``--shift`` the JSON object a file holds.  A flag replaces its key whole.
A handler computes and returns its artifacts,
``{file name: JSON object | (header, columns)}``; ``main`` alone
builds the model, creates ``--out`` and writes them in the order returned,
so a command that fails writes nothing.  Output is deterministic given the
configuration and seed: floats are emitted with 17 significant digits
(round-trip exact), CSV uses comma separators and LF line endings, JSON keys
are sorted.  Exit codes: 0 success, 2 configuration error, 3 numeric failure
(a run that cannot allocate its arrays included).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from pathlib import Path

from . import config as config_mod
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
    import numpy as np

    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) != 1:
        raise ValueError("CSV needs one column of equal length per header name")
    row_fmt = ",".join(_CSV_SPECS[c.dtype.kind] for c in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunks = [c[start:start + _CSV_CHUNK_ROWS] for c in columns]
            # a boolean cell indexes its text: np.where on strings would load numpy's string kernels
            cells = [
                [("false", "true")[v] for v in c.tolist()] if c.dtype.kind == "b" else c.tolist() for c in chunks
            ]
            # one % for the whole chunk: the row format once per row, the cells row by row
            fh.write((row_fmt * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))


def _write_json(path: Path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands: handler(cfg, model, args) -> {file name: JSON object | (header, columns)}
# Each handler imports the numeric modules it runs, so a command loads no others.

def cmd_simulate(cfg, model, args):
    from . import flows

    if cfg.flow == config_mod.DISCRETE_RGD:
        schedule = config_mod.parse_schedule(cfg.schedule)
        noise = config_mod.parse_noise(cfg.noise, cfg.seed)
        traj = flows.discrete_rgd(model, cfg.x0, cfg.steps, schedule, noise)
    else:
        traj = flows.integrate_flow(model, cfg.flow, cfg.x0, cfg.t_end, h=cfg.h, eq_tol=cfg.eq_tol)
    header = ["t"] + [f"x_{i}" for i in range(traj.states.shape[1])]
    summary = {
        "kind": traj.kind,
        "terminal_status": traj.terminal_status,
        "final_time": traj.final_time,
        "final_state": [float(v) for v in traj.final_state],
        "num_recorded": traj.times.size,
        # where the run writes is not what it computed: the same bytes in every --out
        "config": {k: v for k, v in config_mod.to_document(cfg).items() if k != "out"},
    }
    return {"trajectory.csv": (header, [traj.times, *traj.states.T]), "summary.json": summary}


def _equilibria(cfg, model):
    """The field kind, its equilibrium reports and their ``equilibria.json`` document."""
    from . import equilibria as eq_mod

    kind = cfg.flow
    if kind == config_mod.DISCRETE_RGD:  # the recursion has no field of its own to scan
        raise ConfigError(f"flow {kind!r} runs only in simulate; equilibria and basins take rgd or prm")
    if cfg.grid_n < eq_mod.MIN_ROOT_GRID:  # refused before computing, not as a numeric error
        raise ConfigError(f"grid_n must be at least {eq_mod.MIN_ROOT_GRID}, got {cfg.grid_n}")
    reports = eq_mod.find_equilibria(model, kind, grid_n=cfg.grid_n, refine_tol=cfg.refine_tol)
    document = {
        "field_kind": kind,
        "grid_n": cfg.grid_n,
        "refine_tol": cfg.refine_tol,
        "equilibria": [r.to_dict() for r in reports],
    }
    return kind, reports, document


def cmd_equilibria(cfg, model, args):
    return {"equilibria.json": _equilibria(cfg, model)[2]}


def cmd_basins(cfg, model, args):
    import numpy as np

    from . import equilibria as eq_mod

    kind, reports, document = _equilibria(cfg, model)
    basin = eq_mod.basin_scan(
        model, kind, reports, grid_n=cfg.grid_n, t_end=cfg.t_end,
        match_radius=cfg.match_radius, h=cfg.h, eq_tol=cfg.eq_tol,
    )
    n = basin.grid.shape[1]
    counts = np.bincount(basin.labels + 1).tolist()  # labels are DIVERGENT = -1 or root indices
    summary = {
        "field_kind": kind,
        "grid_n": cfg.grid_n,
        "t_end": cfg.t_end,
        "match_radius": cfg.match_radius,
        "label_counts": {str(i - 1): c for i, c in enumerate(counts) if c},
    }
    if n == 1:
        summary["boundaries"] = eq_mod.basin_boundaries(basin)
    return {
        "basins.csv": ([f"x_{i}" for i in range(n)] + ["label"], [*basin.grid.T, basin.labels]),
        "equilibria.json": document,
        "basins_summary.json": summary,
    }


def _certificate_pair(cfg, model):
    import numpy as np

    from . import certify as cert_mod

    if cfg.grid_n < cert_mod.MIN_CONSTANTS_GRID:
        raise ConfigError(f"grid_n must be at least {cert_mod.MIN_CONSTANTS_GRID}, got {cfg.grid_n}")
    x_star = np.asarray(cfg.x_star)
    cert = cert_mod.estimate_curvature_constants(model, x_star, cfg.radius, grid_n=cfg.grid_n)
    env = cert_mod.estimate_perturbation_envelope(
        model, x_star, cfg.radius, grid_n=cfg.grid_n, epsilon_cap=cfg.epsilon_cap
    )
    return cert, env


def _feasible_or_nan(cert):
    from . import certify as cert_mod

    try:
        return cert_mod.feasible_radius(cert)
    except PerflowError:
        return float("nan")


def _sweep(model, x_star, radius, grid_n):
    """The curvature constants table at radii ``_SWEEP_STEP``, ``2 * _SWEEP_STEP``, ... up to ``radius``.

    A radius whose constants give no feasible radius reads ``nan`` there.
    """
    import numpy as np

    from . import certify as cert_mod

    radii = np.arange(_SWEEP_STEP, radius + _SWEEP_STEP / 2.0, _SWEEP_STEP)
    certs = cert_mod.sweep_curvature_constants(model, x_star, radii, grid_n=grid_n)
    rows = [(c.radius, c.c1, c.c2, c.c3, c.c4, _feasible_or_nan(c)) for c in certs]
    numbers = np.array(rows, dtype=float).reshape(-1, 6)
    header = ["r", "c1", "c2", "c3", "c4", "feasible_radius", "valid"]
    return header, [*numbers.T, np.array([c.valid for c in certs], dtype=bool)]


_SWEEP_STEP = 0.01  # the radius step of certify --sweep and repro fig2
_MAX_SWEEP_RADII = 10_000


def cmd_certify(cfg, model, args):
    step = _SWEEP_STEP
    count = (cfg.radius + step / 2.0 - step) / step  # _sweep's np.arange gives ceil(count) radii
    if args.sweep and not 0 < count <= _MAX_SWEEP_RADII:
        shown = f"more than {_MAX_SWEEP_RADII}" if count > _MAX_SWEEP_RADII else "0"
        raise ConfigError(f"--r {cfg.radius} gives {shown} radii at step {step}, not 1 to {_MAX_SWEEP_RADII}")
    cert, env = _certificate_pair(cfg, model)
    artifacts = {"certificate.json": cert.to_dict(), "envelope.json": env.to_dict()}
    if args.sweep:
        artifacts["constants_sweep.csv"] = _sweep(model, cert.x_star, cfg.radius, cfg.grid_n)
    return artifacts


def cmd_bounds(cfg, model, args):
    from . import certify as cert_mod
    from .model import _check_state

    cert, env = _certificate_pair(cfg, model)
    x0 = _check_state(model, cfg.x0, "x0")
    report = cert_mod.ultimate_bounds(cert, env, x0, cfg.theta)
    keys = ("theta", "transient_rate", "ultimate_radius", "t_bound", "admissible")
    tradeoff = cert_mod.theta_tradeoff(cert, env, x0)
    curve = [{k: getattr(r, k) for k in keys} for r in tradeoff]
    return {"bounds.json": {"report": report.to_dict(), "theta_tradeoff": curve}}


def cmd_align(cfg, model, args):
    from . import certify as cert_mod

    report = cert_mod.alignment_check(model, cfg.lo, cfg.hi, cfg.grid_n)
    table = (["x", "lhs", "rhs", "holds"], [report.points, report.lhs, report.rhs, report.holds])
    return {"alignment.csv": table, "alignment.json": report.to_dict()}


def cmd_repro(cfg, model, args):
    import numpy as np

    if args.target == "fig1":
        lo, hi = cfg.domain
        xs = np.linspace(lo, hi, int(round((hi - lo) / 1e-3)) + 1)
        p = np.asarray(model.shift.value(xs), dtype=float)
        dp = np.asarray(model.shift.derivative(xs), dtype=float)
        pts = xs[:, None]
        risk = np.asarray(model.decoupled_risk(pts, pts), dtype=float)
        g1 = np.asarray(model.grad_x1(pts, pts), dtype=float)[:, 0]
        total = g1 + np.asarray(model.grad_x2(pts, pts), dtype=float)[:, 0]
        header = ["x", "p", "p_prime", "pr", "pr_grad", "grad_x1"]
        return {"fig1.csv": (header, [xs, p, dp, risk, total, g1])}
    if args.target == "fig2":
        return {"fig2.csv": _sweep(model, np.zeros(1), 0.5, 4001)}
    # headline numbers: both field crossings plus the r = 0.4 constants
    from . import certify as cert_mod
    from . import equilibria as eq_mod

    rgd_reports = eq_mod.find_equilibria(model, config_mod.RGD_FLOW, grid_n=2001)
    prm_reports = eq_mod.find_equilibria(model, config_mod.PRM_FLOW, grid_n=2001)

    def crossing(reports):
        unstable = [r for r in reports if eq_mod.UNSTABLE in r.labels]
        return float(unstable[0].location[0]) if unstable else float("nan")

    cert = cert_mod.estimate_curvature_constants(model, np.zeros(1), 0.4, grid_n=4001)
    constants = {
        "rgd_crossing": crossing(rgd_reports),
        "prm_crossing": crossing(prm_reports),
        "c1": cert.c1,
        "c2": cert.c2,
        "feasible_radius": cert_mod.feasible_radius(cert),
        "radius": cert.radius,
    }
    return {"constants.json": constants}


# name -> (handler, help, configuration keys its flags set)
_COMMANDS = {
    "simulate": (
        cmd_simulate,
        "integrate one trajectory (continuous or discrete)",
        ("flow", "x0", "t_end", "h", "eq_tol", "steps", "schedule", "noise", "seed"),
    ),
    "basins": (
        cmd_basins,
        "label a grid of initial conditions by limit equilibrium",
        ("flow", "grid_n", "t_end", "h", "eq_tol", "match_radius", "refine_tol"),
    ),
    "equilibria": (
        cmd_equilibria, "locate and classify field zeros", ("flow", "grid_n", "refine_tol")
    ),
    "certify": (
        cmd_certify,
        "estimate curvature constants and the perturbation envelope",
        ("x_star", "radius", "grid_n", "epsilon_cap"),
    ),
    "bounds": (
        cmd_bounds,
        "evaluate transient/ultimate convergence bounds",
        ("x_star", "radius", "grid_n", "x0", "theta", "epsilon_cap"),
    ),
    "align": (
        cmd_align,
        "check the perturbation-alignment condition on an interval",
        ("lo", "hi", "grid_n"),
    ),
    "repro": (cmd_repro, "emit the headline data files for the built-in example", ()),
}


# ---------------------------------------------------------------------------
# argument parsing

_FLAG_NAMES = {"grid_n": "--grid", "radius": "--r"}
_FLAG_HELP = {
    "out": "output directory (fixed filenames per command)",
    "shift": 'the response shift as JSON: {"kind": K, "params": {...}}, as in a file',
    "domain": "LO HI: the interval of decisions",
    "flow": "rgd | prm | discrete-rgd (simulate only)",
    "schedule": "constant:A | inverse:A,B",
    "noise": "none | gaussian:SIGMA | bernoulli:N",
    "radius": "certification ball radius",
    "epsilon_cap": "cap on the envelope's epsilon; none fits delta = 0",
}
# argparse alone reads only "-1" and "-0.5" as numbers; no perflow option looks like one
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _config_flag(parser, key, default):
    """Add the flag that sets configuration key ``key``, typed after its default."""
    kwargs = {"dest": key, "help": _FLAG_HELP.get(key)}
    if isinstance(default, dict):  # the shift: a JSON object, as a file spells it
        kwargs["type"] = json.loads
    elif not isinstance(default, str):  # numbers; None (epsilon_cap) is a float
        kwargs["type"] = int if isinstance(default, int) else float
        if isinstance(default, tuple) and len(default) > 1:  # the domain; a point (x0, x_star) takes one
            kwargs["nargs"] = len(default)
    parser.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perflow",
        description="Simulate decision-dependent risk flows and certify their convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = config_mod.ExperimentConfig()
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER  # so "-1e-3" and "-.5" are values, as in a file
        p.add_argument("--config", help="JSON configuration file")
        for key in ("out", "shift", "domain", *keys):
            _config_flag(p, key, getattr(defaults, key))
    certify = sub.choices["certify"]
    certify.add_argument(
        "--sweep", action="store_true", help="also emit the constants at radii 0.01, 0.02, ... up to --r"
    )
    sub.choices["repro"].add_argument("target", choices=["fig1", "fig2", "constants"])
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
    # a flag replaces its key whole, the shift's kind and parameters included
    for key in config_mod.to_document(config_mod.ExperimentConfig()):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return doc


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        if extra:  # e.g. a second number after --x0: points take one number
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
        cfg = config_mod.parse_config(_load_config(args))
        artifacts = handler(cfg, config_mod.build_model(cfg), args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, artifact in artifacts.items():
            if isinstance(artifact, tuple):
                _write_csv(out / name, *artifact)
            else:
                _write_json(out / name, artifact)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PerflowError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
