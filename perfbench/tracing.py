"""Traced run: per-layer times and work counters, measured from outside the package.

The workload's commands run in process through ``perflow.cli.main``.  A
traced job installs wrappers around the package's public functions (and the
CLI's two writers) as module attributes, and builds every model as a
:class:`TracedModel`: a ``BernoulliSquaredModel`` whose shift wraps the
configured ``value``/``derivative`` (``bump_phi``/``bump_phi_prime`` for the
built-in example).  Each wrapper opens a span; spans are aggregated in memory
as they close, so a layer's self time is its span time minus the time of the
spans it caused.  Untraced jobs of the same commands alternate with traced
ones; the difference of their medians is ``trace.overhead_s``.

Package source is never touched; nothing is patched outside a traced job.
"""

from __future__ import annotations

import inspect
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import harness

COMMAND_METRICS = {
    f"cli.{cmd}_s": cmd for cmd in ("simulate", "basins", "equilibria", "certify", "bounds", "align", "repro")
}
NOISE_KEYS = {"bernoulli-sample": "bernoulli", "gaussian": "gaussian"}
IMPORT_SAMPLES = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import perflow; print(time.perf_counter() - t)"

# name, unit, better: the order and units of the per-layer metrics
PER_LAYER = [
    ("import.s", "s", "lower"),
    ("config.s", "s", "lower"),
    ("shifts.s", "s", "lower"),
    ("shifts.calls", "count", "lower"),
    ("shifts.points", "count", "lower"),
    ("shifts.scalar_calls", "count", "lower"),
    ("model.s", "s", "lower"),
    ("model.calls", "count", "lower"),
    ("model.rows", "count", "lower"),
    ("flows.ensemble_s", "s", "lower"),
    ("flows.rk4_steps", "count", "lower"),
    ("flows.rows_evaluated", "count", "lower"),
    ("flows.live_row_ratio", "ratio", "higher"),
    ("flows.integrate_s", "s", "lower"),
    ("flows.recursion_s.bernoulli", "s", "lower"),
    ("flows.recursion_s.gaussian", "s", "lower"),
    ("flows.recursion_steps", "count", "lower"),
    ("flows.recursion_us_per_step.bernoulli", "us", "lower"),
    ("flows.recursion_us_per_step.gaussian", "us", "lower"),
    ("equilibria.find_s", "s", "lower"),
    ("equilibria.field_evals", "count", "lower"),
    ("equilibria.roots", "count", "lower"),
    ("equilibria.match_s", "s", "lower"),
    ("numerics.s", "s", "lower"),
    ("numerics.fd_evals", "count", "lower"),
    ("certify.s", "s", "lower"),
    ("certify.grid_points", "count", "lower"),
    ("certify.certificates", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.rows_written", "count", "lower"),
    ("cli.bytes_written", "B", "lower"),
    *((name, "s", "lower") for name in COMMAND_METRICS),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans aggregated as they close: per-layer self time, outermost time, counts."""

    def __init__(self):
        self.stack = []  # [layer, start, time of child spans]
        self.depth = Counter()
        self.self_s = Counter()
        self.outer_s = Counter()  # time of spans not nested in one of the same layer
        self.counts = Counter()
        self.ensemble = None

    def current(self):
        return self.stack[-1][0] if self.stack else None

    def enter(self, layer):
        self.depth[layer] += 1
        self.stack.append([layer, time.perf_counter(), 0.0])

    def exit(self):
        layer, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.self_s[layer] += dur - child
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.outer_s[layer] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, layer, fn, after=None):
        """``fn`` inside a span of ``layer`` (a name, or a function of the bound
        arguments); ``after(bound_args, result)`` counts its work."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.enter(layer(bound.arguments) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(bound.arguments, result)
            return result

        return traced


class EnsembleTally:
    """Counts one ensemble integration from the field evaluations it makes.

    Each RK4 step evaluates the field four times, starting at the current
    state; a final lone evaluation only checks convergence.  A row is live in
    a step when its state changes: a frozen row's state is bit-identical from
    step to step.
    """

    def __init__(self):
        self.evals = 0
        self.rows = 0
        self.live = 0
        self.prev = None

    def _moved(self, state):
        if state.shape != self.prev.shape:  # compacted batches carry only moving rows
            return state.shape[0]
        return int((self.prev != state).any(axis=-1).sum())

    def observe(self, x):
        if self.evals % 4 == 0:
            if self.prev is not None:
                self.live += 4 * self._moved(x)
            self.prev = x.copy()
        self.evals += 1
        self.rows += x.shape[0] if x.ndim > 1 else 1

    def finish(self, finals, counts):
        if self.evals % 4 == 0 and self.prev is not None:
            self.live += 4 * self._moved(finals)
        counts["flows.rk4_steps"] += (self.evals + 2) // 4
        counts["flows.rows_evaluated"] += self.rows
        counts["flows.live_rows"] += self.live


def traced_shift(tracer, fn):
    import numpy as np

    def shift(x):
        tracer.counts["shifts.calls"] += 1
        tracer.counts["shifts.points"] += np.size(x)
        if np.ndim(x) == 0:
            tracer.counts["shifts.scalar_calls"] += 1
        tracer.enter("shifts")
        try:
            return fn(x)
        finally:
            tracer.exit()

    return shift


def traced_model_class():
    import numpy as np
    from perflow import BernoulliSquaredModel

    @dataclass(frozen=True, eq=False)
    class TracedModel(BernoulliSquaredModel):
        """The built-in model with every evaluation counted and timed."""

        tracer: Tracer = None

        def _call(self, fn, x1, x2):
            tr = self.tracer
            tr.counts["model.calls"] += 1
            tr.counts["model.rows"] += int(np.prod(np.shape(x1)[:-1]))
            if tr.current() == "numerics":
                tr.counts["numerics.fd_evals"] += 1
            tr.enter("model")
            try:
                return fn(x1, x2)
            finally:
                tr.exit()

        def decoupled_risk(self, x1, x2):
            return self._call(super().decoupled_risk, x1, x2)

        def grad_x1(self, x1, x2):
            # both flows evaluate grad_x1 exactly once per field evaluation
            tr = self.tracer
            if tr.current() == "flows.ensemble":
                tr.ensemble.observe(np.asarray(x1))
            elif tr.current() == "equilibria.find":
                tr.counts["equilibria.field_evals"] += int(np.prod(np.shape(x1)[:-1]))
            return self._call(super().grad_x1, x1, x2)

        def grad_x2(self, x1, x2):
            return self._call(super().grad_x2, x1, x2)

    return TracedModel


@contextmanager
def installed(tracer, model_class):
    """Wrap the package's public functions for the duration of one traced job."""
    import perflow.certify as certify
    import perflow.cli as cli
    import perflow.config as config
    import perflow.equilibria as equilibria
    import perflow.flows as flows
    from perflow import ShiftFunction

    counts = tracer.counts

    def build_model(orig):
        def build(cfg):
            tracer.enter("config")
            try:
                model = orig(cfg)
            finally:
                tracer.exit()
            s = model.shift
            shift = ShiftFunction(
                kind=s.kind,
                value=traced_shift(tracer, s.value),
                derivative=traced_shift(tracer, s.derivative),
                params=s.params,
                breakpoints=s.breakpoints,
            )
            return model_class(shift=shift, domain=model.domain, tracer=tracer)

        return build

    def ensemble(orig):
        traced = tracer.wrap("flows.ensemble", orig)

        def integrate(*args, **kwargs):
            tracer.ensemble = EnsembleTally()
            finals, statuses, recording = traced(*args, **kwargs)
            tracer.ensemble.finish(finals, counts)
            return finals, statuses, recording

        return integrate

    def noise_key(bound):
        mode = bound["noise"].mode
        return NOISE_KEYS.get(mode, mode)

    def recursion_layer(bound):
        return f"flows.recursion.{noise_key(bound)}"

    def recursion_steps(bound, traj):
        counts[f"flows.recursion_steps.{noise_key(bound)}"] += traj.times.size - 1

    def grid_points(bound, _):
        counts["certify.grid_points"] += int(bound["grid_n"])

    def certificate(bound, result):
        counts["certify.certificates"] += 1
        grid_points(bound, result)

    def roots(_, reports):
        counts["equilibria.roots"] += len(reports)

    patches = [
        (config, "parse_config", lambda f: tracer.wrap("config", f)),
        (config, "build_model", build_model),
        (equilibria, "integrate_ensemble", ensemble),
        (flows, "integrate_flow", lambda f: tracer.wrap("flows.integrate", f)),
        (flows, "discrete_rgd", lambda f: tracer.wrap(recursion_layer, f, recursion_steps)),
        (equilibria, "find_equilibria", lambda f: tracer.wrap("equilibria.find", f, roots)),
        (equilibria, "basin_scan", lambda f: tracer.wrap("equilibria.basin", f)),
        (equilibria, "finite_diff_hessian", lambda f: tracer.wrap("numerics", f)),
        (equilibria, "finite_diff_jacobian", lambda f: tracer.wrap("numerics", f)),
        (certify, "estimate_curvature_constants", lambda f: tracer.wrap("certify", f, certificate)),
        (certify, "estimate_perturbation_envelope", lambda f: tracer.wrap("certify", f, grid_points)),
        (certify, "alignment_check", lambda f: tracer.wrap("certify", f, grid_points)),
        *((certify, name, lambda f: tracer.wrap("certify", f))
          for name in ("sweep_curvature_constants", "feasible_radius", "ultimate_bounds", "theta_tradeoff")),
        (cli, "_write_csv", lambda f: tracer.wrap("cli.write", f)),
        (cli, "_write_json", lambda f: tracer.wrap("cli.write", f)),
    ]
    saved = []
    try:
        for module, name, make in patches:
            if not hasattr(module, name):
                # a refactor may drop a private hook such as _write_csv; its layer
                # then reads 0 instead of the traced run failing
                print(f"# trace hook {module.__name__}.{name} not found; its layer reads 0", file=sys.stderr)
                continue
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, make(getattr(module, name)))
        yield
    finally:
        for module, name, orig in reversed(saved):
            setattr(module, name, orig)


def run_inprocess_job(cmds, tracer=None, model_class=None) -> dict:
    """One pass through the commands via ``perflow.cli.main`` in this process."""
    import perflow.cli as cli

    job = {"wall": 0.0, "commands": [], "attempted": 0, "failed": 0, "problems": [], "artifacts": {}}
    with installed(tracer, model_class) if tracer else nullcontext():
        for argv, out in zip(cmds, harness.command_dirs(cmds)):
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            try:
                rc = cli.main([*argv, "--out", str(out)])
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                print(f"# {' '.join(argv)} raised {exc!r}", file=sys.stderr)
                rc = -1
            wall = time.perf_counter() - t0
            job["wall"] += wall
            job["commands"].append((argv[0], wall))
            job["attempted"] += 1
            problems = harness.check_outputs(argv, out, rc == 0)
            job["failed"] += bool(problems)
            job["problems"] += [f"{' '.join(argv)}: {p}" for p in problems]
            job["artifacts"][out.name] = harness.artifacts(out)
    return job


def layer_values(tracer, job) -> dict:
    """Per-job layer times and counters of one traced job."""
    c, inc, own = tracer.counts, tracer.outer_s, tracer.self_s
    files = [info for files in job["artifacts"].values() for info in files.values()]
    values = {
        "config.s": inc["config"],
        "shifts.s": own["shifts"],
        "model.s": own["model"],
        "flows.ensemble_s": inc["flows.ensemble"],
        "flows.live_row_ratio": c["flows.live_rows"] / c["flows.rows_evaluated"] if c["flows.rows_evaluated"] else 0.0,
        "flows.integrate_s": inc["flows.integrate"],
        "flows.recursion_steps": sum(c[f"flows.recursion_steps.{k}"] for k in NOISE_KEYS.values()),
        "equilibria.find_s": inc["equilibria.find"],
        "equilibria.match_s": own["equilibria.basin"],
        "numerics.s": inc["numerics"],
        "certify.s": inc["certify"],
        "cli.write_s": own["cli.write"],
        "cli.rows_written": sum(info.get("rows", 0) for info in files),
        "cli.bytes_written": sum(info["bytes"] for info in files),
    }
    for key in NOISE_KEYS.values():
        steps = c[f"flows.recursion_steps.{key}"]
        values[f"flows.recursion_s.{key}"] = inc[f"flows.recursion.{key}"]
        values[f"flows.recursion_us_per_step.{key}"] = 1e6 * inc[f"flows.recursion.{key}"] / steps if steps else 0.0
    for name in ("shifts.calls", "shifts.points", "shifts.scalar_calls", "model.calls", "model.rows",
                 "flows.rk4_steps", "flows.rows_evaluated", "equilibria.field_evals", "equilibria.roots",
                 "numerics.fd_evals", "certify.grid_points", "certify.certificates"):
        values[name] = c[name]
    return values


def counters(values) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: v for name, v in values.items() if units[name] in ("count", "B", "ratio")}


def traced_run(args, cmds, env) -> tuple[dict, dict]:
    import_samples = []
    for _ in range(IMPORT_SAMPLES + 1):  # the first fills __pycache__
        rc, *_, out = harness.spawn([sys.executable, "-c", IMPORT_CODE], env)
        if rc:
            raise SystemExit("importing perflow failed")
        import_samples.append(float(out))
    import_samples = import_samples[1:]

    # the same pinned threads as the children, before numpy is imported
    os.environ.pop("PERFLOW_THREADS", None)
    os.environ.update({var: env[var] for var in harness.THREAD_VARS})
    sys.path.insert(0, str(harness.SRC))
    import perflow

    if not Path(perflow.__file__).resolve().is_relative_to(harness.SRC.resolve()):
        raise SystemExit(f"perflow does not import from {harness.SRC}: {perflow.__file__}")
    model_class = traced_model_class()

    warm_up = run_inprocess_job(cmds)  # lazy imports and first-call costs, checked but not timed
    plain, traced = [], []

    def pair():
        # alternate which side runs first so drift hits both equally
        order = [False, True] if len(plain) % 2 == 0 else [True, False]
        for with_trace in order:
            if with_trace:
                tracer = Tracer()
                job = run_inprocess_job(cmds, tracer, model_class)
                job["layers"] = layer_values(tracer, job)
                traced.append(job)
            else:
                plain.append(run_inprocess_job(cmds))

    harness.run_jobs(args.seconds, pair)

    jobs = [warm_up] + plain + traced
    problems = [p for j in jobs for p in j["problems"]]
    reference = counters(traced[0]["layers"])
    for j in traced[1:]:
        if counters(j["layers"]) != reference:
            problems.append(f"traced counters differ between repeats: {counters(j['layers'])} != {reference}")
    altered = sum(j["artifacts"] != plain[0]["artifacts"] for j in traced)
    if altered:
        problems.append(f"{altered} traced jobs wrote different bytes from an untraced one")

    n = len(traced)
    metrics = {"import.s": (statistics.median(import_samples), "s", len(import_samples))}
    for name, unit, _ in PER_LAYER[1:]:
        if name in COMMAND_METRICS:
            walls = [w for j in plain for cmd, w in j["commands"] if cmd == COMMAND_METRICS[name]]
            metrics[name] = (statistics.median(walls) if walls else 0.0, unit, len(walls))
        elif name == "trace.overhead_s":
            overhead = statistics.median(j["wall"] for j in traced) - statistics.median(j["wall"] for j in plain)
            metrics[name] = (overhead, unit, n)
        elif name in reference:
            metrics[name] = (reference[name], unit, n)
        else:
            metrics[name] = (statistics.median(j["layers"][name] for j in traced), unit, n)
    report = {
        "problems": problems,
        "attempted": IMPORT_SAMPLES + 1 + sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs) + altered,
        "artifacts": harness.stable_artifacts(traced),
        "untraced_job_s": statistics.median(j["wall"] for j in plain),
        "traced_job_s": statistics.median(j["wall"] for j in traced),
        "layer_time_basis": {
            "self": ["shifts.s", "model.s", "equilibria.match_s", "cli.write_s"],
            "inclusive of the model and shift calls made inside": [
                "config.s", "flows.ensemble_s", "flows.integrate_s", "flows.recursion_s.*",
                "equilibria.find_s", "numerics.s", "certify.s",
            ],
        },
    }
    return metrics, report
