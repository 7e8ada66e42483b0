"""The package's export table, and what each entry point imports.

``import perflow`` loads no numeric module; an exported name loads its
module on first use.  The CLI front end parses arguments without numpy, a
configuration error exits before any numeric import, and each command
imports only the modules it runs.  The import checks run in fresh
interpreters, because this process has long since loaded everything.
Within numpy, a scalar run's bookkeeping calls no sort or set kernel and
builds no string array: the first call of each maps a few hundred kB of
numpy's code, for at most a handful of roots, labels or booleans.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perflow as pf
import perflow.cli as cli

SRC = Path(pf.__file__).resolve().parents[1]
NUMERIC = ("numpy", *(f"perflow.{m}" for m in ("flows", "model", "shifts", "certify", "equilibria")))
# the benchmark's set-up step: what every fresh `perflow` process pays before it computes
SETUP = "import perflow, perflow.cli; perflow.cli.build_parser()"
CLI = """
import sys
from perflow.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --help
    rc = exc.code
"""
REPORT = "\nimport json, sys; print(json.dumps([rc, sorted(sys.modules)]))"


def fresh_modules(code, *argv):
    """The exit code ``code`` binds to ``rc``, and the modules it left loaded, in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(modules)


class TestExportTable:
    NAMES = sorted(name for names in pf._EXPORTS.values() for name in names)

    def test_all_is_the_table(self):
        assert pf.__all__ == self.NAMES
        assert len(self.NAMES) == len(set(self.NAMES)) == 59
        assert "logistic_shift" in pf.__all__

    @pytest.mark.parametrize("module", sorted(pf._EXPORTS))
    def test_each_export_is_its_module_attribute(self, module):
        mod = importlib.import_module(f"perflow.{module}")
        for name in pf._EXPORTS[module]:
            assert getattr(pf, name) is getattr(mod, name)

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from perflow import *", namespace)
        assert {name: namespace[name] for name in self.NAMES} == {name: getattr(pf, name) for name in self.NAMES}

    def test_dir_lists_every_export(self):
        assert set(self.NAMES) <= set(dir(pf))

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            pf.no_such_export


class TestImportContract:
    def test_setup_loads_no_numeric_module(self):
        _, modules = fresh_modules(SETUP + "\nrc = 0")
        assert modules.isdisjoint(NUMERIC)

    def test_help_exits_0_without_numpy(self):
        rc, modules = fresh_modules(CLI, "--help")
        assert rc == 0
        assert modules.isdisjoint(NUMERIC)

    def test_export_loads_only_its_module_chain(self):
        _, modules = fresh_modules("import perflow\nperflow.bump_shift\nrc = 0")
        assert "perflow.shifts" in modules
        assert modules.isdisjoint(["perflow.flows", "perflow.certify", "perflow.equilibria"])

    def test_run_vocabulary_loads_no_numpy(self):
        code = "import perflow\nperflow.NoiseSpec.gaussian(0.1, seed=1)\nperflow.StepSchedule.constant(0.1)\nrc = 0"
        _, modules = fresh_modules(code)
        assert "perflow.config" in modules
        assert modules.isdisjoint(NUMERIC)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--h", "0"],
            ["simulate", "--flow", "bogus"],
            ["simulate", "--flow", "rgd-flow"],
            ["basins", "--flow", "prm-flow"],
            ["simulate", "--noise", "pink:3"],
            ["simulate", "--schedule", "constant"],
            ["simulate", "--shift", '{"kind": "cosine"}'],
            ["simulate", "--shift", '{"kind": bump}'],
        ],
        ids=["h-0", "flow-bogus", "flow-rgd-flow", "flow-prm-flow", "noise-pink", "schedule-constant",
             "shift-kind-unknown", "shift-not-json"],
    )
    def test_configuration_error_exits_2_without_numpy(self, tmp_path, argv):
        rc, modules = fresh_modules(CLI, *argv, "--out", str(tmp_path / "o"))
        assert rc == 2
        assert modules.isdisjoint(NUMERIC)

    def test_unknown_keys_exit_2_without_numpy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit_mode": "delta-zero", "model": "bernoulli-squared", "epsilon_cap": 0.5}))
        rc, modules = fresh_modules(CLI, "certify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 2
        assert modules.isdisjoint(NUMERIC)

    @pytest.mark.parametrize(
        "argv, unused",
        [
            # only root classification and Newton take finite differences
            (["simulate"], ("certify", "equilibria", "numerics")),
            (["equilibria"], ("certify",)),
            (["basins", "--grid", "101", "--t-end", "5"], ("certify",)),
            # commands that integrate nothing leave flows unloaded
            (["certify"], ("equilibria", "flows", "numerics")),
            (["bounds"], ("equilibria", "flows", "numerics")),
            (["align"], ("equilibria", "flows", "numerics")),
            (["repro", "fig1"], ("certify", "equilibria", "flows", "numerics")),
            (["repro", "fig2"], ("equilibria", "flows", "numerics")),
        ],
        ids=["simulate", "equilibria", "basins", "certify", "bounds", "align", "repro-fig1", "repro-fig2"],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, unused):
        rc, modules = fresh_modules(CLI, *argv, "--out", str(tmp_path))
        assert rc == 0
        assert "numpy" in modules
        assert modules.isdisjoint(f"perflow.{m}" for m in unused)


def no_sort_or_text_kernels(monkeypatch):
    """Make np.sort, argsort, unique and isin raise, and np.where refuse string values."""
    for name in ("sort", "argsort", "unique", "isin"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"np.{_name} called")

        monkeypatch.setattr(np, name, refuse)
    where = np.where

    def where_on_numbers(condition, *values):
        if any(np.asarray(v).dtype.kind in "SU" for v in values):
            raise AssertionError("np.where called on strings")
        return where(condition, *values)

    monkeypatch.setattr(np, "where", where_on_numbers)


class TestKernelContract:
    def test_building_a_clamped_polynomial_calls_no_linalg(self, monkeypatch):
        # its clamp crossings are computed by no one, so nothing finds polynomial roots
        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                def refuse(*args, _name=name, **kwargs):
                    raise AssertionError(f"np.linalg.{_name} called")

                monkeypatch.setattr(np.linalg, name, refuse)
        for coefficients in ((0.25, 0.0, 1.0), (0.2, 0.5, 0.0, 0.1)):
            shift = pf.clamped_polynomial_shift(coefficients)
            assert np.isfinite(shift.value(np.linspace(-1.0, 1.0, 5))).all() and np.isfinite(shift.derivative(0.3))

    @pytest.mark.parametrize(
        "argv",
        [
            ["basins", "--flow", "rgd"],
            ["basins", "--flow", "prm"],
            ["equilibria", "--flow", "rgd"],
            ["equilibria", "--flow", "prm"],
            ["repro", "constants"],
            ["align", "--grid", "10001"],
            ["certify", "--sweep"],
        ],
        ids=["basins-rgd", "basins-prm", "equilibria-rgd", "equilibria-prm", "repro-constants", "align",
             "certify-sweep"],
    )
    def test_scalar_run_writes_the_same_bytes_without_sort_or_text_kernels(self, monkeypatch, tmp_path, argv):
        plain, guarded = tmp_path / "plain", tmp_path / "guarded"
        assert cli.main(argv + ["--out", str(plain)]) == 0
        no_sort_or_text_kernels(monkeypatch)
        assert cli.main(argv + ["--out", str(guarded)]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in guarded.iterdir())
        for name in names:
            assert (guarded / name).read_bytes() == (plain / name).read_bytes(), name
