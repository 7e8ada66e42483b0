"""Configuration parsing, the command-line surface, and its file artifacts."""

import argparse
import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import perflow.cli as cli
from perflow import config as config_mod
from perflow import equilibria, flows, shifts
from perflow.config import ExperimentConfig, NoiseSpec, build_shift, parse_config, to_document
from perflow.errors import ConfigError, NumericIntegrationError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg == ExperimentConfig()

    def test_round_trip_is_identity(self):
        cfg = parse_config(
            {
                "shift": {"kind": "logistic", "params": {"rate": 4.0, "midpoint": 0.3}},
                "domain": [-1.0, 2.0],
                "flow": "prm",
                "x0": [0.25],
                "t_end": 12.5,
                "seed": 9,
            }
        )
        again = parse_config(to_document(cfg))
        assert again == cfg

    def test_canonical_document_survives_round_trip(self):
        doc = to_document(ExperimentConfig())
        assert to_document(parse_config(doc)) == doc

    @pytest.mark.parametrize("flow", ["rgd-flow", "prm-flow", "RGD", "rgd ", ["rgd"]])
    def test_each_flow_has_one_name(self, flow):
        with pytest.raises(ConfigError) as info:
            parse_config({"flow": flow})
        assert str(info.value) == f"unknown flow kind {flow!r}; expected one of ('rgd', 'prm', 'discrete-rgd')"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"gird_n": 100})

    def test_unknown_shift_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"shift": {"kind": "bump", "extra": 1}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"h": 0.0},
            {"t_end": -1.0},
            {"grid_n": 1},
            {"theta": 1.0},
            {"domain": [1.0, -1.0]},
            {"noise": "pink:3"},
            {"schedule": "constant"},
            {"fit_mode": "affine"},
            {"model": "linear-gaussian"},
            {"x0": []},
            {"epsilon_cap": -0.5},
            {"fit_mode": "epsilon-capped"},
            {"lo": 2.0, "hi": 1.0},
            {"shift": {"kind": "logistic", "params": {"rate": "x"}}},
            {"shift": {"kind": "logistic", "params": {"rate": None}}},
            {"shift": {"kind": "logistic", "params": {"midpoint": "x"}}},
            {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": [[1]]}}},
            {"shift": {"kind": "tabulated", "params": {"knots_x": {}, "knots_p": [0, 1]}}},
            {"t_end": float("inf")},
            {"t_end": float("nan")},
            {"radius": float("nan")},
            {"eq_tol": float("nan")},
            {"h": 10**400},
            {"t_end": 1e307, "h": 1e-3},
            {"t_end": 0.015, "h": 0.01},
            {"t_end": 0.001, "h": 0.01},
            {"x0": [0.1, float("nan")]},
            {"domain": [float("-inf"), 1.0]},
            {"epsilon_cap": float("inf")},
            {"noise": "gaussian:nan"},
            {"noise": "gaussian:inf"},
            {"schedule": "inverse:0.5,nan"},
            {"schedule": "inverse:inf,10"},
            {"schedule": "constant:nan"},
            {"shift": {"kind": "logistic", "params": {"rate": float("inf")}}},
            {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": [float("nan")]}}},
            {"x0": [0.1, 0.2]},
            {"x_star": [0.0, 0.0]},
            {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": "05"}}},
            {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": [True]}}},
            {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": ["0", "1"]}}},
            {"shift": {"kind": "tabulated", "params": {"knots_x": "01", "knots_p": [0, 1]}}},
            {"shift": {"kind": "tabulated", "params": {"knots_x": [False, True], "knots_p": [0, 1]}}},
            {"shift": {"kind": "tabulated", "params": {"knots_x": [0, 1], "knots_p": ["0", "1"]}}},
            {"domain": [-1e200, 1e200]},
            {"domain": [0.0, 1e155]},
            {"domain": [-1e155, 0.0]},
        ],
    )
    def test_range_and_grammar_violations(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "spec",
        ["constant", "inverse:1", "inverse:0.5,10,3", "constant:x", "constant:0.1,2", "geometric:0.5",
         "constant:0.0_1", "inverse:0.5, 10", "constant: 0.5", "constant:\u0661"],
    )
    def test_schedule_grammar_error_names_the_grammar(self, spec):
        with pytest.raises(ConfigError) as info:
            parse_config({"schedule": spec})
        assert str(info.value) == f"invalid schedule specification {spec!r}; expected constant:A or inverse:A,B"

    @pytest.mark.parametrize(
        "spec",
        ["gaussian:abc", "bernoulli:1.5", "bernoulli:x", "gaussian", "bernoulli:", "pink:3",
         "bernoulli:1_0", "gaussian: 0.1", "gaussian:0.1\n", "bernoulli:\u0661\u0660"],
    )
    def test_noise_grammar_error_names_the_grammar(self, spec):
        with pytest.raises(ConfigError) as info:
            parse_config({"noise": spec})
        assert str(info.value) == f"invalid noise specification {spec!r}; expected none, gaussian:SIGMA or bernoulli:N"

    @pytest.mark.parametrize(
        "spec, reason",
        [("bernoulli:0", "sample size must be >= 1"), ("gaussian:-1", "noise sigma must be finite and nonnegative"),
         (f"bernoulli:{2**63}", "sample size must be <= 2**63 - 1")],
    )
    def test_noise_value_error_keeps_its_reason(self, spec, reason):
        with pytest.raises(ConfigError) as info:
            parse_config({"noise": spec})
        assert str(info.value) == f"invalid noise specification {spec!r}: {reason}"

    def test_sample_size_beyond_int64_is_refused(self):
        NoiseSpec.bernoulli_sample(2**63 - 1)
        with pytest.raises(ValueError, match=r"^sample size must be <= 2\*\*63 - 1$"):
            NoiseSpec.bernoulli_sample(2**63)

    def test_schedule_value_error_keeps_its_reason(self):
        with pytest.raises(ConfigError, match=r"'inverse:0.5,0.5': inverse schedule offset must be >= 1$"):
            parse_config({"schedule": "inverse:0.5,0.5"})

    def test_document_keys_are_the_fields(self):
        document = to_document(ExperimentConfig())
        assert set(document) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(document) == 21

    @pytest.mark.parametrize(
        "doc, keys",
        [({"model": "bernoulli-squared"}, "model"), ({"fit_mode": "epsilon-capped", "epsilon_cap": 0.5}, "fit_mode"),
         ({"model": "bernoulli-squared", "fit_mode": "delta-zero"}, "fit_mode, model")],
        ids=["model", "fit-mode", "both"],
    )
    def test_model_and_fit_mode_are_unknown_keys(self, doc, keys):
        # the one model and the fit that the cap gives are no inputs
        with pytest.raises(ConfigError, match=rf"^unknown configuration keys: {keys}$"):
            parse_config(doc)

    def test_config_and_its_documents_share_no_object(self):
        doc = {"shift": {"kind": "clamped-polynomial", "params": {"coefficients": [0.1, 0.5]}}}
        cfg = parse_config(doc)
        doc["shift"]["params"]["coefficients"].append(1.0)
        doc["shift"]["params"]["extra"] = 1
        doc["shift"]["kind"] = "bump"
        to_document(cfg)["shift"]["params"]["coefficients"].append(2.0)
        assert cfg.shift == {"kind": "clamped-polynomial", "params": {"coefficients": [0.1, 0.5]}}
        assert cfg == parse_config({"shift": {"kind": "clamped-polynomial", "params": {"coefficients": [0.1, 0.5]}}})

    def test_document_must_be_an_object(self):
        # only library callers reach this: the CLI refuses a non-object file first
        with pytest.raises(ConfigError, match=r"^configuration must be a JSON object, got list$"):
            parse_config([1])

    def test_scalar_x0_promoted_to_vector(self):
        assert parse_config({"x0": 0.3}).x0 == (0.3,)

    @pytest.mark.parametrize("kind", config_mod._SHIFT_KINDS)
    def test_shift_table_reads_each_constructor_parameter(self, kind):
        name, readers = config_mod._SHIFTS[kind]
        assert list(readers) == list(inspect.signature(getattr(shifts, name)).parameters)

    def test_left_out_shift_parameter_takes_the_constructor_default(self):
        # logistic_shift's midpoint is 0.5, where p is 1/2 at any rate
        shift = build_shift(parse_config({"shift": {"kind": "logistic", "params": {"rate": 3}}}))
        assert shift.value(0.5) == 0.5 and shift.derivative(0.5) == 0.75

    def test_shift_params_validated_per_kind(self):
        with pytest.raises(ConfigError):
            parse_config({"shift": {"kind": "bump", "params": {"rate": 1.0}}})
        with pytest.raises(ConfigError):
            parse_config({"shift": {"kind": "clamped-polynomial", "params": {}}})
        with pytest.raises(ConfigError):
            parse_config({"shift": {"kind": "logistic", "params": {"rate": -1.0}}})


def reference_cell(value):
    # the per-value rule the column writer must reproduce byte for byte
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


class TestCsvWriter:
    SPECIAL = [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 0.1]

    # 3 * 1024 + 7: several whole chunks, then a ragged one
    @pytest.mark.parametrize("rows", [0, 1, 1024, 1025, 3 * 1024 + 7])
    def test_matches_per_value_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
        floats[: len(self.SPECIAL)] = self.SPECIAL[:rows]
        ints = rng.integers(-(2**40), 2**40, size=rows)
        bools = rng.random(rows) < 0.5
        header = ["x", "special", "label", "holds"]
        columns = [floats, np.resize(self.SPECIAL, rows), ints, bools]
        cli._write_csv(tmp_path / "t.csv", header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(reference_cell(v) for v in row) + "\n" for row in zip(*columns)
        )
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_single_column(self, tmp_path):
        floats = np.random.default_rng(5).normal(size=2 * 1024 + 3)
        cli._write_csv(tmp_path / "t.csv", ["x"], [floats])
        expected = "x\n" + "".join(reference_cell(v) + "\n" for v in floats)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


_COMMON_FLAGS = {
    "config": (("--config",), None, None, None),
    "out": (("--out",), None, None, None),
    "shift": (("--shift",), None, json.loads, None),
    "domain": (("--domain",), 2, float, None),
}

# dest -> (option strings, nargs, type, default) of each subcommand; help text is not pinned
CLI_SURFACE = {
    "simulate": {
        "flow": (("--flow",), None, None, None),
        "x0": (("--x0",), None, float, None),
        "t_end": (("--t-end",), None, float, None),
        "h": (("--h",), None, float, None),
        "eq_tol": (("--eq-tol",), None, float, None),
        "steps": (("--steps",), None, int, None),
        "schedule": (("--schedule",), None, None, None),
        "noise": (("--noise",), None, None, None),
        "seed": (("--seed",), None, int, None),
    },
    "basins": {
        "flow": (("--flow",), None, None, None),
        "grid_n": (("--grid",), None, int, None),
        "t_end": (("--t-end",), None, float, None),
        "h": (("--h",), None, float, None),
        "eq_tol": (("--eq-tol",), None, float, None),
        "match_radius": (("--match-radius",), None, float, None),
        "refine_tol": (("--refine-tol",), None, float, None),
    },
    "equilibria": {
        "flow": (("--flow",), None, None, None),
        "grid_n": (("--grid",), None, int, None),
        "refine_tol": (("--refine-tol",), None, float, None),
    },
    "certify": {
        "x_star": (("--x-star",), None, float, None),
        "radius": (("--r",), None, float, None),
        "grid_n": (("--grid",), None, int, None),
        "epsilon_cap": (("--epsilon-cap",), None, float, None),
        "sweep": (("--sweep",), 0, None, False),
    },
    "bounds": {
        "x_star": (("--x-star",), None, float, None),
        "radius": (("--r",), None, float, None),
        "grid_n": (("--grid",), None, int, None),
        "x0": (("--x0",), None, float, None),
        "theta": (("--theta",), None, float, None),
        "epsilon_cap": (("--epsilon-cap",), None, float, None),
    },
    "align": {
        "lo": (("--lo",), None, float, None),
        "hi": (("--hi",), None, float, None),
        "grid_n": (("--grid",), None, int, None),
    },
    "repro": {},
}


class TestCliSurface:
    """Every subcommand keeps its flags: spelling, destination, arity, type, default."""

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_subcommands(self):
        assert list(self.subparsers()) == list(CLI_SURFACE)

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_options(self, command):
        actions = [
            a for a in self.subparsers()[command]._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        found = {a.dest: (tuple(a.option_strings), a.nargs, a.type, a.default) for a in actions}
        assert len(found) == len(actions)
        assert found == {**_COMMON_FLAGS, **CLI_SURFACE[command]}

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_positionals(self, command):
        positionals = [
            (a.dest, a.nargs, a.type, a.choices)
            for a in self.subparsers()[command]._actions if not a.option_strings
        ]
        expected = [("target", None, None, ["fig1", "fig2", "constants"])] if command == "repro" else []
        assert positionals == expected


class TestCliCommands:
    def test_simulate_rgd_reaches_zero(self, tmp_path):
        out = tmp_path / "sim"
        code = cli.main(
            ["simulate", "--flow", "rgd", "--x0", "0.1", "--t-end", "50", "--out", str(out)]
        )
        assert code == 0
        summary = read_json(out / "summary.json")
        assert abs(summary["final_state"][0]) < 1e-4
        assert summary["terminal_status"] == "converged-to-equilibrium"
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "x_0"]
        assert float(rows[0][1]) == 0.1

    @pytest.mark.parametrize("flow", ["rgd", "prm", "discrete-rgd"])
    def test_summary_names_the_flow_and_reparses_to_the_run(self, tmp_path, flow):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--flow", flow, "--t-end", "1", "--steps", "10", "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["kind"] == summary["config"]["flow"] == flow
        assert parse_config(summary["config"]) == parse_config({"flow": flow, "t_end": 1.0, "steps": 10})

    @pytest.mark.parametrize("flow", ["rgd", "prm"])
    def test_basins_artifacts_name_the_flow(self, tmp_path, flow):
        out = tmp_path / "bas"
        assert cli.main(["basins", "--flow", flow, "--grid", "101", "--out", str(out)]) == 0
        document = read_json(out / "equilibria.json")
        assert document["field_kind"] == read_json(out / "basins_summary.json")["field_kind"] == flow
        assert {e["field_kind"] for e in document["equilibria"]} == {flow}

    def test_simulate_from_equilibrium_is_constant(self, tmp_path):
        out = tmp_path / "sim0"
        assert cli.main(["simulate", "--x0", "0.0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_discrete_run_is_byte_reproducible(self, tmp_path):
        out = tmp_path / "disc"
        argv = [
            "simulate", "--flow", "discrete-rgd", "--noise", "bernoulli:100",
            "--seed", "7", "--steps", "2000", "--schedule", "inverse:0.5,10",
            "--x0", "0.8", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        first_csv = (out / "trajectory.csv").read_bytes()
        first_json = (out / "summary.json").read_bytes()
        assert cli.main(argv) == 0
        assert (out / "trajectory.csv").read_bytes() == first_csv
        assert (out / "summary.json").read_bytes() == first_json

    def test_artifacts_do_not_depend_on_the_output_directory(self, tmp_path):
        argv = ["simulate", "--flow", "prm", "--x0", "0.39", "--t-end", "5"]
        short, long = tmp_path / "a", tmp_path / "a_much_longer_directory_name"
        assert cli.main(argv + ["--out", str(short)]) == 0
        assert cli.main(argv + ["--out", str(long)]) == 0
        names = sorted(p.name for p in short.iterdir())
        assert names == sorted(p.name for p in long.iterdir()) == ["summary.json", "trajectory.csv"]
        for name in names:
            assert (short / name).read_bytes() == (long / name).read_bytes(), name

    def test_basins_boundary_near_crossing(self, tmp_path):
        out = tmp_path / "bas"
        assert cli.main(["basins", "--flow", "rgd", "--grid", "401", "--out", str(out)]) == 0
        summary = read_json(out / "basins_summary.json")
        boundaries = [b["boundary"] for b in summary["boundaries"]]
        assert any(abs(b - 0.2274) < 2.0 / 400 for b in boundaries)
        header, rows = read_csv(out / "basins.csv")
        assert header == ["x_0", "label"]
        assert len(rows) == 401

    # on the README domain every start reaches a root; on [0.1, 1.5] the starts
    # below the unstable root 0.227 leave through the lower edge.  Scalar
    # labels are the flow's limits, so the short horizon moves none of them
    @pytest.mark.parametrize("t_end, domain", [("60", []), ("0.5", ["--domain", "0.1", "1.5"])], ids=["60", "0.5"])
    def test_label_counts_are_the_label_histogram(self, tmp_path, t_end, domain):
        out = tmp_path / "bas"
        assert cli.main(["basins", "--grid", "401", "--t-end", t_end, *domain, "--out", str(out)]) == 0
        labels = np.array([int(r[1]) for r in read_csv(out / "basins.csv")[1]])
        values, counts = np.unique(labels, return_counts=True)
        label_counts = read_json(out / "basins_summary.json")["label_counts"]
        assert label_counts == {str(v): int(c) for v, c in zip(values, counts)}
        assert ("-1" in label_counts) == (t_end == "0.5")

    def test_scan_without_roots_counts_every_start_divergent(self, tmp_path):
        # p == 0.5 has its only root outside [0.6, 1]
        out = tmp_path / "bas"
        argv = ["basins", "--grid", "41", "--domain", "0.6", "1", "--out", str(out),
                "--shift", '{"kind": "clamped-polynomial", "params": {"coefficients": [0.5]}}']
        assert cli.main(argv) == 0
        assert read_json(out / "basins_summary.json")["label_counts"] == {"-1": 41}

    def test_equilibria_lists_three_roots(self, tmp_path):
        out = tmp_path / "eq"
        assert cli.main(["equilibria", "--flow", "prm", "--out", str(out)]) == 0
        doc = read_json(out / "equilibria.json")
        locs = sorted(e["location"][0] for e in doc["equilibria"])
        assert len(locs) == 3
        assert locs[1] == pytest.approx(0.40, abs=0.005)

    def test_certify_and_sweep_artifacts(self, tmp_path):
        out = tmp_path / "cert"
        code = cli.main(
            ["certify", "--x-star", "0", "--r", "0.4", "--grid", "4001", "--sweep", "--out", str(out)]
        )
        assert code == 0
        cert = read_json(out / "certificate.json")
        assert cert["c1"] == pytest.approx(0.50, abs=0.02)
        env = read_json(out / "envelope.json")
        assert env["delta"] == 0.0
        header, rows = read_csv(out / "constants_sweep.csv")
        assert header == ["r", "c1", "c2", "c3", "c4", "feasible_radius", "valid"]
        # radii 0.01, 0.02, ..., 0.4
        assert len(rows) == 40
        assert [float(rows[0][0]), float(rows[-1][0])] == pytest.approx([0.01, 0.4], abs=1e-12)
        assert rows[0][6] in ("true", "false")

    def test_sweep_row_without_feasible_radius_reads_nan(self, tmp_path):
        # PR(1) = PR(0) = 0 on the bump, so c1 = 0 at r = 1 and feasible_radius refuses that row
        out = tmp_path / "cert"
        assert cli.main(["certify", "--x-star", "0", "--r", "1.0", "--sweep", "--out", str(out)]) == 0
        header, rows = read_csv(out / "constants_sweep.csv")
        last = dict(zip(header, rows[-1]))
        assert (float(last["r"]), last["c1"], last["feasible_radius"], last["valid"]) == (1.0, "0", "nan", "false")

    def test_bounds_reports_flags_and_tradeoff(self, tmp_path):
        out = tmp_path / "bnd"
        code = cli.main(
            ["bounds", "--x-star", "0", "--r", "0.05", "--grid", "2001",
             "--x0", "0.02", "--theta", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = read_json(out / "bounds.json")
        assert doc["report"]["admissible"] is True
        assert doc["report"]["ultimate_radius"] == 0.0
        assert len(doc["theta_tradeoff"]) == 19

    def test_align_reports_failing_region(self, tmp_path):
        out = tmp_path / "al"
        assert cli.main(["align", "--lo", "0", "--hi", "1", "--grid", "2001", "--out", str(out)]) == 0
        doc = read_json(out / "alignment.json")
        assert 0.0 < doc["fraction_holding"] < 1.0
        header, rows = read_csv(out / "alignment.csv")
        assert header == ["x", "lhs", "rhs", "holds"]
        assert {r[3] for r in rows} == {"true", "false"}

    def test_repro_constants(self, tmp_path):
        out = tmp_path / "rc"
        assert cli.main(["repro", "constants", "--out", str(out)]) == 0
        doc = read_json(out / "constants.json")
        assert doc["rgd_crossing"] == pytest.approx(0.23, abs=0.005)
        assert doc["prm_crossing"] == pytest.approx(0.40, abs=0.005)
        assert doc["c1"] == pytest.approx(0.50, abs=0.02)
        assert doc["c2"] == pytest.approx(1.78, abs=0.03)
        assert doc["feasible_radius"] == pytest.approx(0.21, abs=0.01)

    def test_repro_fig1_row_at_origin(self, tmp_path):
        out = tmp_path / "f1"
        assert cli.main(["repro", "fig1", "--out", str(out)]) == 0
        header, rows = read_csv(out / "fig1.csv")
        assert header == ["x", "p", "p_prime", "pr", "pr_grad", "grad_x1"]
        assert len(rows) == 2001
        at_zero = [r for r in rows if float(r[0]) == 0.0][0]
        assert float(at_zero[1]) == 0.0 and float(at_zero[2]) == 0.0 and float(at_zero[3]) == 0.0

    def test_repro_fig2_row_at_headline_radius(self, tmp_path):
        out = tmp_path / "f2"
        assert cli.main(["repro", "fig2", "--out", str(out)]) == 0
        header, rows = read_csv(out / "fig2.csv")
        assert header == ["r", "c1", "c2", "c3", "c4", "feasible_radius", "valid"]
        at_04 = [r for r in rows if abs(float(r[0]) - 0.40) < 1e-9][0]
        assert float(at_04[1]) == pytest.approx(0.50, abs=0.02)
        assert float(at_04[2]) == pytest.approx(1.78, abs=0.03)

    def test_repro_is_byte_reproducible(self, tmp_path):
        out = tmp_path / "rr"
        assert cli.main(["repro", "constants", "--out", str(out)]) == 0
        first = (out / "constants.json").read_bytes()
        assert cli.main(["repro", "constants", "--out", str(out)]) == 0
        assert (out / "constants.json").read_bytes() == first


# the configuration of a simulate summary.json written while documents named the model and the fit
SUMMARY_CONFIG_WITH_MODEL_AND_FIT = {
    "domain": [-0.5, 1.5], "epsilon_cap": None, "eq_tol": 1e-09, "fit_mode": "delta-zero", "flow": "rgd",
    "grid_n": 2001, "h": 0.01, "hi": 1.0, "lo": 0.0, "match_radius": 0.001, "model": "bernoulli-squared",
    "noise": "none", "radius": 0.4, "refine_tol": 1e-10, "schedule": "constant:0.01", "seed": 0,
    "shift": {"kind": "bump", "params": {}}, "steps": 5000, "t_end": 50.0, "theta": 0.5, "x0": [0.1],
    "x_star": [0.0],
}


class TestCliErrors:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"grids": 100}')
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("number", ["-1e-3", "-.25", "-2.5E-1", "-0.25"])
    def test_negative_number_after_a_flag_is_a_value(self, tmp_path, number):
        # argparse alone reads only the "-1" and "-0.25" forms as numbers
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert cli.main(["simulate", "--x0", number, "--t-end", "1", "--out", str(spaced)]) == 0
        assert cli.main(["simulate", f"--x0={number}", "--t-end", "1", "--out", str(joined)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes(), name
        assert read_json(spaced / "summary.json")["config"]["x0"] == [float(number)]

    def test_widest_domain_parses_after_the_flag(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--domain", "-1e154", "1e154", "--x0", "0.1", "--out", str(out)]) == 0
        assert read_json(out / "summary.json")["config"]["domain"] == [-1e154, 1e154]

    @pytest.mark.parametrize("command", ["certify", "bounds"])
    def test_cap_alone_picks_the_capped_fit(self, tmp_path, command):
        # a saved uncapped document whose cap the flag replaces writes the bytes of the flag alone
        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(to_document(ExperimentConfig())))
        spellings = {"flag": ["--epsilon-cap", "0.5"], "saved": ["--config", str(saved), "--epsilon-cap", "0.5"]}
        for name, flags in spellings.items():
            assert cli.main([command, *flags, "--out", str(tmp_path / name)]) == 0, name
        flag, other = tmp_path / "flag", tmp_path / "saved"
        names = sorted(p.name for p in flag.iterdir())
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (other / name).read_bytes() == (flag / name).read_bytes(), name
        if command == "certify":
            assert read_json(flag / "envelope.json")["fit_mode"] == "epsilon-capped"

    @pytest.mark.parametrize(
        "argv",
        [["certify", "--fit-mode", "epsilon-capped"], ["bounds", "--fit-mode", "delta-zero"],
         ["simulate", "--model", "bernoulli-squared"], ["certify", "--sweep-step", "0.1"],
         ["equilibria", "--shift-kind", "bump"], ["basins", "--shift-params", '{"rate": 3}']],
        ids=["certify-fit-mode", "bounds-fit-mode", "simulate-model", "certify-sweep-step", "shift-kind",
             "shift-params"],
    )
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: unrecognized arguments: {' '.join(argv[1:])}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, flags, keys",
        [
            (SUMMARY_CONFIG_WITH_MODEL_AND_FIT, [], "fit_mode, model"),
            ({"model": "bernoulli-squared"}, [], "model"),
            # a cap flag does not drop a fit that its file names
            ({"fit_mode": "delta-zero"}, ["--epsilon-cap", "0.5"], "fit_mode"),
        ],
        ids=["summary-naming-model-and-fit", "model", "fit-under-cap-flag"],
    )
    def test_document_naming_model_or_fit_exits_2(self, tmp_path, capsys, document, flags, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        out = tmp_path / "o"
        assert cli.main(["certify", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: unknown configuration keys: {keys}\n"
        assert not out.exists()

    def test_summary_without_model_and_fit_reruns_to_itself(self, tmp_path):
        document = {k: v for k, v in SUMMARY_CONFIG_WITH_MODEL_AND_FIT.items() if k not in ("model", "fit_mode")}
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps(document))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_json(out / "summary.json")["config"] == document

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--h", "0"],
            ["certify", "--x-star", "0", "0"],
            ["bounds", "--x0", "0.1", "0.2"],
            ["certify", "--grid", "50"],
            ["bounds", "--grid", "50"],
            ["equilibria", "--grid", "2"],
            ["basins", "--grid", "2"],
            ["certify", "--r", "0.001", "--sweep"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "gaussian:0.1", "--seed", "-1"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "bernoulli:100000000000000000000", "--steps", "10"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "bernoulli:1_0", "--steps", "10"],
        ],
        ids=[
            "h-0", "x-star-of-two", "x0-of-two", "certify-grid-50", "bounds-grid-50",
            "equilibria-grid-2", "basins-grid-2", "empty-sweep", "seed-negative", "bernoulli-beyond-int64",
            "bernoulli-digit-separator",
        ],
    )
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--x0", "9"],
            ["align", "--lo", "-5", "--hi", "5"],
            ["certify", "--x-star", "5"],
            ["bounds", "--x-star", "5"],
            ["bounds", "--x0", "9"],
        ],
        ids=["simulate-x0", "align-interval", "certify-x-star", "bounds-x-star", "bounds-x0"],
    )
    def test_point_outside_the_domain_exits_3(self, tmp_path, capsys, argv):
        # the built-in domain is [-0.5, 1.5]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error") and "outside domain" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["1e-160", "1e-155"])
    def test_radius_with_subnormal_squared_distances_exits_3(self, tmp_path, capsys, radius):
        out = tmp_path / "o"
        assert cli.main(["certify", "--r", radius, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error") and f"radius {float(radius)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("bound", [1e200, 1e155])
    def test_domain_with_overflowing_squares_exits_2(self, tmp_path, capsys, bound):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": [-bound, bound]}))
        out = tmp_path / "o"
        assert cli.main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 2
        assert "domain bounds must have finite squares" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[c, "--flow", f] for c in ("equilibria", "basins") for f in ("rgd", "prm")])
    def test_widest_domain_runs_without_overflow(self, tmp_path, argv):
        # 1e154 squared is finite; a RuntimeWarning (overflow) fails the suite
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": [-1e154, 1e154]}))
        assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("argv", [[c, "--flow", f] for c in ("equilibria", "basins") for f in ("rgd", "prm")])
    def test_cubic_shift_on_the_widest_domain_runs_without_overflow(self, tmp_path, argv):
        # 0.1 x^3 overflows far out; the shift reads that as its plateau without a RuntimeWarning
        shift = {"kind": "clamped-polynomial", "params": {"coefficients": [0.2, 0.5, 0, 0.1]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": [-1e154, 1e154], "shift": shift}))
        assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("flow,root", [("rgd", 0.97875), ("prm", -0.0423)])
    def test_wide_domain_reports_the_bisected_root(self, tmp_path, flow, root):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": [-1e100, 1e100], "shift": {"kind": "logistic", "params": {}}}))
        out = tmp_path / "o"
        assert cli.main(["equilibria", "--flow", flow, "--config", str(cfg), "--out", str(out)]) == 0
        [report] = read_json(out / "equilibria.json")["equilibria"]
        assert report["location"][0] == pytest.approx(root, abs=1e-4)
        assert report["residual"] <= 1e-10

    def test_point_outside_the_domain_is_spelled_in_plain_numbers(self, tmp_path, capsys):
        assert cli.main(["simulate", "--x0", "2", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "numeric error: state [2.0] outside domain box [[-0.5], [1.5]]\n"

    @pytest.mark.parametrize("command", ["basins", "equilibria"])
    def test_discrete_flow_runs_only_in_simulate(self, tmp_path, capsys, command):
        # the recursion has no field of its own; these commands scan rgd or prm
        out = tmp_path / "o"
        assert cli.main([command, "--flow", "discrete-rgd", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "take rgd or prm" in err
        assert not out.exists()

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericIntegrationError("synthetic blow-up")

        monkeypatch.setattr(flows, "integrate_flow", boom)
        assert cli.main(["simulate", "--x0", "0.1", "--out", str(tmp_path / "o")]) == 3

    def test_allocation_failure_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(equilibria, "find_equilibria", no_memory)
        out = tmp_path / "o"
        assert cli.main(["repro", "constants", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error") and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": [0.4], "t_end": 1.0, "out": str(tmp_path / "a")}))
        out = tmp_path / "b"
        code = cli.main(
            ["simulate", "--config", str(cfg), "--x0", "0.0", "--out", str(out)]
        )
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["final_state"] == [0.0]
        assert summary["config"]["t_end"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["basins", "--t-end", "inf"],
            ["simulate", "--flow", "discrete-rgd", "--schedule", "inverse:0.5,nan"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "gaussian:nan"],
            ["simulate", "--flow", "discrete-rgd", "--eq-tol", "nan"],
            ["simulate", "--t-end", "1e307", "--h", "1e-3"],
            ["basins", "--t-end", "1e307", "--h", "1e-3", "--grid", "11"],
            ["certify", "--sweep", "--r", "inf"],
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "radius, many",
        [("1e308", "more than 10000"), ("1e300", "more than 10000"), ("100.01", "more than 10000"), ("0.005", "0"),
         ("0.001", "0")],
    )
    def test_sweep_length_error_counts_in_words(self, tmp_path, capsys, radius, many):
        # a count past the limit is said in words: for --r 1e308 it is not even finite
        argv = ["certify", "--r", radius, "--sweep", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --r {float(radius)} gives {many} radii at step 0.01, not 1 to 10000\n"

    def test_radius_beyond_the_sweep_limit_runs_without_sweep(self, tmp_path):
        # only --sweep counts radii; 1e308 / 0.01 is not a finite count
        out = tmp_path / "o"
        assert cli.main(["certify", "--r", "1e308", "--out", str(out)]) == 0
        assert read_json(out / "certificate.json")["radius"] == 1e308

    # DOC, when given, is the --config file; {tmp} is the test's directory
    @pytest.mark.parametrize(
        "argv, doc, code, message",
        [
            ([], {"seed": 1.5}, 2, "configuration error: seed must be an integer, got 1.5"),
            (["--shift", '{"kind": "cosine"}'], None, 2,
             "configuration error: unknown shift kind 'cosine'; "
             "expected one of ('bump', 'logistic', 'clamped-polynomial', 'tabulated')"),
            (["--shift", '{"kind": "bump", "params": [1]}'], None, 2, "configuration error: shift.params must be an object"),
            ([], {"domain": [1]}, 2, "configuration error: domain must be [lo, hi], got [1]"),
            (["--flow", "bogus"], None, 2,
             "configuration error: unknown flow kind 'bogus'; expected one of ('rgd', 'prm', 'discrete-rgd')"),
            ([], {"flow": "prm-flow"}, 2,
             "configuration error: unknown flow kind 'prm-flow'; expected one of ('rgd', 'prm', 'discrete-rgd')"),
            (["--eq-tol", "-1e-3"], None, 2, "configuration error: eq_tol must be nonnegative, got -0.001"),
            (["--out", ""], None, 2, "configuration error: out must be a non-empty path string, got ''"),
            (["--shift", '{"kind": "logistic", "params": {"slope": 1}}'], None, 2,
             "configuration error: logistic shift takes (rate=8.0, midpoint=0.5), got ['slope']"),
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [0, 1]}}'], None, 2,
             "configuration error: tabulated shift takes (knots_x, knots_p), got ['knots_x']"),
            ([], {"noise": 3}, 2, "configuration error: noise must be a string, got 3"),
            ([], {"schedule": 0.01}, 2, "configuration error: schedule must be a string, got 0.01"),
            ([], [1], 2, "configuration error: configuration file must hold a JSON object"),
            (["--out", "{tmp}/file/o"], None, 3, "i/o error: [Errno 20] Not a directory: '{tmp}/file/o'"),
            # one bad value per single-number key, in the order parse_config checks them
            (["--t-end", "0"], None, 2, "configuration error: t_end must be positive, got 0.0"),
            (["--h", "-0.01"], None, 2, "configuration error: h must be positive, got -0.01"),
            ([], {"match_radius": 0}, 2, "configuration error: match_radius must be positive, got 0.0"),
            ([], {"refine_tol": -1e-10}, 2, "configuration error: refine_tol must be positive, got -1e-10"),
            ([], {"radius": -0.4}, 2, "configuration error: radius must be positive, got -0.4"),
            ([], {"grid_n": 1}, 2, "configuration error: grid_n must be at least 2, got 1"),
            ([], {"theta": 1}, 2, "configuration error: theta must lie strictly inside (0, 1), got 1.0"),
            (["--seed", "-1"], None, 2, "configuration error: seed must be nonnegative, got -1"),
            (["--steps", "-5"], None, 2, "configuration error: steps must be nonnegative, got -5"),
            # shift parameters whose p or p' is not finite, refused before numpy can warn
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [-1e150, 1e150], "knots_p": [0, 1]}}'],
             None, 2, "configuration error: invalid shift parameters: the interpolant is not finite at every knot"),
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [0, 1e-300, 1], "knots_p": [0, 0.5, 1]}}'],
             None, 2, "configuration error: invalid shift parameters: the interpolant is not finite at every knot"),
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [0, 1e-310], "knots_p": [0, 1]}}'],
             None, 2, "configuration error: invalid shift parameters: "
             "knots too close: a secant slope diff(knots_p) / diff(knots_x) is not finite"),
            # PCHIP's knot derivatives overflow from finite secants: an inf - inf, and an overflow alone
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [-1e-312, 1e-176, 1e308], '
                         '"knots_p": [0.2, 0.6, 0.7]}}'], None, 2, "configuration error: invalid shift parameters: "
             "knots too close or too far apart: a derivative at a knot is not finite"),
            (["--shift", '{"kind": "tabulated", "params": {"knots_x": [0, 1e-308, 2], "knots_p": [0, 1, 1]}}'],
             None, 2, "configuration error: invalid shift parameters: "
             "knots too close or too far apart: a derivative at a knot is not finite"),
            (["--shift", '{"kind": "logistic", "params": {"midpoint": 1e308}}'], None, 2,
             "configuration error: invalid shift parameters: p or p' overflows at an end of the domain [-0.5, 1.5]"),
            (["--shift", '{"kind": "clamped-polynomial", "params": {"coefficients": [0, 1e308, 1e308]}}'],
             None, 2, "configuration error: invalid shift parameters: "
             "polynomial derivative coefficients must be finite, got [1e+308, inf]"),
        ],
        ids=["seed-not-integer", "shift-kind-unknown", "shift-params-not-object", "domain-of-one",
             "flow-bogus", "flow-prm-flow", "eq-tol-negative", "out-empty", "logistic-parameter-unknown", "tabulated-without-knots-p",
             "noise-not-string", "schedule-not-string", "config-file-list",
             "out-below-a-file", "t-end-zero", "h-negative", "match-radius-zero", "refine-tol-negative",
             "radius-negative", "grid-n-one", "theta-one", "seed-negative", "steps-negative",
             "tabulated-knots-too-far-apart", "tabulated-knots-too-close", "tabulated-secant-overflow",
             "tabulated-knot-derivative-invalid", "tabulated-knot-derivative-overflow",
             "logistic-overflowing-midpoint",
             "polynomial-overflowing-slopes"],
    )
    def test_refusal_exit_code_and_message(self, tmp_path, capsys, argv, doc, code, message):
        (tmp_path / "file").write_text("")
        argv = ["simulate", "--t-end", "1", *(a.replace("{tmp}", str(tmp_path)) for a in argv)]
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp_path / "cfg.json")]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == message.replace("{tmp}", str(tmp_path)) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"][doc is None:]

    def test_malformed_shift_is_refused_by_the_parser(self, tmp_path, capsys):
        # --shift is typed as JSON, as --grid is typed as an integer
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--shift", "{", "--out", str(out)])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "perflow simulate: error: argument --shift: invalid loads value: '{'"
        assert not out.exists()

    def test_shift_flag_replaces_the_files_shift_whole(self, tmp_path):
        # the file's logistic parameters do not reach the bump that the flag names
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shift": {"kind": "logistic", "params": {"rate": 3}}}))
        flag, plain = tmp_path / "flag", tmp_path / "plain"
        assert cli.main(["equilibria", "--config", str(cfg), "--shift", '{"kind": "bump"}', "--out", str(flag)]) == 0
        assert cli.main(["equilibria", "--out", str(plain)]) == 0
        assert (flag / "equilibria.json").read_bytes() == (plain / "equilibria.json").read_bytes()

    def test_mistyped_shift_parameter_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["equilibria", "--shift", '{"kind": "logistic", "params": {"rate": "x"}}', "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    """The scripts under ``scripts/`` run end to end on their default settings."""

    def test_count_code_lines(self):
        source = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


def f(x):
    """Function docstring."""
    label = """not a docstring:
    counted"""
    return math.hypot(
        x,

        1.0,
    )
'''
        # import, def, the label's two lines, and the four lines of the return statement with code
        assert load_script("count_code_lines").count_code_lines(source) == 8

    def test_count_code_lines_prints_each_module_and_the_total(self, capsys):
        total = load_script("count_code_lines").main()
        *modules, last = capsys.readouterr().out.splitlines()
        assert last == f"total {total}"
        assert sum(int(line.split()[1]) for line in modules) == total
        assert {line.split()[0] for line in modules} >= {"cli.py", "config.py", "__init__.py"}
