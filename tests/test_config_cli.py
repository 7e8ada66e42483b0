"""Configuration parsing, the command-line surface, and its file artifacts."""

import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import perflow.cli as cli
from perflow import equilibria, flows
from perflow.config import ExperimentConfig, NoiseSpec, parse_config, to_document
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
                "model": "bernoulli-squared",
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

    def test_capped_fit_without_cap_names_both_keys(self):
        with pytest.raises(ConfigError, match="fit_mode.*epsilon_cap"):
            parse_config({"fit_mode": "epsilon-capped", "epsilon_cap": None})
        assert parse_config({"fit_mode": "epsilon-capped", "epsilon_cap": 0.0}).epsilon_cap == 0.0

    def test_model_alias_forces_bump_shift(self):
        cfg = parse_config({"model": "bernoulli-phi"})
        assert cfg.model == "bernoulli-squared"
        assert cfg.shift_kind == "bump"
        with pytest.raises(ConfigError):
            parse_config({"model": "bernoulli-phi", "shift": {"kind": "logistic"}})

    def test_scalar_x0_promoted_to_vector(self):
        assert parse_config({"x0": 0.3}).x0 == (0.3,)

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
    "model": (("--model",), None, None, None),
    "shift_kind": (("--shift-kind",), None, None, None),
    "shift_params": (("--shift-params",), None, None, None),
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
        "fit_mode": (("--fit-mode",), None, None, None),
        "epsilon_cap": (("--epsilon-cap",), None, float, None),
        "sweep": (("--sweep",), 0, None, False),
        "sweep_step": (("--sweep-step",), None, float, 0.01),
    },
    "bounds": {
        "x_star": (("--x-star",), None, float, None),
        "radius": (("--r",), None, float, None),
        "grid_n": (("--grid",), None, int, None),
        "x0": (("--x0",), None, float, None),
        "theta": (("--theta",), None, float, None),
        "fit_mode": (("--fit-mode",), None, None, None),
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
            ["simulate", "--model", "bernoulli-phi", "--flow", "rgd",
             "--x0", "0.1", "--t-end", "50", "--out", str(out)]
        )
        assert code == 0
        summary = read_json(out / "summary.json")
        assert abs(summary["final_state"][0]) < 1e-4
        assert summary["terminal_status"] == "converged-to-equilibrium"
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "x_0"]
        assert float(rows[0][1]) == 0.1

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
            ["certify", "--x-star", "0", "--r", "0.4", "--grid", "4001",
             "--sweep", "--sweep-step", "0.1", "--out", str(out)]
        )
        assert code == 0
        cert = read_json(out / "certificate.json")
        assert cert["c1"] == pytest.approx(0.50, abs=0.02)
        env = read_json(out / "envelope.json")
        assert env["delta"] == 0.0
        header, rows = read_csv(out / "constants_sweep.csv")
        assert header == ["r", "c1", "c2", "c3", "c4", "feasible_radius", "valid"]
        assert len(rows) == 4
        assert rows[0][6] in ("true", "false")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--h", "0"],
            ["certify", "--sweep", "--sweep-step", "0"],
            ["certify", "--sweep", "--sweep-step", "-0.01"],
            ["certify", "--x-star", "0", "0"],
            ["bounds", "--x0", "0.1", "0.2"],
            ["certify", "--sweep", "--sweep-step", "1e-5"],
            ["certify", "--sweep", "--sweep-step", "1e-9"],
            ["certify", "--grid", "50"],
            ["bounds", "--grid", "50"],
            ["equilibria", "--grid", "2"],
            ["basins", "--grid", "2"],
            ["certify", "--r", "0.001", "--sweep", "--sweep-step", "0.01"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "gaussian:0.1", "--seed", "-1"],
            ["certify", "--fit-mode", "epsilon-capped"],
            ["bounds", "--fit-mode", "epsilon-capped"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "bernoulli:100000000000000000000", "--steps", "10"],
            ["simulate", "--flow", "discrete-rgd", "--noise", "bernoulli:1_0", "--steps", "10"],
        ],
        ids=[
            "h-0", "sweep-step-0", "sweep-step-negative", "x-star-of-two", "x0-of-two",
            "sweep-step-1e-5", "sweep-step-1e-9", "certify-grid-50", "bounds-grid-50",
            "equilibria-grid-2", "basins-grid-2", "empty-sweep", "seed-negative",
            "certify-capped-without-cap", "bounds-capped-without-cap", "bernoulli-beyond-int64",
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
            ["certify", "--sweep", "--sweep-step", "nan"],
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step, many", [("1e-300", "more than 10000"), ("1e-6", "more than 10000"), ("0.5", "0")])
    def test_sweep_length_error_counts_in_words(self, tmp_path, capsys, step, many):
        # the radius count of a tiny step has hundreds of digits: it is said in words
        argv = ["certify", "--r", "0.1", "--sweep", "--sweep-step", step, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"--sweep-step {float(step)} gives {many} radii, not 1 to 10000" in err

    def test_mistyped_shift_parameter_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["equilibria", "--shift-kind", "logistic", "--shift-params", '{"rate": "x"}',
             "--out", str(tmp_path / "o")]
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

    def test_reproduce_headline_numbers(self, tmp_path, capsys):
        load_script("reproduce_headline_numbers").run(str(tmp_path))
        assert {p.name for p in tmp_path.iterdir()} >= {"fig1.csv", "fig2.csv", "constants.json"}
        printed = capsys.readouterr().out
        assert "rgd_crossing = 0.227360" in printed
        assert "feasible_radius = 0.21" in printed

    def test_scan_basins(self, tmp_path, capsys):
        load_script("scan_basins").run(2001, 60.0, str(tmp_path))
        for flow in ("rgd", "prm"):
            assert (tmp_path / flow / "basins_summary.json").is_file()
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        for line, flow, root in zip(printed, ("rgd", "prm"), (0.227360, 0.398966)):
            assert line.startswith(f"{flow}: ") and line.endswith(f"unstable root at {root:.6f}")
            (boundary,) = json.loads(line[line.index("["):line.index("]") + 1])
            assert abs(boundary - root) <= 0.001  # one cell of the 2001-point grid
