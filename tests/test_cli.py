import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

import gexpect
from gexpect import (
    GeneratorPair,
    VolatilityBand,
    check_g_convexity,
    parse_scalar,
    parse_tri,
    reduce_over_A,
    solve_g_heat,
    solve_gbsde,
)
from gexpect.cli import _COMMANDS, COMMANDS, ConfigError, ExperimentConfig, _write_rows, main, run


def base_config(**overrides):
    config = {
        "schema_version": 1,
        "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
        "grid": {"horizon": 1.0, "half_width": 8.5, "nx": 201},
        "functions": {"phi": "x^2"},
        "params": {"times": [1.0]},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestGexpCommand:
    def test_happy_path(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("gexp", path, out) == 0
        report = json.loads((out / "gexp.report.json").read_text())
        assert report["status"] == "ok"
        value = report["results"]["values_at_zero"]["1"]
        assert value == pytest.approx(2.0, abs=1e-2)
        header = (out / "gexp.data.csv").read_text().splitlines()[0]
        assert header == "t,x,u"

    def test_report_config_echo_reparses(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("gexp", path, out) == 0
        report = json.loads((out / "gexp.report.json").read_text())
        echoed = ExperimentConfig("gexp", report["config"])
        assert echoed.band.sigma_max_sq == 2.0
        assert echoed.grid.nx == 201

    def test_deterministic_csv(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("gexp", path, out1) == 0
        assert run("gexp", path, out2) == 0
        assert (out1 / "gexp.data.csv").read_bytes() == (out2 / "gexp.data.csv").read_bytes()


class TestCsvTimeLabels:
    # t = 0.3 falls between layers (dt = 1/616); rows come from the nearest layer
    def test_gexp_rows_carry_the_layer_time(self, tmp_path):
        config = base_config(functions={"phi": "tanh(x)"}, params={"times": [0.3]})
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, config), out) == 0
        cfg = ExperimentConfig("gexp", config)
        field = solve_g_heat(cfg.band, cfg.functions["phi"], cfg.grid)
        k = int(round(field.layer_of(0.3)))
        assert field.times[k] != 0.3
        rows = [line.split(",") for line in (out / "gexp.data.csv").read_text().splitlines()[1:]]
        assert {float(r[0]) for r in rows} == {float(field.times[k])}
        assert [float(r[2]) for r in rows] == field.u[k].tolist()

    def test_gbsde_rows_carry_the_layer_time(self, tmp_path):
        config = base_config(
            generator={"g": "-y", "f": "0", "lipschitz_L": 1.0},
            functions={"terminal": "tanh(x)"},
            params={"times": [0.3]},
        )
        out = tmp_path / "out"
        assert run("gbsde", write_config(tmp_path, config), out) == 0
        cfg = ExperimentConfig("gbsde", config)
        sol = solve_gbsde(cfg.band, cfg.generator, cfg.functions["terminal"], cfg.grid)
        k = int(round(sol.field.layer_of(0.3)))
        assert sol.field.times[k] != 0.3
        rows = [line.split(",") for line in (out / "gbsde.data.csv").read_text().splitlines()[1:]]
        assert {float(r[0]) for r in rows} == {float(sol.field.times[k])}
        assert [float(r[2]) for r in rows] == sol.field.u[k].tolist()


class TestSeedKey:
    def test_seed_type_checked(self):
        # the key is gone, so a seed of any type is refused by name as an unknown field
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("gexp", base_config(seed="x"))
        assert info.value.field == "config.seed"
        assert str(info.value) == "config error at config.seed: unknown field"


class TestConfigErrors:
    def test_malformed_expression_names_field(self, tmp_path, capsys):
        config = base_config(functions={"phi": "2*"})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("gexp", path, out) == 1
        assert "config.functions.phi" in capsys.readouterr().err
        assert not (out / "gexp.report.json").exists()
        assert not (out / "gexp.data.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = base_config(extra_knob=3)
        path = write_config(tmp_path, config)
        assert run("gexp", path, tmp_path / "out") == 1
        assert "config.extra_knob" in capsys.readouterr().err

    def test_seed_and_threads_are_unknown_fields(self, tmp_path, capsys):
        # schema v1 accepted both and nothing read them; a config that carries one is refused like any other key
        for key, value in (("seed", 5), ("threads", 4)):
            out = tmp_path / key
            assert run("gexp", write_config(tmp_path, base_config(**{key: value})), out) == 1
            assert f"config error at config.{key}: unknown field" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_band_named(self, tmp_path, capsys):
        config = base_config(band={"sigma_min_sq": 2.0, "sigma_max_sq": 1.0})
        path = write_config(tmp_path, config)
        assert run("gexp", path, tmp_path / "out") == 1
        assert "config.band" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        config = base_config(schema_version=9)
        path = write_config(tmp_path, config)
        assert run("gexp", path, tmp_path / "out") == 1
        assert "schema_version" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("gexp", tmp_path / "nope.json", tmp_path / "out") == 1

    def test_times_take_the_library_interval_rule(self, tmp_path, capsys):
        # g_expectation accepts a time up to 1e-12 past the horizon, and so does the CLI
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(params={"times": [1.0 + 5e-13]})), out) == 0
        assert json.loads((out / "gexp.report.json").read_text())["status"] == "ok"
        late = tmp_path / "late"
        assert run("gexp", write_config(tmp_path, base_config(params={"times": [1.0 + 1e-9]})), late) == 1
        assert "config error at config.params.times: need 0 <= s <= t <= horizon" in capsys.readouterr().err
        assert not (late / "gexp.report.json").exists()

    def test_missing_param_named(self, tmp_path, capsys):
        config = base_config(params={})
        path = write_config(tmp_path, config)
        assert run("gexp", path, tmp_path / "out") == 1
        assert "config.params.times" in capsys.readouterr().err


class TestNumericalFailure:
    def test_unstable_grid_is_config_error(self, tmp_path, capsys):
        # CFL problems with an explicit nt are caught at validation: exit 1
        config = base_config(grid={"horizon": 1.0, "half_width": 8.5, "nx": 201, "nt": 5})
        path = write_config(tmp_path, config)
        assert run("gexp", path, tmp_path / "out") == 1
        assert "config.grid" in capsys.readouterr().err

    def test_runtime_non_finite_exits_2(self, tmp_path, capsys):
        # sqrt over a domain straddling 0 parses but produces NaN at solve time
        config = base_config(functions={"phi": "sqrt(x)"})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("gexp", path, out) == 2
        report = json.loads((out / "gexp.report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert "NonFiniteError" in report["diagnostic"]
        assert not (out / "gexp.data.csv").exists()

    def test_infinite_constant_in_the_datum_exits_2(self, tmp_path, capsys):
        # 1/0 is inf under the solver's error state, as in an array: a NonFiniteError, not a ZeroDivisionError
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(functions={"phi": "x^2 + 1/0"})), out) == 2
        report = json.loads((out / "gexp.report.json").read_text())
        assert report["diagnostic"] == "NonFiniteError: non-finite values encountered at time layer 0"

    def test_overflowing_transform_exits_2(self, tmp_path, capsys):
        # exp(800) overflows in h's jets: a named failure, not a traceback
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"h": "exp(x)"},
            "params": {"y_range": [0.0, 800.0], "z_range": [-1.0, 1.0], "resolution": 16},
        }
        out = tmp_path / "out"
        assert run("convexity", write_config(tmp_path, config), out) == 2
        report = json.loads((out / "convexity.report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert report["diagnostic"].startswith("EvalDomainError")
        assert not (out / "convexity.data.csv").exists()

    @pytest.mark.parametrize(
        "command, config, failure",
        [
            ("gexp", base_config(functions={"phi": "x^2 + 1/0"}), ("NonFiniteError", 0, 0)),
            # Y grows by e^40 over the horizon and leaves its envelope at layer 63 of 616
            (
                "gbsde",
                base_config(
                    generator={"g": "40*y", "f": "0", "lipschitz_L": 40.0}, functions={"terminal": "x^2"}
                ),
                ("BlowUpError", 63, 0),
            ),
            # exp(800) overflows in h's jets, outside any march: no layer or row
            (
                "convexity",
                {
                    "schema_version": 1,
                    "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
                    "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
                    "functions": {"h": "exp(x)"},
                    "params": {"y_range": [0.0, 800.0], "z_range": [-1.0, 1.0], "resolution": 16},
                },
                ("EvalDomainError", None, None),
            ),
        ],
    )
    def test_a_failure_report_names_the_error_its_layer_and_row(self, tmp_path, command, config, failure):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, config), out) == 2
        report = json.loads((out / f"{command}.report.json").read_text())
        assert (report["error"], report["layer"], report["row"]) == failure
        assert report["diagnostic"].startswith(failure[0] + ": ")


class TestReportDocument:
    @pytest.mark.parametrize(
        "phi, status, keys",
        [
            ("x^2", 0, ["schema_version", "command", "config", "status", "results"]),
            (
                "x^2 + 1/0", 2,
                ["schema_version", "command", "config", "status", "diagnostic", "error", "layer", "row"],
            ),
        ],
    )
    def test_a_report_keeps_its_key_order(self, tmp_path, phi, status, keys):
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(functions={"phi": phi})), out) == status
        assert list(json.loads((out / "gexp.report.json").read_text())) == keys


class TestOutputDirectory:
    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("field", ["--out", "config.out_dir"])
    def test_a_directory_that_cannot_be_made_exits_1_naming_its_field(self, tmp_path, capsys, field, under):
        # an existing file raised FileExistsError, and a path under a file NotADirectoryError, out of the CLI
        afile = tmp_path / "afile"
        afile.write_text("kept")
        target = str(afile / "out" if under else afile)
        config = base_config(out_dir=target) if field == "config.out_dir" else base_config()
        argv = ["gexp", "--config", str(write_config(tmp_path, config))]
        assert main(argv + ["--out", target] if field == "--out" else argv) == 1
        assert capsys.readouterr().err.startswith(f"config error at {field}: cannot make the output directory: ")
        assert afile.read_text() == "kept"


class TestGridNodeAtZero:
    def test_grid_without_a_node_at_zero_rejected(self, tmp_path, capsys):
        # dx = 8/99: the nearest node sits 0.0101 from 0, which "x = 0" used to read
        config = base_config(grid={"horizon": 1.0, "x_min": -3.0, "x_max": 5.0, "nx": 100})
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("gexp", config)
        assert info.value.field == "config.grid"
        assert run("gexp", write_config(tmp_path, config), tmp_path / "out") == 1
        assert "x = 0 is not a grid node" in capsys.readouterr().err

    def test_asymmetric_grid_with_a_node_at_zero(self, tmp_path):
        config = base_config(
            grid={"horizon": 1.0, "x_min": -3.0, "x_max": 5.0, "nx": 81},
            functions={"phi": "x"},
        )
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, config), out) == 0
        report = json.loads((out / "gexp.report.json").read_text())
        assert report["results"]["values_at_zero"]["1"] == pytest.approx(0.0, abs=1e-12)


class TestGbsdeCommand:
    def test_happy_path(self, tmp_path):
        config = base_config(
            generator={"g": "-y", "f": "0", "lipschitz_L": 1.0},
            functions={"terminal": "1"},
            params={"times": [0.0]},
        )
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("gbsde", path, out) == 0
        report = json.loads((out / "gbsde.report.json").read_text())
        assert report["results"]["y_at_start"] == pytest.approx(0.3679, abs=1e-3)
        header = (out / "gbsde.data.csv").read_text().splitlines()[0]
        assert header == "t,x,y,z,eta"

    def test_out_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = base_config(
            generator={"g": "0", "f": "0", "lipschitz_L": 0.0},
            functions={"terminal": "x"},
            params={"times": [0.0]},
            out_dir=str(tmp_path / "configured"),
        )
        path = write_config(tmp_path, config)
        assert run("gbsde", path) == 0
        assert (tmp_path / "configured" / "gbsde.report.json").exists()


class TestConvexityCommand:
    def test_failing_transform_reports_witnesses(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"h": "-(x^2)"},
            "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 17},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("convexity", path, out) == 0  # the verdict is data, not a failure
        report = json.loads((out / "convexity.report.json").read_text())
        assert report["results"]["verdict"] == "fails"
        assert report["results"]["witness_count"] > 0
        rows = (out / "convexity.data.csv").read_text().splitlines()
        assert rows[0] == "y,z,argmin_A,inf_gap"
        assert len(rows) == 1 + 17 * 17

    def test_an_infinite_gap_is_null_in_the_report_and_inf_in_the_csv(self, tmp_path):
        # g(t, h(y), .) overflows, so every cell's gap is -inf; the report wrote -Infinity, which
        # strict JSON readers refuse
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "-1e300*y", "f": "0", "lipschitz_L": 1e300},
            "functions": {"h": "x + 1e10"},
            "params": {"y_range": [0.5, 0.95], "z_range": [-1.0, 1.0], "resolution": 16},
        }
        out = tmp_path / "out"
        assert run("convexity", write_config(tmp_path, config), out) == 0
        text = (out / "convexity.report.json").read_text()
        results = json.loads(text, parse_constant=lambda token: pytest.fail(f"{token} in the report"))["results"]
        assert results["verdict"] == "fails" and results["min_gap"] is None
        assert results["witness_count"] == 16 * 16 and all(w[3] is None for w in results["witnesses"])
        _, row, *_ = (out / "convexity.data.csv").read_text().splitlines()
        assert row.endswith(",-inf")

    def test_holding_transform(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"h": "exp(x)"},
            "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 17},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("convexity", path, out) == 0
        report = json.loads((out / "convexity.report.json").read_text())
        assert report["results"]["verdict"] == "holds"

    def test_library_default_resolution(self, tmp_path):
        # without resolution the CLI passes none, and check_g_convexity's default of 33 applies
        config = variant("convexity", "params")
        del config["params"]["resolution"]
        out = tmp_path / "out"
        assert run("convexity", write_config(tmp_path, config), out) == 0
        assert len((out / "convexity.data.csv").read_text().splitlines()) == 1 + 33 * 33

    def test_csv_rows_are_the_per_cell_infima(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0.3*y + 0.2*z", "f": "0.25*z", "lipschitz_L": 0.5},
            "functions": {"h": "tanh(x)"},
            "params": {"y_range": [-1.5, 2.0], "z_range": [-2.0, 1.0], "resolution": 19, "t": 0.2},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("convexity", path, out) == 0
        band = VolatilityBand(1.0, 2.0)
        gen = GeneratorPair(parse_tri("0.3*y + 0.2*z"), parse_tri("0.25*z"), 0.5)
        h = parse_scalar("tanh(x)")
        expected = ["y,z,argmin_A,inf_gap"]
        for y in np.linspace(-1.5, 2.0, 19):
            for z in np.linspace(-2.0, 1.0, 19):
                gap, arg = reduce_over_A(band, gen, h, 0.2, float(y), float(z))
                expected.append(",".join(format(v, ".17g") for v in (float(y), float(z), arg, gap)))
        assert (out / "convexity.data.csv").read_text().splitlines() == expected

    def test_threads_below_one_rejected(self):
        # the key is gone, so any threads value is refused by name before its range could matter
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"h": "exp(x)"},
            "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 17},
            "threads": 0,
        }
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("convexity", config)
        assert info.value.field == "config.threads"
        assert str(info.value) == "config error at config.threads: unknown field"


class TestJensenCommand:
    def test_happy_path(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "grid": {"horizon": 1.0, "nx": 201},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"h": "exp(x)", "phi": "tanh(x)"},
            "params": {"horizons": [0.5, 1.0]},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("jensen", path, out) == 0
        report = json.loads((out / "jensen.report.json").read_text())
        assert report["results"]["min_gap"] >= -1e-4
        # jets of phi and of the composition actually used are echoed
        assert report["results"]["phi_jet"] == pytest.approx([0.0, 1.0, 0.0])
        assert report["results"]["h_phi_jet"] == pytest.approx([1.0, 1.0, 1.0])

    def test_negative_start_of_a_horizon_refused_before_any_solve(self, tmp_path, capsys):
        # s + tau = -0.3 < 0: refused at the horizons, not by the solve of the first one
        config = variant("jensen", "params", s=-0.5, horizons=[0.5, 0.2])
        out = tmp_path / "out"
        assert run("jensen", write_config(tmp_path, config), out) == 1
        assert "config error at config.params.horizons: need 0 <= s <= t <= horizon" in capsys.readouterr().err
        assert not (out / "jensen.report.json").exists()


class TestReplimitCommand:
    def test_happy_path(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "-y", "f": "0", "lipschitz_L": 1.0},
            "functions": {"terminal": "x^2 + 1"},
            "params": {"eps_list": [0.1, 0.05, 0.025]},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("replimit", path, out) == 0
        report = json.loads((out / "replimit.report.json").read_text())
        assert report["results"]["passed"] is True
        assert report["results"]["formula"] == pytest.approx(1.0)

    def test_malformed_terminal_is_config_error(self, tmp_path, capsys):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0", "f": "0", "lipschitz_L": 0.0},
            "functions": {"terminal": "2*"},
            "params": {"eps_list": [0.1, 0.05, 0.025]},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("replimit", path, out) == 1
        assert "config.functions.terminal" in capsys.readouterr().err
        assert not (out / "replimit.report.json").exists()


class TestOracleCheckCommand:
    def test_happy_path(self, tmp_path):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "grid": {"horizon": 1.0, "half_width": 8.5, "nx": 401},
            "params": {"functions": ["x^2", "tanh(x)"], "times": [0.25, 1.0], "steps": 800},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("oracle-check", path, out) == 0
        report = json.loads((out / "oracle-check.report.json").read_text())
        assert report["results"]["passed"] is True

    @pytest.mark.parametrize("tolerance, status", [(-1, 1), (0, 0)])
    def test_a_negative_tolerance_is_refused(self, tmp_path, capsys, tolerance, status):
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "grid": {"horizon": 1.0, "half_width": 8.5, "nx": 101},
            "params": {"functions": ["x"], "times": [0.5], "steps": 100, "tolerance": tolerance},
        }
        out = tmp_path / "out"
        assert run("oracle-check", write_config(tmp_path, config), out) == status
        if status:
            assert "config error at config.params.tolerance: must be >= 0, got -1" in capsys.readouterr().err
            assert not (out / "oracle-check.report.json").exists()
        else:
            results = json.loads((out / "oracle-check.report.json").read_text())["results"]
            assert results["tolerance"] == 0 and results["max_abs_diff"] is not None

    def test_a_nan_tree_fails_the_check(self, tmp_path):
        # the lattice ends reach x = 60, where exp(x^2/4) overflows: the tree is NaN, and so is its
        # difference from the PDE value, which must fail the check rather than be passed over
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "grid": {"horizon": 1.0, "half_width": 8.5, "nx": 201},
            "params": {"functions": ["exp(x^2/4)"], "times": [0.9], "steps": 2000},
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run("oracle-check", path, out) == 0  # and warns nothing: the suite makes a RuntimeWarning an error
        # strict JSON: a bare NaN or Infinity token in the report fails the parse
        text = (out / "oracle-check.report.json").read_text()
        results = json.loads(text, parse_constant=lambda token: pytest.fail(f"{token} in the report"))["results"]
        assert results["passed"] is False and results["max_abs_diff"] is None
        _, row = (out / "oracle-check.data.csv").read_text().splitlines()
        assert row.endswith(",nan,nan")


GRID = {"horizon": 1.0, "half_width": 8.5, "nx": 201}
GENERATOR = {"g": "-y", "f": "0", "lipschitz_L": 1.0}
BAND = {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0}

# one valid config per command, using exactly the sections and functions it reads
VALID = {
    "gexp": base_config(),
    "gbsde": base_config(generator=GENERATOR, functions={"terminal": "1"}, params={"times": [0.0]}),
    "convexity": {
        "schema_version": 1,
        "band": BAND,
        "generator": GENERATOR,
        "functions": {"h": "exp(x)"},
        "params": {"y_range": [-2.0, 2.0], "z_range": [-2.0, 2.0], "resolution": 16},
    },
    "jensen": base_config(
        generator=GENERATOR, functions={"h": "exp(x)", "phi": "tanh(x)"}, params={"horizons": [0.5]}
    ),
    "replimit": {
        "schema_version": 1,
        "band": BAND,
        "generator": GENERATOR,
        "functions": {"terminal": "x^2 + 1"},
        "params": {"eps_list": [0.1, 0.05, 0.025]},
    },
    "oracle-check": {
        "schema_version": 1,
        "band": BAND,
        "grid": GRID,
        "params": {"functions": ["x^2"], "times": [1.0], "steps": 100},
    },
}


def variant(command, section, **entries):
    """VALID[command] with entries merged into one section."""
    config = json.loads(json.dumps(VALID[command]))
    config[section] = {**config.get(section, {}), **entries}
    return config


class TestCommandTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_config_accepted(self, command):
        ExperimentConfig(command, VALID[command])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unused_section_and_function_rejected(self, command):
        config = VALID[command]
        for section, body in (("grid", GRID), ("generator", GENERATOR)):
            if section not in config:
                with pytest.raises(ConfigError) as info:
                    ExperimentConfig(command, {**config, section: body})
                assert info.value.field == f"config.{section}"
        functions = config.get("functions", {})
        name = next(n for n in ("h", "phi", "terminal") if n not in functions)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(command, {**config, "functions": {**functions, name: "x"}})
        assert info.value.field == (f"config.functions.{name}" if functions else "config.functions")

    def test_missing_function_named(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("jensen", {**VALID["jensen"], "functions": {"h": "exp(x)"}})
        assert info.value.field == "config.functions.phi"

    def test_three_element_range_names_its_field(self, tmp_path, capsys):
        config = variant("convexity", "params", z_range=[-1.0, 0.0, 1.0])
        assert run("convexity", write_config(tmp_path, config), tmp_path / "out") == 1
        assert "config.params.z_range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gbsde", "jensen", "replimit"])
    def test_picard_rejected_where_it_drives_nothing(self, command):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(command, variant(command, "generator", picard=True))
        assert info.value.field == "config.generator.picard"

    def test_theta_with_nt_rejected(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig("gexp", variant("gexp", "grid", nt=2000, theta=0.3))
        assert info.value.field == "config.grid.theta"

    def test_x_min_without_x_max_rejected(self):
        grid = {"horizon": 1.0, "nx": 201, "x_min": -8.5}
        with pytest.raises(ConfigError, match="x_min and x_max go together") as info:
            ExperimentConfig("gexp", {**VALID["gexp"], "grid": grid})
        assert info.value.field == "config.grid.x_min"


class TestNoTraceback:
    # each of these ended in a Python traceback, or ran, before the config was checked up front
    CASES = [
        ("gexp", "grid", {"nx": 1}, "config.grid"),
        ("gexp", "grid", {"theta": 0.9}, "config.grid"),
        # the grid keeps its half_width beside these: a domain given twice
        ("gexp", "grid", {"x_min": -8.5, "x_max": 8.5}, "config.grid.half_width"),
        ("convexity", "params", {"resolution": 8}, "config.params"),
        ("replimit", "params", {"eps_list": [0.1, 0.1, 0.05]}, "config.params"),
        ("oracle-check", "params", {"steps": 0}, "config.params"),
        ("jensen", "params", {"s": -0.2}, "config.params"),
        ("replimit", "params", {"eps_list": [0.1, 0.05, 0.0]}, "config.params"),
        ("replimit", "params", {"nx": 1}, "config.params"),
        # Python's json reads NaN and Infinity; the parent crashed on one and ran on the other
        ("gexp", "grid", {"half_width": float("inf")}, "config.grid.half_width"),
        ("gbsde", "generator", {"lipschitz_L": float("nan")}, "config.generator.lipschitz_L"),
        # one start-time rule: a negative t is refused like jensen's negative s
        ("replimit", "params", {"t": -1}, "config.params"),
        ("convexity", "params", {"t": -1}, "config.params"),
        # an even nx has no node at x = 0: refused, not bumped to nx + 1
        ("replimit", "params", {"nx": 4}, "config.params"),
        # spot checks that read NaN as a pass: a NaN difference quotient, f(t, y, 0) = 0/0
        ("gbsde", "generator", {"g": "sqrt(y)"}, "config.generator"),
        ("gbsde", "generator", {"g": "0", "f": "y*z/z", "h6": True}, "config.generator"),
        # an overflowing literal: OverflowError, then inf - inf in the spot check, a RuntimeWarning
        ("gbsde", "generator", {"g": "y + (1e200)^2"}, "config.generator"),
        # a difference of the spot check that overflows: a RuntimeWarning, then an infinite quotient
        ("gbsde", "generator", {"g": "-1e308*y", "lipschitz_L": 1e308}, "config.generator"),
        # a bool or a string where a number belongs
        ("gexp", "grid", {"horizon": True}, "config.grid.horizon"),
        ("gbsde", "generator", {"lipschitz_L": "1.0"}, "config.generator.lipschitz_L"),
        # a literal that overflows (an exponent beyond 2^53 runs below, as a process)
        ("convexity", "functions", {"h": "1e999*x"}, "config.functions.h"),
    ]

    @pytest.mark.parametrize("command,section,entries,field", CASES)
    def test_bad_value_exits_1_naming_its_field(self, tmp_path, capsys, command, section, entries, field):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, variant(command, section, **entries)), out) == 1
        assert f"config error at {field}: " in capsys.readouterr().err
        assert not (out / f"{command}.report.json").exists()

    @pytest.mark.parametrize(
        "grid",
        [
            {**GRID, "theta": 1e-320},  # theta * dx^2 is subnormal: the step count overflows
            {**GRID, "half_width": 1e-300},  # dx^2 underflows to 0
            {"horizon": 1.0, "nx": 201, "x_min": -1e-300, "x_max": 1e-300},
        ],
    )
    def test_a_grid_whose_step_count_is_not_finite_exits_1(self, tmp_path, capsys, grid):
        # each raised ZeroDivisionError or OverflowError out of the CLI, with a traceback
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(grid=grid)), out) == 1
        assert capsys.readouterr().err.startswith("config error at config.grid: dx = ")
        assert not (out / "gexp.report.json").exists()

    def test_a_step_count_beyond_any_array_exits_1_naming_nt(self, tmp_path, capsys):
        # nt is about 2.8e302: numpy refused the time labels as config.params, "Maximum allowed size exceeded"
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(grid={**GRID, "theta": 1e-300})), out) == 1
        assert capsys.readouterr().err.startswith("config error at config.grid: nt = 2768")
        assert not (out / "gexp.report.json").exists()

    def test_a_grid_too_large_to_allocate_exits_1_naming_nt(self, tmp_path, capsys, monkeypatch):
        # nt is about 2.8e11: the solve's labels would take 2 TiB, and numpy's MemoryError was a
        # traceback; here the refusal is injected, so nothing asks for the memory
        linspace = np.linspace

        def refusing(start, stop, num, **kwargs):
            if num > 10**9:
                raise MemoryError(f"Unable to allocate an array with shape ({num},)")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", refusing)
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, base_config(grid={**GRID, "theta": 1e-9})), out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error at config.grid: nx = 201 and nt = 276816608997 need arrays too large")
        assert err.endswith("shape (276816608998,)\n")
        assert not (out / "gexp.report.json").exists()

    def test_a_scan_too_large_to_allocate_exits_1_at_its_params(self, tmp_path, capsys, monkeypatch):
        # convexity has no grid: its arrays are sized by its params
        def refusing(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(gexpect.cli, "check_g_convexity", refusing)
        out = tmp_path / "out"
        assert run("convexity", write_config(tmp_path, VALID["convexity"]), out) == 1
        assert capsys.readouterr().err == "config error at config.params: the run's arrays cannot be allocated: Unable to allocate 7.28 TiB\n"
        assert not (out / "convexity.report.json").exists()

    def test_a_tree_too_large_to_allocate_exits_1_at_its_steps(self, tmp_path, capsys, monkeypatch):
        # the lattice is sized by params.steps, not by the grid; the refusal is injected, so
        # nothing asks for the 14.6 TiB that 10^12 steps would take
        def refusing(band, phis, times, steps):
            raise MemoryError(f"Unable to allocate an array with shape ({2 * steps + 1},)")

        monkeypatch.setattr(gexpect.cli, "tree_expectation_batch", refusing)
        config = {**VALID["oracle-check"], "params": {**VALID["oracle-check"]["params"], "steps": 10**12}}
        out = tmp_path / "out"
        assert run("oracle-check", write_config(tmp_path, config), out) == 1
        assert capsys.readouterr().err == (
            "config error at config.params.steps: steps = 1000000000000 needs a lattice too large to allocate: "
            "Unable to allocate an array with shape (2000000000001,)\n"
        )
        assert not (out / "oracle-check.report.json").exists()

    def test_huge_exponent_exits_1_without_a_traceback(self, tmp_path):
        # the jet of x^1e300 formed a 301-digit int and raised OverflowError out of the CLI
        path = write_config(tmp_path, variant("convexity", "functions", h="x^1e300"))
        env = {**os.environ, "PYTHONPATH": str(Path(gexpect.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-m", "gexpect.cli", "convexity", "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("config error at config.functions.h: power exponent must be an integer literal")
        assert "Traceback" not in done.stderr

    def test_negative_horizon_with_default_domain(self, tmp_path, capsys):
        config = base_config(grid={"horizon": -1.0, "nx": 201})
        out = tmp_path / "out"
        assert run("gexp", write_config(tmp_path, config), out) == 1
        assert "config error at config.grid: horizon must be > 0" in capsys.readouterr().err
        assert not (out / "gexp.report.json").exists()

    def test_overflowing_driver_exits_2(self, tmp_path, capsys):
        # the drivers at the terminal's jet overflow: a named failure, not a traceback
        config = variant("replimit", "generator", g="1e-300*y^2")
        config["functions"] = {"terminal": "1e200*x + 1e200"}
        out = tmp_path / "out"
        assert run("replimit", write_config(tmp_path, config), out) == 2
        report = json.loads((out / "replimit.report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert report["diagnostic"].startswith("EvalDomainError")

    def test_driver_undefined_at_the_origin_exits_2(self, tmp_path, capsys):
        # 1/y at y = 0: the envelope's evaluation at the origin is infinite
        config = variant("gbsde", "generator", g="1/y", lipschitz_L=1e300)
        config["functions"] = {"terminal": "x"}
        out = tmp_path / "out"
        assert run("gbsde", write_config(tmp_path, config), out) == 2
        report = json.loads((out / "gbsde.report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert report["diagnostic"].startswith("EvalDomainError: driver g is inf")


def reference_csv(header, rows) -> str:
    """The data.csv text of the writer that formatted each number on its own through csv.writer."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format(float(v), ".17g") for v in row])
    return handle.getvalue()


def table_rows(columns, axes=()):
    """The rows a runner's table stands for: each point of the axes' product in C order, then each column's value."""
    points = list(itertools.product(*axes)) if axes else [()] * (len(columns[0]) if columns else 0)
    flat = [column.ravel() if isinstance(column, np.ndarray) else column for column in columns]
    return [(*point, *values) for point, values in zip(points, zip(*flat), strict=True)]


# every finite float, and the values whose text is special: signed zero, NaN, infinities, subnormals, extremes
csv_numbers = st.floats() | st.sampled_from([
    -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
])


class TestCsvWriter:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_data_csv_has_the_reference_writer_bytes(self, tmp_path, command):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, VALID[command]), out) == 0
        _, header, *table = _COMMANDS[command].runner(ExperimentConfig(command, VALID[command]))
        rows = table_rows(*table)
        assert (out / f"{command}.data.csv").read_bytes() == reference_csv(header, rows).encode()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 5), max_size=2).flatmap(lambda shape: st.tuples(
            st.tuples(*[st.lists(csv_numbers, min_size=n, max_size=n) for n in shape]),
            st.lists(
                st.lists(csv_numbers, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))),
                min_size=1, max_size=3,
            ) if shape else st.integers(0, 5).flatmap(lambda n: st.lists(
                st.lists(csv_numbers, min_size=n, max_size=n), min_size=1, max_size=3,
            )),
        )),
        st.booleans(),
    )
    def test_axes_and_columns_have_the_bytes_of_their_rows(self, table, as_arrays):
        axes, columns = table
        if as_arrays:  # a column as an array shaped like the axes' product, an axis as an array
            shape = tuple(map(len, axes)) or (len(columns[0]),)
            columns = [np.array(column, dtype=float).reshape(shape) for column in columns]
            axes = [np.array(axis, dtype=float) for axis in axes]
        header = tuple(f"c{i}" for i in range(len(axes) + len(columns)))
        handle = io.StringIO(newline="")
        _write_rows(handle, header, columns, axes)
        assert handle.getvalue() == reference_csv(header, table_rows(columns, axes))

    def test_convexity_scan_at_resolution_129_has_the_bytes_of_its_cells(self, tmp_path):
        # the benchmark's convexity CLI pair: tanh(x) under the "mixed" generator; the z = 0 column
        # of the mesh has A = -2 f = -0.0, which the file writes as -0
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "generator": {"g": "0.3*y + 0.2*z", "f": "0.25*z", "lipschitz_L": 0.5},
            "functions": {"h": "tanh(x)"},
            "params": {"y_range": [-2.1, 1.9], "z_range": [-2.0, 2.0], "resolution": 129},
        }
        out = tmp_path / "out"
        assert run("convexity", write_config(tmp_path, config), out) == 0
        gen = GeneratorPair(parse_tri("0.3*y + 0.2*z"), parse_tri("0.25*z"), 0.5)
        report = check_g_convexity(
            VolatilityBand(1.0, 2.0), gen, parse_scalar("tanh(x)"), (-2.1, 1.9), (-2.0, 2.0), 129
        )
        expected = reference_csv(("y", "z", "argmin_A", "inf_gap"), report.cells.reshape(-1, 4).tolist())
        assert "\n-2.1000000000000001,0,-0," in expected
        assert (out / "convexity.data.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("text", [None, "max(x, 0)"])
    def test_special_values_have_the_reference_bytes(self, text):
        # gexp rows hold numpy float64 scalars; a text axis value is quoted by csv's rule
        specials = [
            float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
            np.float64(0.1), np.float64(-0.0), np.float64("nan"), 1e300, 3, 2**60, np.int64(-7),
        ]
        rows = [tuple(specials[k:k + 3]) for k in range(len(specials) - 2)]
        header = ("a", "b", "c")
        columns, axes = list(zip(*rows)), ()
        if text is not None:  # the text heads every row, as oracle-check's function does, and "a" is the t axis
            rows = [(text, *row) for row in rows]
            header = ("function", *header)
            columns, axes = columns[1:], ([text], columns[0])
        handle = io.StringIO(newline="")
        _write_rows(handle, header, columns, axes)
        assert handle.getvalue() == reference_csv(header, rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            # no NUL: Python 3.10's csv refuses it in any field, and the parser in any function text
            st.lists(st.text(st.sampled_from(',"\n\r xé€') | st.characters(exclude_characters="\0"), max_size=6),
                     max_size=4),
            st.lists(csv_numbers, max_size=4),
        ).flatmap(lambda axes: st.tuples(st.just(axes), st.lists(
            st.lists(csv_numbers, min_size=len(axes[0]) * len(axes[1]), max_size=len(axes[0]) * len(axes[1])),
            min_size=1, max_size=3,
        ))),
    )
    # a "%" in a text is no conversion of the row format: each of these raised or lost a "%"
    @example(((["%"], [0.0]), [[0.0]]))
    @example(((["%%"], [0.0]), [[0.0]]))
    @example(((["100%", "a%sb"], [0.5, 1.0]), [[1.0, 2.0, 3.0, 4.0]]))
    def test_a_text_axis_has_the_bytes_of_csv_quoting(self, table):
        # oracle-check's table: function texts by times, then numeric columns
        axes, columns = table
        header = tuple(f"c{i}" for i in range(2 + len(columns)))
        handle = io.StringIO(newline="")
        _write_rows(handle, header, columns, axes)
        assert handle.getvalue() == reference_csv(header, table_rows(columns, axes))

    def test_no_rows_give_the_header_alone(self):
        handle = io.StringIO(newline="")
        _write_rows(handle, ("eps", "quotient"), [])
        assert handle.getvalue() == "eps,quotient\n"


class TestReadmeExample:
    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        out = tmp_path / "out"
        assert run("gbsde", write_config(tmp_path, json.loads(block)), out) == 0
        assert json.loads((out / "gbsde.report.json").read_text())["status"] == "ok"


class TestMain:
    def test_main_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["gexp", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explode", "--config", "x.json"])

    def test_run_refuses_an_unknown_command(self, tmp_path, capsys):
        assert run("explode", write_config(tmp_path, base_config()), tmp_path / "out") == 1
        assert "unknown command 'explode'; choose from gexp" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_commands_registry(self):
        assert set(COMMANDS) == {"gexp", "gbsde", "convexity", "jensen", "replimit", "oracle-check"}
