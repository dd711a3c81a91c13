import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patternlab import complexity, harness
from patternlab.cli import main, parse_tau_grid
from patternlab.estimators import EstimatorSpec, model_from_json
from patternlab.simulate import Scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args, cwd):
    """``python -m patternlab`` in a fresh interpreter, so that stderr holds
    exactly what a user would see."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "patternlab", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture()
def tiny_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "kind": "mcar_gaussian",
                "d": 2,
                "beta0": 0.5,
                "beta": [1.0, 2.0],
                "sigma": 0.2,
                "mu": [0.0, 0.0],
                "cov": [[1.0, 0.3], [0.3, 1.0]],
                "missingness": {"kind": "homogeneous_bernoulli", "d": 2, "epsilon": 0.3},
            }
        )
    )
    return path


class TestParseTauGrid:
    def test_log_grid(self):
        grid = parse_tau_grid("0.001:1:log40")
        assert len(grid) == 40
        assert grid[0] == pytest.approx(0.001)
        assert grid[-1] == pytest.approx(1.0)
        ratios = np.diff(np.log(grid))
        assert np.allclose(ratios, ratios[0])

    def test_lin_grid_and_list(self):
        assert len(parse_tau_grid("0.1:0.5:lin5")) == 5
        assert parse_tau_grid("0.1,0.2") == [0.1, 0.2]

    def test_bad_grids(self):
        for bad in ("0.1:0.5", "0:1:log10", "1:0.5:log10", "abc", ""):
            with pytest.raises(ValueError):
                parse_tau_grid(bad)
        # the point count and the bounds are read through their field kinds
        for bad, message in [
            ("0.001:1:log2.5", "tau grid '0.001:1:log2.5' point count must be an integer >= 1, got 2.5"),
            ("0.001:1:log1e3", "tau grid '0.001:1:log1e3' point count must be an integer >= 1, got 1000.0"),
            ("0.001:abc:log5", "tau grid '0.001:abc:log5' bound must be a number, got 'abc'"),
        ]:
            with pytest.raises(ValueError) as caught:
                parse_tau_grid(bad)
            assert str(caught.value) == message


class TestPipeline:
    def test_gen_fit_eval(self, tmp_path, tiny_scenario_file, capsys):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        assert main(["gen", "--scenario", str(tiny_scenario_file), "--n", "400", "--seed", "7", "--out", str(data)]) == 0
        payload = json.loads(data.read_text())
        assert payload["n"] == 400 and payload["d"] == 2
        assert len(payload["values"]) == 400
        masked_cells = [
            (i, j) for i, row in enumerate(payload["mask"]) for j, c in enumerate(row) if c == "1"
        ]
        assert masked_cells, "expected some masked cells"
        i, j = masked_cells[0]
        assert payload["values"][i][j] is None

        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--tau", "d_over_n", "--out", str(model)]) == 0
        stored = json.loads(model.read_text())
        assert set(stored) == {"tau", "clip", "ball_radius", "d", "models"}
        assert stored["tau"] == pytest.approx(2 / 400)

        code = main(["eval", "--model", str(model), "--scenario", str(tiny_scenario_file), "--n-test", "2000", "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(out)
        assert result["excess_risk"] >= 0.0
        assert result["n_test"] == 2000

    def test_pbp_model_keeps_its_ball_radius(self, tmp_path, tiny_scenario_file):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        assert main(["gen", "--scenario", str(tiny_scenario_file), "--n", "300", "--seed", "3", "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--ball-radius", "2.5", "--out", str(model)]) == 0
        stored = json.loads(model.read_text())
        assert stored["ball_radius"] == 2.5
        again = model_from_json(stored)
        assert again.config.ball_radius == 2.5
        assert again.to_json() == stored

    @pytest.mark.parametrize("estimator", ["cst_impute_lr", "iterative_impute_lr"])
    def test_fit_eval_impute_models(self, tmp_path, tiny_scenario_file, estimator, capsys):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        rounds = ["--rounds", "2"] if estimator == "iterative_impute_lr" else []
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "300", "--seed", "3", "--out", str(data)])
        assert main(["fit", "--data", str(data), "--estimator", estimator, *rounds, "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--scenario", str(tiny_scenario_file), "--n-test", "1000", "--seed", "4"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert np.isfinite(result["excess_risk"])

    def test_fixed_tau_fit(self, tmp_path, tiny_scenario_file):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "200", "--seed", "5", "--out", str(data)])
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--tau", "0.25", "--out", str(model)]) == 0
        assert json.loads(model.read_text())["tau"] == 0.25

    def test_pbp_tau_defaults_to_d_over_n(self, tmp_path, tiny_scenario_file):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "200", "--seed", "5", "--out", str(data)])
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--out", str(model)]) == 0
        assert json.loads(model.read_text())["tau"] == 2 / 200

    @pytest.mark.parametrize(
        "tau, message",
        [
            ("abc", "--tau must be d_over_n, one_over_n or a number, got 'abc'"),
            ("1.5", "tau rule must be a probability in [0, 1], got 1.5"),
        ],
    )
    def test_bad_tau_is_config_error(self, tmp_path, tiny_scenario_file, capsys, tau, message):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--tau", tau, "--out", str(model)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not model.exists()

    @pytest.mark.parametrize("estimator", ["cst_impute_lr", "iterative_impute_lr"])
    @pytest.mark.parametrize("option, value", [("--tau", "0.3"), ("--clip", "5"), ("--ball-radius", "2")])
    def test_pbp_options_on_other_estimators_are_config_errors(
        self, tmp_path, tiny_scenario_file, capsys, estimator, option, value
    ):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", estimator, option, value, "--out", str(model)]) == 2
        assert f"applies only to kind 'pbp', not to '{estimator}'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("estimator", ["pbp", "cst_impute_lr"])
    @pytest.mark.parametrize("rounds", ["0", "3"])
    def test_rounds_on_other_estimators_is_config_error(self, tmp_path, tiny_scenario_file, capsys, estimator, rounds):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", estimator, "--rounds", rounds, "--out", str(model)]) == 2
        assert f"field 'rounds' applies only to kind 'iterative_impute_lr', not to '{estimator}'" in capsys.readouterr().err
        assert not model.exists()

    def test_fit_keeping_no_pattern_round_trips(self, tmp_path, tiny_scenario_file, capsys):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "200", "--seed", "5", "--out", str(data)])
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--tau", "1.0", "--out", str(model)]) == 0
        stored = json.loads(model.read_text())
        assert stored["models"] == [] and stored["d"] == 2
        assert main(["eval", "--model", str(model), "--scenario", str(tiny_scenario_file), "--n-test", "500", "--seed", "4"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["excess_risk"] > 0.0

        del stored["d"]
        model.write_text(json.dumps(stored))
        assert main(["eval", "--model", str(model), "--scenario", str(tiny_scenario_file), "--seed", "4"]) == 2
        assert "'d'" in capsys.readouterr().err


    def test_null_at_observed_cell_is_config_error(self, tmp_path, tiny_scenario_file, capsys):
        data = tmp_path / "data.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        payload = json.loads(data.read_text())
        i, j = next((i, j) for i, row in enumerate(payload["mask"]) for j, c in enumerate(row) if c == "0")
        payload["values"][i][j] = None
        data.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--out", str(tmp_path / "m.json")]) == 2
        assert f"row {i}, column {j}" in capsys.readouterr().err

    def test_nonfinite_observed_value_is_config_error(self, tmp_path, tiny_scenario_file):
        data = tmp_path / "data.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        payload = json.loads(data.read_text())
        payload["responses"][3] = float("inf")
        data.write_text(json.dumps(payload))
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("bad", ["0x", "011", "0", 1])
    def test_malformed_mask_is_config_error(self, tmp_path, tiny_scenario_file, capsys, bad):
        data = tmp_path / "data.json"
        main(["gen", "--scenario", str(tiny_scenario_file), "--n", "50", "--seed", "5", "--out", str(data)])
        payload = json.loads(data.read_text())
        payload["mask"][7] = bad
        data.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--out", str(tmp_path / "m.json")]) == 2
        assert "mask of row 7" in capsys.readouterr().err

    def test_short_values_row_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(
            json.dumps({"d": 2, "n": 2, "values": [[1.0, None], [1.0]], "mask": ["01", "00"], "responses": [1.0, 2.0]})
        )
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert "values row 1" in err and "2 numbers or nulls" in err

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_nonfinite_noise_level_is_config_error(self, tmp_path, tiny_scenario_file, capsys, sigma):
        scenario = json.loads(tiny_scenario_file.read_text())
        scenario["sigma"] = sigma
        tiny_scenario_file.write_text(json.dumps(scenario))
        capsys.readouterr()
        out = tmp_path / "data.json"
        assert main(["gen", "--scenario", str(tiny_scenario_file), "--n", "10", "--seed", "1", "--out", str(out)]) == 2
        assert "noise level" in capsys.readouterr().err
        assert not out.exists()


_LINEAR = {"beta0": 0.5, "beta": [1.0, -1.0, 2.0, 0.5], "sigma": 0.3}
_GAUSS = {"mu": [0.0, 1.0, 0.0, -1.0], "cov": np.eye(4).tolist()}
ROUND_TRIP_SCENARIOS = {
    "mcar_gaussian": {
        "kind": "mcar_gaussian",
        **_GAUSS,
        "missingness": {"kind": "homogeneous_bernoulli", "d": 4, "epsilon": 0.2},
    },
    "mar_block": {"kind": "mar_block", "block_cov": [[1.0, 0.5], [0.5, 1.0]]},
    "gpmm": {
        "kind": "gpmm",
        "components": [{"p": 0.7, "mask": "0000", **_GAUSS}, {"p": 0.3, "mask": "0110", **_GAUSS}],
    },
    "merge": {"kind": "merge", **_GAUSS, "protocols": ["0000", "0011"], "weights": [0.6, 0.4], "eta": 0.1},
}
ROUND_TRIP_FITS = {
    "pbp_d_over_n": ["pbp", "--tau", "d_over_n"],
    "pbp_one_over_n_clip": ["pbp", "--tau", "one_over_n", "--clip", "3.0"],
    "pbp_fixed_tau_ball": ["pbp", "--tau", "0.05", "--ball-radius", "2.5", "--clip", "10"],
    "cst_impute_lr": ["cst_impute_lr"],
    "iterative_impute_lr": ["iterative_impute_lr", "--rounds", "3"],
}


def gen_fit_eval(tmp_path, spec: dict, fit: list) -> tuple:
    """Write ``spec`` as a d = 4 scenario file, then run gen, fit and eval on
    it: (the three exit codes, the dataset file, the model file)."""
    scenario, data, model = tmp_path / "scenario.json", tmp_path / "data.json", tmp_path / "model.json"
    scenario.write_text(json.dumps({"d": 4, **_LINEAR, **spec}))
    codes = (
        main(["gen", "--scenario", str(scenario), "--n", "200", "--seed", "3", "--out", str(data)]),
        main(["fit", "--data", str(data), "--estimator", *fit, "--out", str(model)]),
        main(["eval", "--model", str(model), "--scenario", str(scenario), "--n-test", "500", "--seed", "4"]),
    )
    return codes, data, model


class TestArtifactsReadBack:
    """Every artifact gen and fit write, fit and eval read back: the model
    file's JSON unchanged, and the dataset bit for bit as drawn."""

    @pytest.mark.parametrize("fit", list(ROUND_TRIP_FITS.values()), ids=list(ROUND_TRIP_FITS))
    @pytest.mark.parametrize("kind", list(ROUND_TRIP_SCENARIOS))
    def test_gen_fit_eval_round_trip(self, tmp_path, capsys, kind, fit):
        from patternlab.patterns import MaskedDataset
        from patternlab.simulate import scenario_from_json

        codes, data, model = gen_fit_eval(tmp_path, ROUND_TRIP_SCENARIOS[kind], fit)
        assert codes == (0, 0, 0), capsys.readouterr().err
        stored = json.loads(model.read_text())
        assert model_from_json(stored).to_json() == stored
        read = MaskedDataset.from_json(json.loads(data.read_text()))
        scenario = scenario_from_json({"d": 4, **_LINEAR, **ROUND_TRIP_SCENARIOS[kind]})
        drawn = scenario.generate(200, np.random.default_rng(3), with_bayes=False).dataset
        for name in ("values", "mask", "responses"):
            assert getattr(read, name).tobytes() == getattr(drawn, name).tobytes()

    def test_self_masking_has_no_risk_to_eval(self, tmp_path, capsys):
        masking = {"mask_center": [0.0] * 4, "mask_scale": [1.0] * 4}
        spec = {"kind": "self_masking", **_GAUSS, **masking}
        codes, _, _ = gen_fit_eval(tmp_path, spec, ROUND_TRIP_FITS["pbp_d_over_n"])
        assert codes == (0, 0, 3)
        assert "needs the exact optimum" in capsys.readouterr().err


class TestComplexityCommand:
    def test_preset_curves(self, tmp_path):
        out = tmp_path / "cp.csv"
        code = main(
            ["complexity", "--preset", "bern_pA,bern_pB,bern_pC,bern_pD", "--tau-grid", "0.001:1:log40", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dist,tau,cp_exact,hartley,shannon")
        assert len(lines) == 1 + 4 * 40
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"bern_pA", "bern_pB", "bern_pC", "bern_pD"}

    def test_explicit_file(self, tmp_path):
        dist_file = tmp_path / "dist.json"
        dist_file.write_text(json.dumps({"d": 2, "patterns": [{"mask": "00", "p": 0.5}, {"mask": "11", "p": 0.5}]}))
        out = tmp_path / "cp.csv"
        assert main(["complexity", "--dist", str(dist_file), "--tau-grid", "0.1,0.2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_scenario_preset_rejected(self, tmp_path):
        assert main(["complexity", "--preset", "mcar_a", "--out", str(tmp_path / "x.csv")]) == 2


class TestBenchCommand:
    def test_bench_runs_and_is_deterministic(self, tmp_path, tiny_scenario_file):
        config = {
            "scenario": json.loads(tiny_scenario_file.read_text()),
            "estimators": [
                {"kind": "pbp", "tau": "d_over_n"},
                {"kind": "pbp", "tau": "one_over_n"},
                {"kind": "cst_impute_lr"},
            ],
            "n_grid": [80, 160],
            "repetitions": 2,
            "n_test": 200,
            "seed": 99,
            "record_timings": False,
        }
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "scenario,estimator,n,repetition,seed,excess_risk,fit_seconds,predict_seconds"
        assert len(lines) == 1 + 3 * 2 * 2


    def test_bool_tau_is_config_error(self, tmp_path, tiny_scenario_file, capsys):
        config = {
            "scenario": json.loads(tiny_scenario_file.read_text()),
            "estimators": [{"kind": "pbp", "tau": True}],
            "n_grid": [80],
            "repetitions": 1,
            "n_test": 200,
        }
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "tau rule True" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--scenario", str(bad), "--n", "10", "--seed", "1", "--out", str(tmp_path / "d.json")]) == 2

    def test_bad_tau_grid_is_config_error(self, tmp_path):
        assert main(["complexity", "--preset", "bern_pA", "--tau-grid", "junk", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        """Each preset lookup refuses the other's names and lists its own."""
        law_names, scenario_names = "bern_pA, bern_pB, bern_pC, bern_pD", "mcar_a, mar_b, gpmm_c"
        for name in ("bern_pZ", "mcar_a"):
            assert main(["complexity", "--preset", name, "--out", str(tmp_path / "x.csv")]) == 2
            assert f"unknown law preset {name!r}; choose one of {law_names}" in capsys.readouterr().err
        for name in ("bern_pZ", "bern_pA"):
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps({"preset": name}))
            argv = ["gen", "--scenario", str(scenario), "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.json")]
            assert main(argv) == 2
            assert f"unknown scenario preset {name!r}; choose one of {scenario_names}" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        scenario = {
            "kind": "self_masking",
            "d": 2,
            "beta0": 0.0,
            "beta": [1.0, 1.0],
            "sigma": 0.1,
            "mu": [0.0, 0.0],
            "cov": [[1.0, 0.0], [0.0, 1.0]],
            "mask_center": [0.0, 0.0],
            "mask_scale": [1.0, 1.0],
        }
        sfile = tmp_path / "sm.json"
        sfile.write_text(json.dumps(scenario))
        data = tmp_path / "d.json"
        model = tmp_path / "m.json"
        assert main(["gen", "--scenario", str(sfile), "--n", "200", "--seed", "1", "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--estimator", "pbp", "--tau", "0.0", "--out", str(model)]) == 0
        # no exact optimum exists for this mechanism: numeric failure
        assert main(["eval", "--model", str(model), "--scenario", str(sfile), "--n-test", "500", "--seed", "2"]) == 3

    def test_nonfinite_risk_is_numeric_failure(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "constant_impute", "d": 8, "intercept": 0.0, "coef": [1e308] * 16}))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "mcar_a"}))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--scenario", str(scenario), "--n-test", "200", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert "excess_risk" not in captured.out
        assert "not finite" in captured.err

    def test_numeric_failure_prints_one_line(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "constant_impute", "d": 8, "intercept": 0.0, "coef": [1e308] * 16}))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "mcar_a"}))
        done = run_module(
            "eval", "--model", str(model), "--scenario", str(scenario), "--n-test", "200", "--seed", "1", cwd=tmp_path
        )
        assert done.returncode == 3
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:")

    def test_overflowing_imputation_fit_prints_one_line(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        mask = rng.random((50, 3)) < 0.3
        data = {
            "d": 3,
            "n": 50,
            "values": (np.where(mask, 0.0, x) * 1e200).tolist(),
            "mask": ["".join("1" if b else "0" for b in row) for row in mask],
            "responses": (x.sum(axis=1) * 1e200).tolist(),
        }
        (tmp_path / "big.json").write_text(json.dumps(data))
        for estimator, code in [("pbp", 0), ("cst_impute_lr", 0), ("iterative_impute_lr", 3)]:
            done = run_module("fit", "--data", "big.json", "--estimator", estimator, "--out", "m.json", cwd=tmp_path)
            assert done.returncode == code
            if code:
                lines = done.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("numeric failure: overflow encountered")

    def test_overflowing_responses_print_one_line(self, tmp_path, tiny_scenario_file):
        scenario = {**json.loads(tiny_scenario_file.read_text()), "beta": [1e308, 1e308]}
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        done = run_module("gen", "--scenario", "s.json", "--n", "50", "--seed", "1", "--out", "d.json", cwd=tmp_path)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: responses must be finite") and "overflows" in lines[0]
        assert not (tmp_path / "d.json").exists()

    # 10^15 rows fail to allocate on any machine, before anything is allocated
    @pytest.mark.parametrize(
        "command",
        [
            ["gen", "--scenario", "{scenario}", "--n", "1000000000000000", "--seed", "1", "--out", "{out}"],
            ["complexity", "--preset", "bern_pA", "--tau-grid", "0.001:1:log1000000000000000", "--out", "{out}"],
        ],
        ids=["gen", "complexity"],
    )
    def test_oversized_size_is_config_error(self, tmp_path, tiny_scenario_file, capsys, command):
        out = tmp_path / "out"
        argv = [arg.format(scenario=tiny_scenario_file, out=out) for arg in command]
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    # each case: the command line, with {dir} for the test's directory, and
    # the file or argument that the one error line must name
    GEN = ["gen", "--n", "5", "--out"]
    FILE_AND_INPUT_ERRORS = {
        "gen_out_missing_dir": ([*GEN, "{dir}/no/d.json", "--scenario", "{dir}/s.json", "--seed", "1"], "{dir}/no/d.json"),
        "complexity_out_missing_dir": (["complexity", "--preset", "bern_pA", "--out", "{dir}/no/c.csv"], "{dir}/no/c.csv"),
        "bench_out_missing_dir": (["bench", "--config", "{dir}/bench.json", "--out", "{dir}/no/r.csv"], "{dir}/no/r.csv"),
        "fit_out_directory": (["fit", "--data", "{dir}/data.json", "--estimator", "pbp", "--out", "{dir}"], "{dir}"),
        "fit_data_directory": (["fit", "--data", "{dir}", "--estimator", "pbp", "--out", "{dir}/m.json"], "{dir}"),
        "deeply_nested_json": ([*GEN, "{dir}/d.json", "--scenario", "{dir}/deep.json", "--seed", "1"], "{dir}/deep.json"),
        "not_utf8": ([*GEN, "{dir}/d.json", "--scenario", "{dir}/latin1.json", "--seed", "1"], "{dir}/latin1.json"),
        "gen_negative_seed": ([*GEN, "{dir}/d.json", "--scenario", "{dir}/s.json", "--seed", "-1"], "--seed"),
        "eval_negative_seed": (["eval", "--model", "{dir}/model.json", "--scenario", "{dir}/s.json", "--seed", "-1"], "--seed"),
    }

    @pytest.mark.parametrize("case", list(FILE_AND_INPUT_ERRORS))
    def test_file_and_input_errors_are_config_errors(self, tmp_path, tiny_scenario_file, case):
        """A file that cannot be opened, read or parsed, and a negative
        seed, exit 2 with one line naming the file or argument."""
        (tmp_path / "s.json").write_text(tiny_scenario_file.read_text())
        bench = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "cst_impute_lr"}], "n_grid": [50]}
        (tmp_path / "bench.json").write_text(json.dumps({**bench, "repetitions": 1, "n_test": 100}))
        data = {"d": 1, "n": 2, "values": [[0.0], [1.0]], "mask": ["0", "0"], "responses": [0.0, 1.0]}
        (tmp_path / "data.json").write_text(json.dumps(data))
        model = {"kind": "constant_impute", "d": 2, "intercept": 0.0, "coef": [1.0] * 4}
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        (tmp_path / "latin1.json").write_bytes('{"name": "café"}'.encode("latin-1"))
        command, named = self.FILE_AND_INPUT_ERRORS[case]
        done = run_module(*(arg.format(dir=tmp_path) for arg in command), cwd=tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named.format(dir=tmp_path) in lines[0]


class TestOutputPath:
    """``--out`` is checked before the work: a path that names a directory,
    or whose directory does not exist, exits 2 with one line naming it,
    creates no file, and runs no cell, draw, fit or bound."""

    # each command, with {dir} for the test's directory, and the function
    # that does its work
    COMMANDS = {
        "bench": (["bench", "--config", "{dir}/bench.json"], (harness, "_run_cell")),
        "complexity": (["complexity", "--preset", "bern_pA"], (complexity, "bound_report")),
        "gen": (["gen", "--scenario", "{dir}/s.json", "--n", "50", "--seed", "1"], (Scenario, "generate")),
        "fit": (["fit", "--data", "{dir}/data.json", "--estimator", "pbp"], (EstimatorSpec, "fit")),
    }

    def inputs(self, tmp_path, tiny_scenario_file):
        """Each command's input files, a directory ``folder`` and a regular
        file ``file.txt`` in the test's directory; returns what it holds."""
        (tmp_path / "s.json").write_text(tiny_scenario_file.read_text())
        bench = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "cst_impute_lr"}], "n_grid": [50]}
        (tmp_path / "bench.json").write_text(json.dumps({**bench, "repetitions": 1, "n_test": 100}))
        data = {"d": 1, "n": 2, "values": [[0.0], [1.0]], "mask": ["0", "0"], "responses": [0.0, 1.0]}
        (tmp_path / "data.json").write_text(json.dumps(data))
        (tmp_path / "folder").mkdir()
        (tmp_path / "file.txt").write_text("")
        return sorted(tmp_path.rglob("*"))

    @pytest.mark.parametrize("out", ["no/out", "folder"], ids=["missing_dir", "directory"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_out_fails_before_the_work(self, tmp_path, tiny_scenario_file, monkeypatch, capsys, command, out):
        before = self.inputs(tmp_path, tiny_scenario_file)
        argv, (owner, name) = self.COMMANDS[command]
        work = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return work(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        path = str(tmp_path / out)
        capsys.readouterr()
        assert main([arg.format(dir=tmp_path) for arg in argv] + ["--out", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and path in lines[0]
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["file.txt/out", "file.txt/sub/out"], ids=["below_file", "two_below_file"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_below_a_file_fails_before_the_work(self, tmp_path, tiny_scenario_file, monkeypatch, capsys, command, out):
        # open names a path through a regular file "Not a directory" (ENOTDIR), not missing
        before = self.inputs(tmp_path, tiny_scenario_file)
        argv, (owner, name) = self.COMMANDS[command]
        calls = []
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(name))
        path = str(tmp_path / out)
        with pytest.raises(NotADirectoryError):
            open(path, "w")
        capsys.readouterr()
        assert main([arg.format(dir=tmp_path) for arg in argv] + ["--out", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {path!r}"]
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_failing_command_keeps_an_existing_file(self, tmp_path, capsys):
        config = {
            "scenario": {
                "kind": "self_masking", "d": 2, "beta0": 0.0, "beta": [1.0, 1.0], "sigma": 0.1, "mu": [0.0, 0.0],
                "cov": [[1.0, 0.0], [0.0, 1.0]], "mask_center": [0.0, 0.0], "mask_scale": [1.0, 1.0],
            },
            "estimators": [{"kind": "cst_impute_lr"}],
            "n_grid": [50],
            "repetitions": 1,
            "n_test": 100,
        }
        (tmp_path / "bench.json").write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        out.write_bytes(b"earlier,run\n1,2\n")
        # self-masking has no exact optimum, so bench fails after the check
        assert main(["bench", "--config", str(tmp_path / "bench.json"), "--out", str(out)]) == 3
        assert out.read_bytes() == b"earlier,run\n1,2\n"
        assert capsys.readouterr().out == ""


class TestModuleEntryPoint:
    def test_help_exits_zero(self, tmp_path):
        done = run_module("--help", cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: patternlab")


class TestMalformedInputs:
    """Inputs of the right JSON syntax but the wrong shape exit 2 with a
    message naming the file or the field."""

    @pytest.fixture()
    def list_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        return path

    def test_gen_scenario_not_an_object(self, tmp_path, list_file, capsys):
        out = tmp_path / "d.json"
        assert main(["gen", "--scenario", str(list_file), "--n", "10", "--seed", "1", "--out", str(out)]) == 2
        assert f"{list_file}: the top level must be a JSON object" in capsys.readouterr().err

    def test_eval_model_not_an_object(self, tmp_path, list_file, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "mcar_a"}))
        assert main(["eval", "--model", str(list_file), "--scenario", str(scenario), "--seed", "1"]) == 2
        assert f"{list_file}: the top level must be a JSON object" in capsys.readouterr().err

    @staticmethod
    def bench_error(tmp_path, capsys, config) -> str:
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        return capsys.readouterr().err

    def test_bench_config_without_scenario(self, tmp_path, capsys):
        config = {"estimators": [{"kind": "pbp", "tau": "d_over_n"}], "n_grid": [100], "repetitions": 1}
        assert "missing field 'scenario'" in self.bench_error(tmp_path, capsys, config)

    def test_scenario_without_covariance(self, tmp_path, tiny_scenario_file, capsys):
        scenario = json.loads(tiny_scenario_file.read_text())
        del scenario["cov"]
        config = {"scenario": scenario, "estimators": [{"kind": "cst_impute_lr"}], "n_grid": [100]}
        config["repetitions"] = 1
        assert "missing field 'cov'" in self.bench_error(tmp_path, capsys, config)

    def test_n_grid_not_an_array(self, tmp_path, capsys):
        config = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "cst_impute_lr"}], "n_grid": 100}
        config["repetitions"] = 1
        assert "field 'n_grid'" in self.bench_error(tmp_path, capsys, config)

    def test_bool_rounds_is_config_error(self, tmp_path, capsys):
        config = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "iterative_impute_lr", "rounds": True}]}
        config.update(n_grid=[100], repetitions=1)
        assert "rounds must be an integer >= 1, got True" in self.bench_error(tmp_path, capsys, config)

    def test_repeated_estimator_name_is_config_error(self, tmp_path, capsys):
        estimators = [{"kind": "pbp", "tau": 0.1234567}, {"kind": "pbp", "tau": 0.1234568}]
        config = {"scenario": {"preset": "mcar_a"}, "estimators": estimators, "n_grid": [100], "repetitions": 1}
        err = self.bench_error(tmp_path, capsys, config)
        assert "estimator names must be distinct; 'pbp_tau_0.123457' is given twice" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: c["estimators"][0].update(clip=True), "field 'clip' must be a number, got True"),
            (lambda c: c["estimators"][0].update(ball_radius=True), "field 'ball_radius' must be a number, got True"),
            (lambda c: c.update(repetitions=True), "field 'repetitions' must be a number, got True"),
            (lambda c: c.update(seed=True), "field 'seed' must be a number, got True"),
            (lambda c: c.update(n_test=False), "field 'n_test' must be a number, got False"),
            (lambda c: c["scenario"].update(sigma=True), "field 'sigma' must be a number, got True"),
            (lambda c: c.update(record_timings="false"), "field 'record_timings' must be a JSON boolean, got 'false'"),
            (lambda c: c.update(record_timings=0), "field 'record_timings' must be a JSON boolean, got 0"),
        ],
        ids=["clip", "ball_radius", "repetitions", "seed", "n_test", "sigma", "record_timings_str", "record_timings_int"],
    )
    def test_bench_types_are_not_coerced(self, tmp_path, tiny_scenario_file, capsys, change, message):
        config = {
            "scenario": json.loads(tiny_scenario_file.read_text()),
            "estimators": [{"kind": "pbp", "tau": "d_over_n", "clip": 5.0, "ball_radius": 4.0}],
            "n_grid": [100],
            "repetitions": 1,
            "n_test": 200,
            "record_timings": False,
        }
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "ok.csv")]) == 0
        change(config)
        assert message in self.bench_error(tmp_path, capsys, config)

    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda c: c["estimators"][0].update(clip_level=3), "clip_level"),
            (lambda c: c["estimators"][0].update(tau_rule=0.5), "tau_rule"),
            (lambda c: c["estimators"].append({"kind": "iterative_impute_lr", "round": 3}), "round"),
            (lambda c: c.update(ntest=100), "ntest"),
            (lambda c: c.update(recordtimings=False), "recordtimings"),
        ],
        ids=["clip_level", "tau_rule", "round", "ntest", "recordtimings"],
    )
    def test_fields_no_reader_reads_are_rejected(self, tmp_path, capsys, change, field):
        """A misspelt field used to be ignored, so its default ran: an unclipped
        pbp, a d_over_n threshold, 10 rounds, 10,000 test rows, timings."""
        config = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "pbp"}]}
        config.update(n_grid=[100], repetitions=1, n_test=200)
        change(config)
        err = self.bench_error(tmp_path, capsys, config)
        assert f"unknown field {field!r}" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("repetitions", 2.5),
            ("repetitions", 0),
            ("repetitions", "2"),
            ("n_test", 1000.9),
            ("n_test", -200),
            ("seed", 3.7),
            ("seed", "7"),
            ("n_grid", [True, 100]),
            ("n_grid", [100.7]),
            ("n_grid", ["100"]),
            ("n_grid", [0, 100]),
            ("n_grid", [-5, 100]),
        ],
    )
    def test_bench_counts_are_strict_integers(self, tmp_path, capsys, field, value):
        config = {"scenario": {"preset": "mcar_a"}, "estimators": [{"kind": "cst_impute_lr"}]}
        config.update(n_grid=[100], repetitions=1, n_test=200)
        config[field] = value
        err = self.bench_error(tmp_path, capsys, config)
        assert field in err and "Traceback" not in err

    def test_pbp_model_bool_tau(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "mcar_a"}))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"tau": True, "clip": None, "d": 8, "models": []}))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--scenario", str(scenario), "--n-test", "200", "--seed", "1"]) == 2
        assert "field 'tau' must be a number, got True" in capsys.readouterr().err


class TestEvalModelShapes:
    """``eval`` checks a model against its own dimension and the scenario's
    before predicting, and exits 2 with one line naming what is wrong."""

    @pytest.fixture()
    def fitted(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "mcar_a"}))
        data, model = tmp_path / "data.json", tmp_path / "model.json"
        assert main(["gen", "--scenario", str(scenario), "--n", "200", "--seed", "3", "--out", str(data)]) == 0
        fit = ["fit", "--data", str(data), "--estimator", "iterative_impute_lr", "--rounds", "2", "--out", str(model)]
        assert main(fit) == 0
        return scenario, model

    @staticmethod
    def eval_error(tmp_path, capsys, scenario, payload) -> str:
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--scenario", str(scenario), "--n-test", "200", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        return captured.err

    @pytest.mark.parametrize(
        "field, change",
        [
            ("column_models", lambda p: p.update(column_models=p["column_models"][:3])),
            ("column_means", lambda p: p.update(column_means=p["column_means"][:5])),
            ("coef", lambda p: p.update(coef=p["coef"] + [1.0])),
            ("column_models[2]", lambda p: p["column_models"][2].update(coef=[0.0] * 8)),
            ("rounds", lambda p: p.update(rounds=0)),
        ],
    )
    def test_iterative_impute_shapes(self, tmp_path, capsys, fitted, field, change):
        scenario, model = fitted
        payload = json.loads(model.read_text())
        change(payload)
        assert field in self.eval_error(tmp_path, capsys, scenario, payload)

    def test_constant_impute_coefficient_count(self, tmp_path, capsys, fitted):
        scenario, _ = fitted
        payload = {"kind": "constant_impute", "d": 8, "intercept": 0.0, "coef": [0.0] * 8}
        assert "coef must hold 2d=16 numbers" in self.eval_error(tmp_path, capsys, scenario, payload)

    def test_dimension_must_match_the_scenario(self, tmp_path, fitted):
        scenario, _ = fitted
        model = tmp_path / "small_model.json"
        model.write_text(json.dumps({"kind": "constant_impute", "d": 3, "intercept": 0.0, "coef": [0.0] * 6}))
        done = run_module("eval", "--model", str(model), "--scenario", str(scenario), "--seed", "1", cwd=tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == ["error: model dimension 3 does not match scenario dimension 8"]
