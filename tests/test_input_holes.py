"""Outside numbers that used to load silently: fractional dimensions that
were truncated, a boolean bandwidth, NaN rates and probabilities, and
booleans or strings in a constructor's arrays or a probe's observed values.
Each is a ValueError naming the field or argument, and the CLI exits 2."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patternlab import (
    AffineModel,
    BernoulliPatterns,
    ExplicitPatterns,
    GaussianParams,
    GpmmScenario,
    HomogeneousBernoulli,
    IterativeImputeRegression,
    MarBlockScenario,
    MaskedDataset,
    McarGaussianScenario,
    MergeModel,
    MissingPattern,
    SelfMaskingScenario,
    bayes_oracle_mc,
    heterogeneous_complexity_bound,
    preset,
)
from patternlab.cli import main
from patternlab.estimators import ConstantImputeRegression, PbpRegression, model_from_json
from patternlab.distributions import distribution_from_json, explicit_from_json, merge_from_json
from patternlab.simulate import scenario_from_json

NAN = float("nan")
GAUSS = {"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
LINEAR = {"beta0": 0.5, "beta": [1.0, 2.0], "sigma": 0.2}


def scenario(**fields):
    return {"kind": "mcar_gaussian", "d": 2, **LINEAR, **GAUSS, "missingness": {"kind": "uniform", "d": 2}, **fields}


def gpmm(p):
    components = [{"p": 0.5, "mask": "00", **GAUSS}, {"p": p, "mask": "10", **GAUSS}]
    return {"kind": "gpmm", "d": 2, **LINEAR, "components": components}


def self_masking(**fields):
    masking = {"mask_center": [0.0, 0.0], "mask_scale": [1.0, 1.0]}
    return {"kind": "self_masking", "d": 2, **LINEAR, **GAUSS, **masking, **fields}


DATASET = {"d": 2, "n": 2, "values": [[1.0, None], [0.5, 2.0]], "mask": ["01", "00"], "responses": [1.0, 2.0]}
PBP = {"tau": 0.1, "clip": None, "d": 2, "models": [{"mask": "00", "intercept": 0.0, "coef": [1.0, 1.0]}]}
CONSTANT = {"kind": "constant_impute", "d": 2, "intercept": 0.0, "coef": [1.0, 1.0, 0.0, 0.0]}
ITERATIVE = {
    "kind": "iterative_impute",
    "d": 2,
    "rounds": 1,
    "column_means": [0.0, 0.0],
    "column_models": [None, None],
    "intercept": 0.0,
    "coef": [1.0, 1.0],
}


def cli_error(tmp_path, capsys, kind: str, payload: dict) -> str:
    """Run the CLI command that reads ``payload`` as a ``kind`` file; assert
    exit 2 and return stderr."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({"preset": "mcar_a"}))
    out = tmp_path / "out"
    argv = {
        "distribution": ["complexity", "--dist", str(path), "--tau-grid", "0.1,0.5", "--out", str(out)],
        "scenario": ["gen", "--scenario", str(path), "--n", "10", "--seed", "1", "--out", str(out)],
        "dataset": ["fit", "--data", str(path), "--estimator", "pbp", "--out", str(out)],
        "model": ["eval", "--model", str(path), "--scenario", str(scenario_file), "--n-test", "200", "--seed", "1"],
        "no_law": ["complexity", "--tau-grid", "0.1,0.5", "--out", str(out)],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


READERS = {
    "distribution": distribution_from_json,
    "scenario": scenario_from_json,
    "dataset": MaskedDataset.from_json,
    "model": model_from_json,
}


@pytest.mark.parametrize("d", [3.9, 2.5, 2.7])
@pytest.mark.parametrize(
    "kind, payload",
    [
        ("distribution", {"kind": "uniform"}),
        ("distribution", {"kind": "homogeneous_bernoulli", "epsilon": 0.1}),
        ("distribution", {"patterns": [{"mask": "00", "p": 1.0}]}),
        ("scenario", scenario()),
        ("dataset", DATASET),
        ("model", PBP),
        ("model", CONSTANT),
        ("model", ITERATIVE),
    ],
    ids=["uniform", "homogeneous", "explicit", "scenario", "dataset", "pbp", "constant_impute", "iterative_impute"],
)
def test_fractional_dimension_is_rejected(tmp_path, capsys, kind, payload, d):
    payload = {**payload, "d": d}
    with pytest.raises(ValueError, match="field 'd'"):
        READERS[kind](payload)
    assert "field 'd'" in cli_error(tmp_path, capsys, kind, payload)


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        ("distribution", {"kind": "homogeneous_bernoulli", "d": 4, "epsilon": NAN}, "epsilon"),
        ("distribution", {"kind": "heterogeneous_bernoulli", "epsilons": [0.1, NAN]}, "epsilons"),
        ("distribution", {"d": 1, "patterns": [{"mask": "0", "p": 1.0}, {"mask": "1", "p": NAN}]}, "p"),
        ("distribution", {"kind": "merge", "protocols": ["00", "11"], "weights": [1.0, NAN], "eta": 0.1}, "weights"),
        ("scenario", scenario(missingness={"kind": "homogeneous_bernoulli", "d": 2, "epsilon": NAN}), "epsilon"),
        ("scenario", gpmm(NAN), "p"),
        ("scenario", self_masking(mask_center=[0.0, NAN]), "mask_center"),
        ("scenario", self_masking(mask_scale=[NAN, 1.0]), "mask_scale"),
    ],
    ids=["homogeneous", "heterogeneous", "explicit", "merge", "scenario_missingness", "gpmm", "center", "scale"],
)
def test_nan_is_rejected_from_json(tmp_path, capsys, kind, payload, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        READERS[kind](payload)
    assert f"field '{field}'" in cli_error(tmp_path, capsys, kind, payload)


def gpmm_of(*components):
    """A d = 2 gpmm scenario of (p, mask, Gaussian) components."""
    entries = [{"p": p, "mask": m, **gauss} for p, m, gauss in components]
    return {"kind": "gpmm", "d": 2, **LINEAR, "components": entries}


GAUSS3 = {"mu": [0.0] * 3, "cov": np.eye(3).tolist()}
MAR_BLOCK = {"kind": "mar_block", "d": 2, **LINEAR, "block_cov": [[1.0]]}


@pytest.mark.parametrize(
    "kind, payload, fragment",
    [
        ("no_law", {}, "give --preset and/or --dist"),
        ("model", PBP, "model dimension 2 does not match scenario dimension 8"),
        ("dataset", {**DATASET, "n": 3}, "fields 'mask' and 'values' must hold n=3 rows, got 2 and 2"),
        ("model", {**PBP, "models": [{"mask": "01", "intercept": 0.0, "coef": [1.0, 1.0]}]}, "mask '01' needs 1 coef"),
        ("scenario", scenario(missingness={"kind": "uniform", "d": 3}), "missingness dimension does not match beta"),
        ("scenario", {**MAR_BLOCK, "d": 3, "beta": [1.0] * 3}, "dimension must split into two equal blocks"),
        ("scenario", {**MAR_BLOCK, "block_cov": np.eye(2).tolist()}, "block covariance must be 1x1, got (2, 2)"),
        ("scenario", gpmm_of((1.0, "00", GAUSS), (0.0, "10", GAUSS)), "component probabilities must be positive"),
        ("scenario", gpmm_of((0.5, "00", GAUSS), (0.5, "10", GAUSS3)), "component Gaussians must match the scenario"),
        ("scenario", gpmm_of((0.5, "00", GAUSS), (0.5, "00", GAUSS)), "duplicate mask '00'"),
        ("scenario", scenario(beta=[1.0, 2.0, 3.0]), "beta must have length 2"),
        ("distribution", {"kind": "heterogeneous_bernoulli", "epsilons": []}, "epsilons must be a nonempty"),
        ("distribution", {"kind": "merge", "protocols": [], "weights": [], "eta": 0.1}, "at least one protocol"),
        ("distribution", {"kind": "merge", "protocols": ["00", "11"], "weights": [1.0], "eta": 0.1}, "one weight per"),
        ("distribution", {"d": 2, "patterns": [{"mask": "01", "p": 0.5}] * 2}, "duplicate mask '01'"),
    ],
    ids=[
        "complexity_without_law",
        "eval_dimension",
        "dataset_rows",
        "pbp_coefficient_count",
        "mcar_missingness_dimension",
        "mar_block_odd_d",
        "mar_block_cov_shape",
        "gpmm_zero_probability",
        "gpmm_gaussian_dimension",
        "gpmm_repeated_mask",
        "beta_length",
        "heterogeneous_no_rates",
        "merge_no_protocols",
        "merge_weight_count",
        "explicit_repeated_mask",
    ],
)
def test_cli_rejection_names_its_cause(tmp_path, capsys, kind, payload, fragment):
    """Each check exits 2, writes nothing and prints one message, no traceback."""
    assert fragment in cli_error(tmp_path, capsys, kind, payload)


@pytest.mark.parametrize("field", ["mask_center", "mask_scale", "mask_peak_prob"])
def test_self_masking_vector_of_another_length_is_named(tmp_path, capsys, field):
    """A self-masking vector of neither 1 nor d entries used to fail with numpy's broadcasting text."""
    message = f"{field} must hold 1 or d=2 numbers, got shape (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), **{"mask_center": 0, "mask_scale": 1, field: [0.5] * 3})
    assert message in cli_error(tmp_path, capsys, "scenario", self_masking(**{field: [0.5] * 3}))


def _gaussian():
    return GaussianParams(np.zeros(2), np.eye(2))


def _iterative(column_means):
    return IterativeImputeRegression(2, column_means, (None, None), 1, AffineModel(0.0, [1.0, 1.0]))


LAST_MISSING = MissingPattern.from_string("00000001")


@pytest.mark.parametrize(
    "build, argument",
    [
        (lambda: HomogeneousBernoulli(4.5, 0.1), "dimension"),
        (lambda: MissingPattern(0, 3.9), "dimension"),
        (lambda: MissingPattern(1.0, 2), "bits"),
        (lambda: MissingPattern(True, 2), "bits"),
        (lambda: HomogeneousBernoulli(4, NAN), "epsilon"),
        (lambda: BernoulliPatterns([0.1, NAN]), "epsilons"),
        (lambda: ExplicitPatterns(1, {MissingPattern(0, 1): 1.0, MissingPattern(1, 1): NAN}), "probabilities"),
        (lambda: MergeModel([MissingPattern(0, 2), MissingPattern(3, 2)], [1.0, NAN], 0.1), "weights"),
        (
            lambda: GpmmScenario(
                0.0,
                [1.0, 1.0],
                0.1,
                [(1.0, MissingPattern(0, 2), _gaussian()), (NAN, MissingPattern(1, 2), _gaussian())],
            ),
            "component probabilities",
        ),
        (lambda: SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), [0.0, NAN], 1.0), "mask_center"),
        (lambda: SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), 0.0, [NAN, 1.0]), "mask_scale"),
        (lambda: GaussianParams(["0", False], [[1, 0], [0, 1]]), "mean"),
        (lambda: GaussianParams([0, 0], [[1, 0], [0, True]]), "covariance"),
        (lambda: McarGaussianScenario(0.0, [True, "2"], 0.1, _gaussian(), HomogeneousBernoulli(2, 0.1)), "beta"),
        (lambda: MarBlockScenario(0.0, [1.0, 1.0], 0.1, [[True]]), "block_cov"),
        (lambda: SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), [True, 0.0], 1.0), "mask_center"),
        (lambda: SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), 0.0, ["1", 1.0]), "mask_scale"),
        (lambda: SelfMaskingScenario(0.0, [1.0, 1.0], 0.1, _gaussian(), 0.0, 1.0, [0.5, False]), "mask_peak_prob"),
        (lambda: AffineModel(0.0, [True, "1.5"]), "coefficients"),
        (lambda: AffineModel(True, [1.0]), "intercept"),
        (lambda: _iterative([True, "1"]), "column_means"),
        (lambda: preset("mcar_a").bayes_predict([True, "0.5", 1, 1, 1, 1, 1], LAST_MISSING), "x_obs"),
        (
            lambda: bayes_oracle_mc(
                preset("mcar_a"), [True, "0.5", 1, 1, 1, 1, 1], LAST_MISSING, 1000, rng=np.random.default_rng(0)
            ),
            "x_obs",
        ),
        (lambda: heterogeneous_complexity_bound(2, 100, ["0.1", True]), r"epsilons\[0\] must be a number"),
    ],
    ids=[
        "fractional_d",
        "fractional_pattern_d",
        "fractional_pattern_bits",
        "boolean_pattern_bits",
        "homogeneous",
        "heterogeneous",
        "explicit",
        "merge",
        "gpmm",
        "center",
        "scale",
        "string_mean",
        "boolean_covariance",
        "string_beta",
        "boolean_block_cov",
        "boolean_center",
        "string_scale",
        "boolean_peak",
        "string_affine_coefficients",
        "boolean_affine_intercept",
        "string_column_means",
        "string_bayes_x_obs",
        "string_oracle_x_obs",
        "string_heterogeneous_bound_rates",
    ],
)
def test_constructors_reject_what_readers_reject(build, argument):
    with pytest.raises(ValueError, match=argument):
        build()


def test_duplicated_model_mask_is_named(tmp_path, capsys):
    """A model file listing a mask twice names the mask, as a pattern law does."""
    entry = {"mask": "01", "intercept": 0.0, "coef": [1.0]}
    payload = {**PBP, "models": [entry, PBP["models"][0], entry]}
    with pytest.raises(ValueError, match="duplicate mask '01'"):
        model_from_json(payload)
    assert "duplicate mask '01'" in cli_error(tmp_path, capsys, "model", payload)


@pytest.mark.parametrize(
    "payload", [{"kind": "pbp", "models": [], "d": 2, "tau": 0.1}, {**PBP, "kind": "pbp"}, {**CONSTANT, "kind": "pbp"}]
)
def test_unknown_model_kind_is_named(tmp_path, capsys, payload):
    """A kind-tagged payload holding 'models' used to be reported as having no field 'models'."""
    with pytest.raises(ValueError) as caught:
        model_from_json(payload)
    message = str(caught.value)
    assert message.startswith("unknown model kind 'pbp'") and "a pbp model file carries no 'kind'" in message
    assert "no field 'models'" not in message
    assert message in cli_error(tmp_path, capsys, "model", payload)


def test_boolean_bandwidth_is_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="bandwidth"):
        bayes_oracle_mc(preset("mcar_a"), np.ones(8), MissingPattern(0, 8), 20_000, bandwidth=True, rng=rng)


def test_complexity_of_a_nan_rate_exits_2(tmp_path):
    """End to end: the law used to give cp_exact 0.0 with every bound flagged valid."""
    dist = tmp_path / "dist.json"
    dist.write_text('{"kind": "homogeneous_bernoulli", "d": 4, "epsilon": NaN}')
    out = tmp_path / "cp.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["complexity", "--dist", str(dist), "--tau-grid", "0.1,0.5", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "patternlab", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2 and done.stdout == "" and not out.exists()
    assert done.stderr.splitlines() == ["error: field 'epsilon' must be a probability in [0, 1], got nan"]


def merge_scenario(**fields):
    merge = {"protocols": ["00", "10"], "weights": [0.5, 0.5], "eta": 0.1}
    return {"kind": "merge", "d": 2, **LINEAR, **GAUSS, **merge, **fields}


def _with_entry_field(payload, key, index, **fields):
    entries = [dict(entry) if isinstance(entry, dict) else entry for entry in payload[key]]
    entries[index] = {**entries[index], **fields}
    return {**payload, key: entries}


def _misspelt(payload, field, typo):
    """``payload`` with ``field`` renamed to ``typo``."""
    return {typo if key == field else key: value for key, value in payload.items()}


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        ("scenario", self_masking(mask_peak=0.95), "mask_peak"),
        ("scenario", scenario(mask_center=[0.0, 0.0]), "mask_center"),
        ("scenario", {**MAR_BLOCK, "cov": [[1.0]]}, "cov"),
        ("scenario", merge_scenario(missingness={"kind": "uniform", "d": 2}), "missingness"),
        ("scenario", _with_entry_field(gpmm(0.5), "components", 1, sigma=1.0), "sigma"),
        ("scenario", scenario(missingness={"kind": "uniform", "d": 2, "epsilon": 0.1}), "epsilon"),
        ("scenario", {"preset": "mcar_a", "name": "mine"}, "name"),
        ("distribution", {"kind": "homogeneous_bernoulli", "d": 2, "epsilon": 0.1, "epsilons": [0.1]}, "epsilons"),
        ("distribution", {"kind": "heterogeneous_bernoulli", "epsilons": [0.1], "d": 1}, "d"),
        ("distribution", {"kind": "merge", "protocols": ["00"], "weights": [1.0], "eta": 0.1, "d": 2}, "d"),
        ("distribution", {"kind": "uniform", "d": 2, "epsilon": 0.5}, "epsilon"),
        ("distribution", {"d": 1, "patterns": [{"mask": "0", "p": 1.0}], "eta": 0.1}, "eta"),
        ("distribution", {"d": 1, "patterns": [{"mask": "0", "p": 1.0, "weight": 1.0}]}, "weight"),
        ("model", {**CONSTANT, "rounds": 3}, "rounds"),
        ("model", {**PBP, "rounds": 3}, "rounds"),
        ("model", {**ITERATIVE, "clip": 1.0}, "clip"),
        ("model", _with_entry_field(PBP, "models", 0, tau=0.5), "tau"),
        ("model", {**ITERATIVE, "column_models": [None, {"intercept": 0.0, "coef": [1.0], "d": 1}]}, "d"),
        ("dataset", {**DATASET, "weights": [1.0, 1.0]}, "weights"),
        # a misspelt required field is named as unknown, not reported as missing: each reader
        # checks its field names before it reads any field
        ("distribution", {"kind": "homogeneous_bernoulli", "d": 4, "epsilom": 0.1}, "epsilom"),
        ("scenario", {**gpmm(0.5), "components": [_misspelt(c, "cov", "co") for c in gpmm(0.5)["components"]]}, "co"),
        ("scenario", _misspelt(scenario(), "sigma", "sigm"), "sigm"),
        ("dataset", _misspelt(DATASET, "responses", "response"), "response"),
    ],
    ids=[
        "self_masking_misspelt_peak",
        "mcar_self_masking_field",
        "mar_block_cov",
        "merge_missingness",
        "gpmm_component",
        "scenario_missingness",
        "preset_name",
        "homogeneous_epsilons",
        "heterogeneous_d",
        "merge_d",
        "uniform_epsilon",
        "explicit_eta",
        "explicit_entry",
        "constant_impute_rounds",
        "pbp_rounds",
        "iterative_impute_clip",
        "pbp_entry",
        "iterative_column_model",
        "dataset",
        "misspelt_required_epsilon",
        "misspelt_required_component_cov",
        "misspelt_required_sigma",
        "misspelt_required_responses",
    ],
)
def test_unknown_field_is_named(tmp_path, capsys, kind, payload, field):
    """A field that its reader does not read used to be ignored, so a misspelt one silently took its default."""
    fragment = f"unknown field '{field}'"
    with pytest.raises(ValueError, match=fragment):
        READERS[kind](payload)
    assert fragment in cli_error(tmp_path, capsys, kind, payload)


@pytest.mark.parametrize(
    "reader, payload, field",
    [
        (explicit_from_json, {"d": 1, "patterns": [{"mask": "0", "p": 1.0}], "eta": 0.1}, "eta"),
        (merge_from_json, {"protocols": ["00"], "weights": [1.0], "eta": 0.1, "d": 2}, "d"),
        (PbpRegression.from_json, {**PBP, "rounds": 3}, "rounds"),
        (ConstantImputeRegression.from_json, {**CONSTANT, "rounds": 3}, "rounds"),
        (IterativeImputeRegression.from_json, {**ITERATIVE, "clip": 1.0}, "clip"),
    ],
    ids=["explicit_eta", "merge_d", "pbp_rounds", "constant_impute_rounds", "iterative_impute_clip"],
)
def test_per_class_reader_names_an_unknown_field(reader, payload, field):
    """A library caller reaches these readers without the dispatcher, which used to be the only one checking."""
    with pytest.raises(ValueError, match=f"unknown field '{field}'"):
        reader(payload)


@pytest.mark.parametrize("name", [{"a": [1, 2]}, "", 3, ["mcar"], True])
def test_scenario_name_is_a_nonempty_string(tmp_path, capsys, name):
    """A name of any other JSON value used to reach the CSV as its Python repr."""
    config = {"scenario": scenario(name=name), "estimators": [{"kind": "pbp"}], "n_grid": [50], "repetitions": 1}
    path, out = tmp_path / "bench.json", tmp_path / "bench.csv"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"field 'name' must be a nonempty string, got {name!r}" in capsys.readouterr().err


def test_scenario_name_defaults_to_its_kind():
    assert scenario_from_json(scenario()).name == "mcar_gaussian"
    assert scenario_from_json(scenario(name="mine")).name == "mine"
    assert scenario_from_json({"preset": "gpmm_c"}).name == "gpmm_c"
