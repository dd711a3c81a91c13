"""Outside numbers that used to load silently: fractional dimensions that
were truncated, a boolean bandwidth, and NaN rates and probabilities. Each
is a ValueError naming the field or argument, and the CLI exits 2."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patternlab import (
    BernoulliPatterns,
    ExplicitPatterns,
    GaussianParams,
    GpmmScenario,
    HomogeneousBernoulli,
    MergeModel,
    MissingPattern,
    SelfMaskingScenario,
    bayes_oracle_mc,
    preset,
)
from patternlab.cli import main
from patternlab.datafiles import dataset_from_json, model_from_json
from patternlab.distributions import distribution_from_json
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
    "dataset": dataset_from_json,
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


def _gaussian():
    return GaussianParams(np.zeros(2), np.eye(2))


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
    ],
)
def test_constructors_reject_what_readers_reject(build, argument):
    with pytest.raises(ValueError, match=argument):
        build()


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
