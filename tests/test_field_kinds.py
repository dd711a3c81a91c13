"""The field kinds, and one mutation property over every JSON reader: a
reader given a valid object with one field dropped or swapped either loads
it or raises a ValueError that names the field, and the CLI command that
reads it exits 0, 2 or 3 without a traceback."""

import contextlib
import copy
import io
import json
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from patternlab.cli import main
from patternlab.distributions import distribution_from_json
from patternlab.estimators import EstimatorSpec, fit_constant_impute, fit_iterative_impute, fit_pbp, model_from_json
from patternlab.harness import estimator_spec_from_json, experiment_config_from_json
from patternlab.patterns import (
    MaskedDataset,
    MissingPattern,
    array,
    boolean,
    count,
    dimension,
    integer,
    json_field,
    mapping,
    mask,
    matrix,
    nested,
    noise_level,
    number,
    numbers,
    positive,
    probability,
    rate,
    records,
    threshold,
    vector,
)
from patternlab.simulate import scenario_from_json


class TestKinds:
    @pytest.mark.parametrize(
        "kind, value, expected",
        [
            (count, 3, 3),
            (count, np.int64(2), 2),
            (dimension, 63, 63),
            (dimension, np.int32(1), 1),
            (integer, -4, -4),
            (integer, np.uint8(7), 7),
            (number, 2, 2.0),
            (number, np.float32(0.5), 0.5),
            (probability, 0, 0.0),
            (probability, 1.0, 1.0),
            (threshold, 1, 1.0),
            (rate, 0.5, 0.5),
            (positive, 1e-300, 1e-300),
            (noise_level, 0.0, 0.0),
            (boolean, False, False),
            (array, [], []),
            (records, [{}], [{}]),
            (mapping, {"a": 1}, {"a": 1}),
        ],
    )
    def test_accepts(self, kind, value, expected):
        out = kind(value, "x")
        assert out == expected and type(out) is type(expected)

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            (count, True, "x must be an integer >= 1, got True"),
            (count, 2.0, "x must be an integer >= 1, got 2.0"),
            (count, 0, "x must be an integer >= 1, got 0"),
            (dimension, 3.9, "x must be an integer in [1, 63], got 3.9"),
            (dimension, 64, "x must be an integer in [1, 63], got 64"),
            (dimension, np.int64(0), "x must be an integer in [1, 63], got 0"),
            (integer, True, "x must be a number, got True"),
            (integer, 3.7, "x must be an integer, got 3.7"),
            (integer, "7", "x must be a number, got '7'"),
            (number, True, "x must be a number, got True"),
            (number, None, "x must be a number, got None"),
            (number, float("nan"), "x must be finite, got nan"),
            (number, -float("inf"), "x must be finite, got -inf"),
            (number, 10**400, "x must be finite, got " + str(10**400)),
            (probability, float("nan"), "x must be a probability in [0, 1], got nan"),
            (probability, np.float64(-0.1), "x must be a probability in [0, 1], got -0.1"),
            (probability, False, "x must be a number, got False"),
            (threshold, 0.0, "x must be in (0, 1], got 0.0"),
            (rate, 1.0, "x must be strictly inside (0, 1), got 1.0"),
            (positive, 0.0, "x must be positive and finite, got 0.0"),
            (positive, float("inf"), "x must be positive and finite, got inf"),
            (noise_level, -1.0, "x must be a finite, nonnegative noise level, got -1.0"),
            (boolean, 0, "x must be a JSON boolean, got 0"),
            (array, {}, "x must be an array, got {}"),
            (records, [{}, 1], "x must be an array of objects, got [{}, 1]"),
            (mapping, [], "x must be an object, got []"),
        ],
    )
    def test_rejects_with_the_name(self, kind, value, message):
        with pytest.raises(ValueError) as caught:
            kind(value, "x")
        assert str(caught.value) == message

    def test_numbers(self):
        out = numbers([[1, 2.5], [-3, 0.0]], "x")
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.5], [-3.0, 0.0]]
        assert numbers(2, "x").shape == () and vector([], "x").shape == (0,)
        for value, shown in [([1.0, True], "True"), (["1.0"], "'1.0'"), ([None], "None"), ([[1.0], 2], "[1.0]")]:
            with pytest.raises(ValueError, match=re.escape(f"x must be finite numbers, got {shown}")):
                numbers(value, "x")
        for value in (float("nan"), [1.0, float("inf")], [10**400]):
            with pytest.raises(ValueError, match="x must be finite numbers"):
                numbers(value, "x")
        with pytest.raises(ValueError, match=re.escape("x must be an array of numbers, got 2.5")):
            vector(2.5, "x")
        with pytest.raises(ValueError, match=re.escape("x must be a matrix of numbers, got [1.0, 2.0]")):
            matrix([1.0, 2.0], "x")
        # numpy integer and float arrays are cast in one pass, into a new array,
        # and the first non-finite entry is named; booleans and long doubles
        # are read entry by entry, as before
        for dtype in (np.int64, np.uint8, np.float32, np.float64):
            given = np.array([[1, 2], [3, 4]], dtype=dtype)
            out = matrix(given, "x")
            assert out.dtype == np.float64 and out.tolist() == numbers(given.tolist(), "x").tolist()
            assert not np.shares_memory(out, given)
        rejected = [(np.array([1.0, np.inf, np.nan]), "inf"), (np.float64("nan"), "nan"), (np.array([True]), "True")]
        for value, shown in rejected:
            with pytest.raises(ValueError, match=re.escape(f"x must be finite numbers, got {shown}")):
                numbers(value, "x")
        with pytest.raises(ValueError, match="x must be finite numbers"):
            numbers(np.ones(2, dtype=np.longdouble), "x")

    def test_mask(self):
        assert mask("0110", "x") == MissingPattern(0b0110, 4)
        assert mask("01", "x", 2) == MissingPattern(0b10, 2)
        for value in ("", "01x", 5, None):
            with pytest.raises(ValueError, match=re.escape(f"x must be a nonempty string of 0/1, got {value!r}")):
                mask(value, "x")
        with pytest.raises(ValueError, match=re.escape("x must be a string of 3 characters 0/1, got '01'")):
            mask("01", "x", 3)

    def test_json_field_names_the_field(self):
        assert json_field({"d": 3}, "d", dimension) == 3
        assert json_field({"clip": None}, "clip", positive, None) is None
        assert json_field({}, "clip", positive, None) is None
        with pytest.raises(ValueError, match=re.escape("field 'd' must be an integer in [1, 63], got 2.5")):
            json_field({"d": 2.5}, "d", dimension)
        with pytest.raises(ValueError, match="missing field 'd'"):
            json_field({}, "d", dimension)
        with pytest.raises(ValueError, match="expected a JSON object holding the field 'd', got list"):
            json_field([], "d", dimension)

    def test_json_object_prefixes_inner_errors(self):
        with pytest.raises(ValueError, match=re.escape("in field 'law': missing field 'd'")):
            json_field({"law": {"kind": "uniform"}}, "law", nested(distribution_from_json))
        with pytest.raises(ValueError, match=re.escape("field 'law' must be an object, got 3")):
            json_field({"law": 3}, "law", nested(distribution_from_json))


# ------------------------------------------------------- the mutation property

DROP = "<drop the field>"
MUTATIONS = (DROP, True, False, 2.5, "x", float("nan"), -3, 1e300, {"nested": [1.0]}, [[1.0], 2])

GAUSS = {"mu": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 1.0]]}
LINEAR = {"d": 2, "beta0": 0.5, "beta": [1.0, 2.0], "sigma": 0.2}
MISSINGNESS = {"kind": "homogeneous_bernoulli", "d": 2, "epsilon": 0.3}
SCENARIO = {**LINEAR, "kind": "mcar_gaussian", **GAUSS, "missingness": MISSINGNESS}


@lru_cache(maxsize=None)
def _cases() -> tuple:
    """(reader, valid object, CLI arguments reading the file ``{input}``)
    for every JSON reader; the CLI may also read the scenario ``{scenario}``."""
    sample = scenario_from_json(SCENARIO).generate(30, np.random.default_rng(0))
    models = (
        fit_pbp(sample.dataset, EstimatorSpec("pbp", 0.05, clip_level=5.0)),
        fit_constant_impute(sample.dataset),
        fit_iterative_impute(sample.dataset, rounds=2),
    )
    distributions = (
        {"d": 2, "patterns": [{"mask": "00", "p": 0.7}, {"mask": "11", "p": 0.3}]},
        {"kind": "homogeneous_bernoulli", "d": 3, "epsilon": 0.2},
        {"kind": "heterogeneous_bernoulli", "epsilons": [0.1, 0.4]},
        {"kind": "merge", "protocols": ["00", "10"], "weights": [0.6, 0.4], "eta": 0.1},
        {"kind": "uniform", "d": 3},
    )
    scenarios = (
        SCENARIO,
        {**LINEAR, "kind": "mar_block", "block_cov": [[1.0]]},
        {**LINEAR, "kind": "gpmm", "components": [{"p": p, "mask": m, **GAUSS} for p, m in ((0.6, "00"), (0.4, "10"))]},
        {**LINEAR, "kind": "self_masking", **GAUSS, "mask_center": [0.0, 0.0], "mask_scale": [1.0, 1.0]},
        {**LINEAR, "kind": "merge", **GAUSS, "protocols": ["00", "10"], "weights": [0.6, 0.4], "eta": 0.1},
    )
    specs = (
        {"kind": "pbp", "tau": "d_over_n", "clip": 5.0, "ball_radius": 4.0},
        {"kind": "pbp", "tau": 0.1},
        {"kind": "iterative_impute_lr", "rounds": 2},
    )
    config = {"scenario": SCENARIO, "n_grid": [30], "repetitions": 1, "n_test": 100, "record_timings": False}
    fit = ["fit", "--data", "{input}", "--estimator", "pbp", "--out", "{out}"]
    evaluate = ["eval", "--model", "{input}", "--scenario", "{scenario}", "--n-test", "100", "--seed", "1"]
    complexity = ["complexity", "--dist", "{input}", "--tau-grid", "0.1,0.5", "--out", "{out}"]
    gen = ["gen", "--scenario", "{input}", "--n", "20", "--seed", "1", "--out", "{out}"]
    bench = ["bench", "--config", "{input}", "--out", "{out}"]
    cases = [(MaskedDataset.from_json, sample.to_json(), fit)]
    cases += [(model_from_json, model.to_json(), evaluate) for model in models]
    cases += [(distribution_from_json, dist, complexity) for dist in distributions]
    cases += [(scenario_from_json, scenario, gen) for scenario in scenarios]
    # an estimator spec is read from a config that holds it
    cases += [(estimator_spec_from_json, spec, bench + ["{spec}"]) for spec in specs]
    cases.append((experiment_config_from_json, {**config, "estimators": [specs[0]], "seed": 3}, bench))
    return tuple((reader, obj, argv, tuple(_field_paths(obj))) for reader, obj, argv in cases), config


def _field_paths(obj, prefix=()):
    """The path to every object field of a JSON value, nested ones included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _field_paths(value, prefix + (i,))


def _mutated(obj, path, mutation):
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    return out


def _run_cli(argv, obj, config) -> tuple:
    """(exit code, stderr) of the CLI run in-process on ``obj``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[-1] == "{spec}":
            argv, obj = argv[:-1], {**config, "estimators": [obj]}
        (tmp / "input.json").write_text(json.dumps(obj))
        (tmp / "scenario.json").write_text(json.dumps(SCENARIO))
        paths = {"{input}": tmp / "input.json", "{scenario}": tmp / "scenario.json", "{out}": tmp / "out"}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(paths.get(arg, arg)) for arg in argv])
    return code, err.getvalue()


@settings(
    max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow], database=None
)
@given(data=st.data())
def test_one_mutation_loads_or_names_the_field(data):
    cases, config = _cases()
    reader, obj, argv, paths = data.draw(st.sampled_from(cases), label="case")
    path = data.draw(st.sampled_from(paths), label="path")
    mutated = _mutated(obj, path, data.draw(st.sampled_from(MUTATIONS), label="mutation"))
    field = path[-1]
    try:
        reader(mutated)
        rejected = None
    except ValueError as exc:
        rejected = str(exc)
        assert re.search(rf"\b{re.escape(field)}\b", rejected), f"{rejected!r} does not name {field!r}"
    code, err = _run_cli(argv, mutated, config)
    assert "Traceback" not in err
    assert code in (0, 2, 3)
    if rejected is not None:
        assert code == 2 and rejected in err
