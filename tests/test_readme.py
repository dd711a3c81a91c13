"""README's JSON formats against the readers: its examples load, and each
field list it documents is the list its reader accepts. A reader's list is
read from the error that a probe field draws, which names the table's fields."""

import json
import re
from pathlib import Path

import pytest

from patternlab.distributions import distribution_from_json
from patternlab.estimators import model_from_json
from patternlab.harness import experiment_config_from_json
from patternlab.patterns import MaskedDataset
from patternlab.simulate import scenario_from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PROBE = "__probe__"
RESPONSE = {"kind": "gpmm", "d": 1, "beta0": 0.0, "beta": [1.0], "sigma": 0.0}


def section(title: str) -> str:
    """The text of README's ``### title`` section."""
    return re.search(rf"^### {re.escape(title)}\n(.*?)(?=^#)", README, re.S | re.M).group(1)


def ticked(text: str) -> list:
    """The names written as `name` in ``text``."""
    return re.findall(r"`(\w+)`", text)


def object_keys(literal: str, depth: int = 1) -> list:
    """The keys at brace depth ``depth`` of a README object literal such as
    {"kind": "constant_impute", "d", "coef"}: each quoted string that
    follows an opening brace or a comma. ``[`` counts as a level, so the
    fields of an entry of a top-level array are at depth 3."""
    keys, level, previous = [], 0, ""
    for token in re.findall(r'"[^"]*"|[{}\[\],:]', literal):
        if token in "{[":
            level += 1
        elif token in "}]":
            level -= 1
        elif token.startswith('"') and level == depth and previous in ("{", ","):
            keys.append(token.strip('"'))
        previous = token
    return keys


def literal(text: str, key: str) -> str:
    """The one backticked object literal in ``text`` that holds ``"key"``."""
    (found,) = [obj for obj in re.findall(r"`(\{.*?\})`", text, re.S) if f'"{key}"' in obj]
    return found


def accepted(reader, payload) -> list:
    """The fields that ``reader`` accepts, read from the error a probe field
    draws from it; ``payload`` holds the probe where the reader's table is."""
    with pytest.raises(ValueError) as caught:
        reader(payload)
    match = re.search(rf"has unknown field '{PROBE}'; its fields are (.*)$", str(caught.value))
    assert match, str(caught.value)
    return match.group(1).split(", ")


def documented_scenarios() -> dict:
    """{kind: fields} from the Scenario JSON section: every kind's common
    fields plus those of its bullet, parentheticals left out."""
    text = section("Scenario JSON")
    common = ticked(re.search(r"Every kind reads (.*?), a nonempty", text, re.S).group(1))
    kinds = {}
    for kind, body in re.findall(r"^\* `(\w+)`: (.*?)(?=^\*|\Z)", text, re.S | re.M):
        while re.search(r"\([^()]*\)", body):
            body = re.sub(r"\([^()]*\)", "", body)
        kinds[kind] = common + ticked(body)
    return kinds


def test_readme_examples_load():
    blocks = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README, re.S)]
    assert len(blocks) == 2
    config, scenario = sorted(blocks, key=lambda block: "estimators" not in block)
    assert experiment_config_from_json(config).n_grid == (100, 1000, 10000)
    assert scenario_from_json(scenario).name == "mcar_gaussian"
    # the config example shows every field a config may hold
    assert sorted(config) == sorted(accepted(experiment_config_from_json, {PROBE: 0}))


def test_readme_lists_each_scenario_kinds_fields():
    kinds = documented_scenarios()
    assert set(kinds) == {"mcar_gaussian", "mar_block", "gpmm", "self_masking", "merge"}
    for kind, fields in kinds.items():
        assert sorted(fields) == sorted(accepted(scenario_from_json, {"kind": kind, PROBE: 0})), kind
    text = section("Scenario JSON")
    assert object_keys(literal(text, "preset")) == accepted(scenario_from_json, {"preset": "mcar_a", PROBE: 0})
    component = object_keys(literal(text, "mask"))
    assert component == accepted(scenario_from_json, {**RESPONSE, "components": [{PROBE: 0}]})


def test_readme_lists_each_laws_fields():
    text = section("Distribution JSON")
    laws = {kind: ticked(fields) for kind, fields in re.findall(r"`(\w+)`\s*\(([^)]*)\)", text)}
    assert set(laws) == {"homogeneous_bernoulli", "heterogeneous_bernoulli", "merge", "uniform"}
    for kind, fields in laws.items():
        assert sorted(["kind", *fields]) == sorted(accepted(distribution_from_json, {"kind": kind, PROBE: 0})), kind
    explicit = literal(text, "patterns")
    # the explicit law is the one whose kind tag may be left out
    assert ["kind", *object_keys(explicit)] == accepted(distribution_from_json, {"patterns": [], PROBE: 0})
    entry = accepted(distribution_from_json, {"d": 1, "patterns": [{PROBE: 0}]})
    assert object_keys(explicit, depth=3) == entry


def test_readme_lists_each_model_and_dataset_field():
    text = section("Dataset and model JSON")
    assert object_keys(literal(text, "bayes_values")) == accepted(MaskedDataset.from_json, {PROBE: 0})
    pbp = literal(text, "models")
    assert object_keys(pbp) == accepted(model_from_json, {"models": [], PROBE: 0})
    entry = accepted(model_from_json, {"tau": 0.1, "d": 1, "models": [{PROBE: 0}]})
    assert object_keys(pbp, depth=3) == entry
    for kind in ("constant_impute", "iterative_impute"):
        assert object_keys(literal(text, kind)) == accepted(model_from_json, {"kind": kind, PROBE: 0}), kind
    iterative = {"kind": "iterative_impute", "d": 1, "rounds": 1, "column_means": [0.0], "intercept": 0.0, "coef": [1.0]}
    column_model = accepted(model_from_json, {**iterative, "column_models": [{PROBE: 0}]})
    (documented,) = [obj for obj in re.findall(r"`(\{.*?\})`", text, re.S) if object_keys(obj) == ["intercept", "coef"]]
    assert object_keys(documented) == column_model
