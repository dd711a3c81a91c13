import math

import numpy as np
from patternlab.simulate import InsufficientSamplesError, OracleEstimate, preset

import workloads
from workloads import check_bayes_rows, check_oracle, check_risk


def test_risk_check_admits_last_digit_changes_only():
    recorded = 0.123456789
    assert check_risk(recorded, repr(recorded)) is None
    assert check_risk(recorded * (1 + 1e-13), repr(recorded)) is None
    assert check_risk(recorded * (1 + 1e-6), repr(recorded)) is not None
    assert check_risk(math.nan, repr(recorded)) is not None
    assert check_risk(-1e-3, repr(recorded)) is not None
    assert check_risk(math.inf, repr(recorded)) is not None
    assert check_risk(recorded, None) is not None


def test_oracle_check_keeps_acceptance_10s_slack():
    closed = 1.0
    inside = OracleEstimate(estimate=closed + 4 * 0.01 + 0.049, std_error=0.01, accepted=400)
    outside = OracleEstimate(estimate=closed - 4 * 0.01 - 0.051, std_error=0.01, accepted=400)
    assert check_oracle(inside, closed) is None
    assert check_oracle(outside, closed) is not None
    assert check_oracle(InsufficientSamplesError("few", accepted=49), closed) is not None


def test_bayes_row_check_flags_a_perturbed_column():
    scenario = preset("mcar_a")
    sample = scenario.generate(500, np.random.default_rng(3))
    assert check_bayes_rows(scenario, sample) is None
    shifted = np.array(sample.bayes_values) + 1e-6
    tampered = type(sample)(dataset=sample.dataset, full_values=sample.full_values, bayes_values=shifted)
    assert check_bayes_rows(scenario, tampered) is not None


def test_cell_check_rejects_a_perturbed_risk(tmp_path, monkeypatch):
    workload = workloads.PresetsGrid("tiny", 0, tmp_path)
    result = workload.run()
    assert result.failures == []
    rows = {}
    for op, ci, spec, n, rep in workload.cells():
        risk = result.records[op]["risk"]
        if op == 5:
            risk *= 1 + 1e-7
        rows[(ci, spec.name, n, rep)] = {"excess_risk": repr(risk), "fit_seconds": "0", "predict_seconds": "0"}
    perturbed = workloads.PassResult(wall_s=0.0, peak_rss_mb=0.0, workers=1)
    workload.check_cells(perturbed, [0] * len(workload.configs), rows)
    assert [op for op, _ in perturbed.failures] == [5]
