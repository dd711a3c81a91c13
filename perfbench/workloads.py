"""The benchmark's workloads: inputs, the untraced pass, the traced replay
and the output checks.

Every input comes from the workload seed reduced to one of ``SLOTS`` input
sets, so that each input set has per-cell risks recorded in
``reference.json`` at the commit that defined the benchmark. Two grid
workloads run ``patternlab bench`` in-process; the oracle workload calls
``bayes_oracle_mc`` directly. The layers are the modules of
``src/patternlab``; the traced pass wraps spans around calls to their
public functions and edits nothing inside the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from patternlab import cli, harness
from patternlab.complexity import bound_report
from patternlab.distributions import HomogeneousBernoulli
from patternlab.harness import BayesPredictor, EstimatorSpec, estimator_spec_from_json
from patternlab.patterns import (
    MaskedDataset,
    MissingPattern,
    build_pattern_index,
    group_rows_by_key,
    pack_mask_rows,
)
from patternlab.simulate import (
    InsufficientSamplesError,
    bayes_oracle_mc,
    preset,
    scenario_from_json,
)
from patternlab.solver import least_squares

from spans import Tracer, summarize, total

SLOTS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A cell risk may differ from its recorded reference by a few ulps of
# summation order, never by a changed draw (which moves it by ~1/sqrt(n)).
RISK_RTOL = 1e-9
# The per-row optimum and the batched Bayes column may differ in the last
# digits only (a dot product against a matrix-vector product).
BAYES_ROW_RTOL = 1e-12
BAYES_ROWS_CHECKED = 32

# Acceptance 10's bandwidth rungs and its agreement slack, unchanged.
ORACLE_RUNGS = {"mcar_a": (0.14, 0.2), "mar_b": (0.22, 0.3), "gpmm_c": (0.1, 0.2, 0.25)}
ORACLE_MIN_ACCEPTED = 50
ORACLE_SLACK_SE = 4.0
ORACLE_SLACK_ABS = 0.05
# A probe is kept only when its pilot-estimated acceptance at its budget is
# this many times min_accepted, so a new RNG stream cannot starve it.
ORACLE_ACCEPT_MARGIN = 4.0
# bayes_oracle_mc draws in chunks of this many rows; the draw-share probe
# copies it so its plain draw has the same shape.
ORACLE_CHUNK = 250_000

PBP_ESTIMATORS = (
    {"kind": "pbp", "tau": "d_over_n"},
    {"kind": "pbp", "tau": "one_over_n"},
    {"kind": "cst_impute_lr"},
)
PRESET_ESTIMATORS = PBP_ESTIMATORS + ({"kind": "iterative_impute_lr", "rounds": 10},)

SIZES = {
    "full": {
        "presets_grid": {"n_grid": [100, 1000, 10_000], "n_test": 10_000, "repetitions": 4},
        "many_patterns_d20": {"d": 20, "n_grid": [2000, 20_000], "n_test": 10_000, "repetitions": 1},
        "oracle_probes": {
            "budgets": {"mcar_a": 2_000_000, "mar_b": 1_000_000, "gpmm_c": 1_000_000},
            "probes_per_preset": 2,
            "candidates": 100,
        },
    },
    "tiny": {
        "presets_grid": {"n_grid": [100, 300], "n_test": 200, "repetitions": 1},
        "many_patterns_d20": {"d": 10, "n_grid": [200, 1000], "n_test": 500, "repetitions": 1},
        "oracle_probes": {"budgets": {"gpmm_c": 200_000}, "probes_per_preset": 1, "candidates": 60},
    },
}


def stream_seed(*labels) -> int:
    """A 63-bit seed for one named input stream; independent of the library."""
    digest = hashlib.sha256("|".join(str(label) for label in labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def input_slot(seed: int) -> int:
    return int(seed) % SLOTS


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """One untraced pass: its measurements, its per-operation records and
    the failed checks, as (operation, text) pairs and, for checks that are
    not operations, as texts."""

    wall_s: float
    peak_rss_mb: float
    workers: int
    attempted: int = 0
    failures: list = field(default_factory=list)
    other_failures: list = field(default_factory=list)
    records: dict = field(default_factory=dict)

    @property
    def failed_ops(self) -> set:
        return {op for op, _ in self.failures}


@contextmanager
def cell_threads():
    """Record which threads run harness cells, by wrapping the seed hash each
    cell calls first. The caller appends one set per experiment; the size of
    a set is the pool size that experiment actually used."""
    original = harness.derive_seed
    idents: list[set] = [set()]

    def recording(*args):
        idents[-1].add(threading.get_ident())
        return original(*args)

    harness.derive_seed = recording
    try:
        yield idents
    finally:
        harness.derive_seed = original


class CountingLaw:
    """Counts the patterns a law enumerates, by wrapping its public method on
    one instance."""

    def __init__(self, law):
        self.law = law
        self.enumerated = 0
        original = law.enumerate_probabilities

        def counting():
            keys, probs = original()
            self.enumerated += int(keys.size)
            return keys, probs

        law.enumerate_probabilities = counting


# ---------------------------------------------------------------- grids


class GridWorkload:
    """Runs ``patternlab bench`` once per config, then the optional bound
    reports, and replays the same cells stage by stage when traced."""

    name = ""
    has_law = False

    def __init__(self, size: str, slot: int, workdir: Path):
        self.size = size
        self.slot = slot
        self.params = SIZES[size][self.name]
        self.workdir = workdir
        self.seed = stream_seed(self.name, "config", slot)
        self.configs = self.build_configs()
        self.config_paths = []
        for i, config in enumerate(self.configs):
            path = workdir / f"config-{i}.json"
            path.write_text(json.dumps(config))
            self.config_paths.append(path)
        self.specs = [estimator_spec_from_json(e) for e in self.configs[0]["estimators"]]

    # subclasses define the scenarios and the law
    def build_configs(self) -> list:
        raise NotImplementedError

    def law(self):
        return None

    def taus(self) -> list:
        """The bound-report thresholds, d/n for each n; none without a law."""
        if not self.has_law:
            return []
        return [min(1.0, self.params["d"] / n) for n in self.params["n_grid"]]

    def _config(self, scenario: dict, estimators) -> dict:
        return {
            "scenario": scenario,
            "estimators": list(estimators),
            "n_grid": self.params["n_grid"],
            "repetitions": self.params["repetitions"],
            "n_test": self.params["n_test"],
            "seed": self.seed,
        }

    def cells(self):
        """(op, config index, spec, n, repetition) in the harness's order."""
        op = 0
        for ci in range(len(self.configs)):
            for spec in self.specs:
                for n in self.params["n_grid"]:
                    for rep in range(self.params["repetitions"]):
                        yield op, ci, spec, n, rep
                        op += 1

    def warm_up(self) -> None:
        """A tiny bench on a throwaway config, so code paths and BLAS are
        loaded; the workload's own scenarios are built later by the CLI, so
        their optimum caches stay cold."""
        config = dict(self.configs[0], n_grid=[50], repetitions=1, n_test=100)
        path = self.workdir / "warmup.json"
        path.write_text(json.dumps(config))
        if cli.main(["bench", "--config", str(path), "--out", str(self.workdir / "warmup.csv")]) != 0:
            raise RuntimeError("warm-up bench failed")
        law = self.law()
        if law is not None:
            bound_report(HomogeneousBernoulli(8, law.epsilon), 0.1)

    # ---- untraced

    def run(self) -> PassResult:
        csv_paths = [self.workdir / f"cells-{i}.csv" for i in range(len(self.configs))]
        with cell_threads() as idents:
            start = time.perf_counter()
            codes = []
            for cfg, out in zip(self.config_paths, csv_paths):
                idents.append(set())
                codes.append(cli.main(["bench", "--config", str(cfg), "--out", str(out)]))
            reports = [bound_report(self.law(), tau) for tau in self.taus()]
            wall = time.perf_counter() - start
        result = PassResult(wall_s=wall, peak_rss_mb=peak_rss_mb(), workers=max(len(s) for s in idents))
        rows = {}
        for ci, (code, path) in enumerate(zip(codes, csv_paths)):
            if code != 0 or not path.exists():
                continue
            for row in _read_csv(path):
                rows[(ci, row["estimator"], int(row["n"]), int(row["repetition"]))] = row
        self.check_cells(result, codes, rows)
        self.check_reports(result, reports)
        self.check_bayes_rows(result)
        return result

    def check_cells(self, result: PassResult, codes: list, rows: dict) -> None:
        reference = load_reference().get(self.name, {}).get(self.size, {}).get(str(self.slot), [])
        for op, ci, spec, n, rep in self.cells():
            result.attempted += 1
            if codes[ci] != 0:
                result.failures.append((op, f"config {ci}: patternlab bench exited {codes[ci]}"))
                continue
            row = rows.get((ci, spec.name, n, rep))
            if row is None:
                result.failures.append((op, f"cell {ci}/{spec.name}/{n}/{rep} missing from the CSV"))
                continue
            risk = float(row["excess_risk"])
            result.records[op] = {
                "risk": risk,
                "fit_s": float(row["fit_seconds"]),
                "predict_s": float(row["predict_seconds"]),
            }
            recorded = reference[op] if op < len(reference) else None
            if recorded is not None and recorded[:4] != [ci, spec.name, n, rep]:
                recorded = None
            problem = check_risk(risk, None if recorded is None else recorded[4])
            if problem:
                result.failures.append((op, f"cell {ci}/{spec.name}/{n}/{rep}: {problem}"))

    def check_reports(self, result: PassResult, reports: list) -> None:
        for tau, report in zip(self.taus(), reports):
            problem = check_bound_report(report)
            if problem:
                result.other_failures.append(f"bound report at tau={tau!r}: {problem}")

    def check_bayes_rows(self, result: PassResult) -> None:
        """Per-row optimum against the batched Bayes column on the test draw
        of each config's first cell, as the harness draws it."""
        first = {}
        for op, ci, spec, n, rep in self.cells():
            first.setdefault(ci, (op, spec, n, rep))
        for ci, (op, spec, n, rep) in first.items():
            scenario = scenario_from_json(self.configs[ci]["scenario"])
            seed = harness.derive_seed(self.seed, spec.name, n, rep, "test")
            sample = scenario.generate(self.params["n_test"], np.random.default_rng(seed))
            problem = check_bayes_rows(scenario, sample)
            if problem:
                result.failures.append((op, f"config {ci} test draw: {problem}"))

    # ---- traced

    def traced(self, untraced: PassResult) -> tuple[dict, list, Tracer]:
        """Per-layer metrics, replay failures and spans of the traced replay."""
        tracer = Tracer()
        counts = defaultdict(float)
        risks = {}
        law = CountingLaw(self.law()) if self.has_law else None
        start = time.perf_counter()
        current = None
        for op, ci, spec, n, rep in self.cells():
            if ci != current:
                current = ci
                scenario = scenario_from_json(self.configs[ci]["scenario"])
                cached: set = set()
            train_seed = harness.derive_seed(self.seed, spec.name, n, rep, "train")
            test_seed = harness.derive_seed(self.seed, spec.name, n, rep, "test")
            train, _ = _traced_draw(tracer, counts, scenario, cached, n, train_seed, op)
            with tracer.span("patterns.index", op, probe=True):
                index = build_pattern_index(train.dataset)
            counts["distinct"] += len(index.groups)
            with tracer.span(f"estimators.{spec.name}.fit", op):
                model = spec.fit(train.dataset)
            if spec.kind == "pbp":
                _replay_solves(tracer, model, index, train.dataset, op)
            test, bayes = _traced_draw(tracer, counts, scenario, cached, self.params["n_test"], test_seed, op)
            with tracer.span(f"estimators.{spec.name}.predict", op):
                predictions = model.predict_masked(test.dataset.values, test.dataset.mask)
            risks[op] = float(np.mean((predictions - bayes) ** 2))
            with tracer.span("bench.count", op, probe=True):
                _count_model(counts, spec, model, test.dataset)
        if law is not None:
            for tau in self.taus():
                with tracer.span("complexity.bound_report"):
                    bound_report(law.law, tau)
            counts["enumerated"] = law.enumerated
        wall = time.perf_counter() - start

        summary = summarize(tracer.spans, wall)
        failures = []
        for op, ci, spec, n, rep in self.cells():
            recorded = untraced.records.get(op)
            if recorded is None or recorded["risk"] != risks[op]:
                failures.append((op, f"replay of {ci}/{spec.name}/{n}/{rep} gave {risks[op]!r}, the CSV {recorded}"))
        csv_time = sum(r["fit_s"] + r["predict_s"] for r in untraced.records.values())
        span_time = sum(
            total(summary, f"estimators.{spec.name}.{stage}") for spec in self.specs for stage in ("fit", "predict")
        )
        metrics = _layer_metrics(summary, counts)
        metrics["harness.workers"] = untraced.workers
        metrics["harness.timing_inflation"] = csv_time / span_time if span_time > 0 else 0.0
        metrics["trace.overhead_s"] = wall - summary["probe_s"] - untraced.wall_s
        metrics["trace.coverage"] = summary["coverage"]
        return metrics, failures, tracer


def _read_csv(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _traced_draw(tracer, counts, scenario, cached, n, seed, op):
    """One harness draw, stage by stage: the plain draw, the cold optima of
    patterns this scenario has not seen, then the Bayes column."""
    with tracer.span("simulate.generate", op) as drawn:
        sample = scenario.generate(n, np.random.default_rng(seed), with_bayes=False)
    with tracer.span("patterns.dataset", op, probe=True) as rebuilt:
        MaskedDataset(sample.full_values, sample.dataset.mask, sample.dataset.responses)
    counts["draw_s"] += drawn.duration - rebuilt.duration
    counts["rows"] += n
    with tracer.span("bench.count", op, probe=True):
        cold = [int(k) for k in np.unique(pack_mask_rows(sample.dataset.mask)) if int(k) not in cached]
        cached.update(cold)
    for key in cold:
        with tracer.span("simulate.pattern_model", op):
            scenario.pattern_model(MissingPattern(key, scenario.d))
    with tracer.span("simulate.bayes", op):
        bayes = BayesPredictor(scenario).predict_masked(sample.full_values, sample.dataset.mask)
    return sample, bayes


def _replay_solves(tracer, model, index, dataset, op) -> None:
    """Re-solve each kept pattern's block, timing only the solver call."""
    if model.config.ball_radius is not None:
        raise ValueError("the replay does not apply the ball filter")
    with tracer.span("solver.replay", op, probe=True):
        for pattern in model.models:
            rows = index.groups[pattern]
            block = dataset.values[np.ix_(rows, np.array(pattern.observed_indices, dtype=int))]
            targets = dataset.responses[rows]
            with tracer.span("solver.lstsq", op):
                least_squares(block, targets)


def _count_model(counts, spec: EstimatorSpec, model, test: MaskedDataset) -> None:
    if spec.kind == "pbp":
        counts["pbp_kept"] += len(model.models)
        counts["pbp_seen"] += len(model.train_frequencies)
        keys, sizes = np.unique(test.mask_keys(), return_counts=True)
        for key, size in zip(keys, sizes):
            if MissingPattern(int(key), test.d) not in model.models:
                counts["pbp_default_rows"] += int(size)
    elif spec.kind == "iterative_impute_lr":
        counts["iter_rounds"] += model.rounds


def _layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics from one traced pass; a layer the workload does not
    use reads 0."""
    out = {
        "simulate.draw_s": counts["draw_s"],
        "simulate.rows": counts["rows"],
        "simulate.pattern_model_s": total(summary, "simulate.pattern_model"),
        "simulate.pattern_models_cold": total(summary, "simulate.pattern_model", "count"),
        "simulate.bayes_s": total(summary, "simulate.bayes"),
        "patterns.dataset_s": total(summary, "patterns.dataset"),
        "patterns.index_s": total(summary, "patterns.index"),
        "patterns.distinct": counts["distinct"],
        "solver.lstsq_s": total(summary, "solver.lstsq"),
        "solver.lstsq_calls": total(summary, "solver.lstsq", "count"),
        "estimators.pbp_kept": counts["pbp_kept"],
        "estimators.pbp_kept_ratio": counts["pbp_kept"] / counts["pbp_seen"] if counts["pbp_seen"] else 0.0,
        "estimators.pbp_default_rows": counts["pbp_default_rows"],
        "estimators.iter_rounds": counts["iter_rounds"],
        "complexity.bound_report_s": total(summary, "complexity.bound_report"),
        "complexity.patterns_enumerated": counts["enumerated"],
        "simulate.oracle_s": 0.0,
        "simulate.oracle_draws_per_s": 0.0,
        "simulate.oracle_accept_ratio": 0.0,
        "simulate.oracle_draw_share": 0.0,
    }
    for name in ("pbp_tau_d_over_n", "pbp_tau_one_over_n", "cst_impute_lr", "iterative_impute_lr_10"):
        for stage in ("fit", "predict"):
            out[f"estimators.{name}.{stage}_s"] = total(summary, f"estimators.{name}.{stage}")
    return out


class PresetsGrid(GridWorkload):
    name = "presets_grid"

    def build_configs(self) -> list:
        return [self._config({"preset": name}, PRESET_ESTIMATORS) for name in ("mcar_a", "mar_b", "gpmm_c")]


class ManyPatternsD20(GridWorkload):
    name = "many_patterns_d20"
    has_law = True
    EPSILON = 0.2

    def build_configs(self) -> list:
        d = self.params["d"]
        idx = np.arange(d)
        scenario = {
            "kind": "mcar_gaussian",
            "name": f"mcar_gaussian_d{d}",
            "d": d,
            "beta0": 0.5,
            "beta": [1.0] * d,
            "sigma": 0.5,
            "mu": [1.0] * d,
            "cov": (0.5 ** np.abs(idx[:, None] - idx[None, :])).tolist(),
            "missingness": {"kind": "homogeneous_bernoulli", "d": d, "epsilon": self.EPSILON},
        }
        return [self._config(scenario, PBP_ESTIMATORS)]

    def law(self):
        return HomogeneousBernoulli(self.params["d"], self.EPSILON)


# ---------------------------------------------------------------- oracle


@dataclass(frozen=True)
class Probe:
    preset: str
    mask: str
    x_obs: tuple
    bandwidth: float
    budget: int
    expected_accepted: float
    seed: int

    def pattern(self) -> MissingPattern:
        return MissingPattern.from_string(self.mask)


class OracleProbes:
    """bayes_oracle_mc on probes chosen once per input set from each
    preset's own law."""

    name = "oracle_probes"

    def __init__(self, size: str, slot: int, workdir: Path):
        self.size = size
        self.slot = slot
        self.params = SIZES[size][self.name]
        self.workdir = workdir
        self.scenarios = {name: preset(name) for name in self.params["budgets"]}
        self.probes = [p for name in self.params["budgets"] for p in self.choose(name)]

    def choose(self, name: str) -> list:
        """The first candidates, in draw order, whose acceptance on a pilot
        draw (a quarter of the budget) projects to ORACLE_ACCEPT_MARGIN times
        min_accepted at the narrowest rung that reaches it. Every candidate
        is scored, so the set-up cost does not depend on the seed."""
        scenario = preset(name)
        budget = self.params["budgets"][name]
        pilot_n = budget // 4
        candidates = scenario.generate(
            self.params["candidates"], np.random.default_rng(stream_seed(self.name, name, "candidates", self.slot)),
            with_bayes=False,
        )
        pilot = scenario.generate(
            pilot_n, np.random.default_rng(stream_seed(self.name, name, "pilot", self.slot)), with_bayes=False
        )
        pilot_rows = dict(group_rows_by_key(pack_mask_rows(pilot.dataset.mask)))
        widest = max(ORACLE_RUNGS[name])
        blocks = {}  # pattern -> its pilot rows' observed block, sorted on the first column
        feasible = []
        for i in range(candidates.dataset.n):
            m = candidates.dataset.pattern(i)
            x_obs = candidates.dataset.observed_values(i)
            block = blocks.get(m.bits)
            if block is None:
                rows = pilot_rows.get(m.bits, np.empty(0, dtype=int))
                block = pilot.full_values[np.ix_(rows, np.array(m.observed_indices, dtype=int))]
                if x_obs.size:
                    block = block[np.argsort(block[:, 0])]
                blocks[m.bits] = block
            if x_obs.size:
                lo = np.searchsorted(block[:, 0], x_obs[0] - widest, side="left")
                hi = np.searchsorted(block[:, 0], x_obs[0] + widest, side="right")
                near = block[lo:hi]
            else:
                near = block
            distance = np.abs(near - x_obs).max(axis=1, initial=0.0)
            for bandwidth in ORACLE_RUNGS[name]:
                expected = int((distance <= bandwidth).sum()) * budget / pilot_n
                if expected >= ORACLE_ACCEPT_MARGIN * ORACLE_MIN_ACCEPTED:
                    feasible.append((m, x_obs, bandwidth, expected))
                    break
        wanted = self.params["probes_per_preset"]
        if len(feasible) < wanted:
            raise RuntimeError(f"{name}: only {len(feasible)} of {wanted} oracle probes are feasible")
        return [
            Probe(
                name, m.to_string(), tuple(float(v) for v in x_obs), bandwidth, budget, expected,
                stream_seed(self.name, name, "probe", k, self.slot),
            )
            for k, (m, x_obs, bandwidth, expected) in enumerate(feasible[:wanted])
        ]

    def warm_up(self) -> None:
        """One small oracle call on a throwaway scenario."""
        probe = self.probes[0]
        try:
            bayes_oracle_mc(
                preset(probe.preset), probe.x_obs, probe.pattern(), samples=20_000,
                bandwidth=probe.bandwidth, rng=np.random.default_rng(0), min_accepted=1,
            )
        except InsufficientSamplesError:
            pass

    def _estimate(self, probe: Probe):
        try:
            return bayes_oracle_mc(
                self.scenarios[probe.preset], probe.x_obs, probe.pattern(), samples=probe.budget,
                bandwidth=probe.bandwidth, rng=np.random.default_rng(probe.seed),
                min_accepted=ORACLE_MIN_ACCEPTED,
            )
        except InsufficientSamplesError as err:
            return err

    def run(self) -> PassResult:
        start = time.perf_counter()
        estimates = [self._estimate(probe) for probe in self.probes]
        result = PassResult(wall_s=time.perf_counter() - start, peak_rss_mb=peak_rss_mb(), workers=0)
        for op, (probe, estimate) in enumerate(zip(self.probes, estimates)):
            result.attempted += 1
            closed = preset(probe.preset).bayes_predict(probe.x_obs, probe.pattern())
            problem = check_oracle(estimate, closed)
            if problem:
                result.failures.append((op, f"{probe.preset} probe {probe.mask}: {problem}"))
            result.records[op] = None if isinstance(estimate, Exception) else estimate
        return result

    def traced(self, untraced: PassResult) -> tuple[dict, list, Tracer]:
        """Per-layer metrics, replay failures and spans of the traced replay."""
        tracer = Tracer()
        estimates = []
        start = time.perf_counter()
        for op, probe in enumerate(self.probes):
            with tracer.span("simulate.oracle", op):
                estimates.append(self._estimate(probe))
            with tracer.span("simulate.oracle_draw_probe", op, probe=True):
                rng = np.random.default_rng(probe.seed)
                remaining = probe.budget
                while remaining > 0:
                    chunk = min(ORACLE_CHUNK, remaining)
                    remaining -= chunk
                    with tracer.span("simulate.plain_draw", op):
                        sample = self.scenarios[probe.preset].generate(chunk, rng, with_bayes=False)
                    with tracer.span("patterns.dataset", op):
                        MaskedDataset(sample.full_values, sample.dataset.mask, sample.dataset.responses)
        wall = time.perf_counter() - start

        summary = summarize(tracer.spans, wall)
        failures = []
        for op, estimate in enumerate(estimates):
            recorded = untraced.records.get(op)
            if recorded is None or isinstance(estimate, Exception) or estimate != recorded:
                failures.append((op, f"oracle replay of probe {op} gave {estimate}, the untraced pass {recorded}"))
        draws = sum(probe.budget for probe in self.probes)
        accepted = sum(e.accepted for e in estimates if not isinstance(e, Exception))
        oracle_s = total(summary, "simulate.oracle")
        metrics = _layer_metrics(summary, defaultdict(float))
        metrics.update(
            {
                "simulate.rows": draws,
                "simulate.oracle_s": oracle_s,
                "simulate.oracle_draws_per_s": draws / oracle_s if oracle_s > 0 else 0.0,
                "simulate.oracle_accept_ratio": accepted / draws,
                "simulate.oracle_draw_share": total(summary, "simulate.plain_draw") / oracle_s if oracle_s > 0 else 0.0,
                "harness.workers": 0,
                "harness.timing_inflation": 0.0,
                "trace.overhead_s": wall - summary["probe_s"] - untraced.wall_s,
                "trace.coverage": summary["coverage"],
            }
        )
        return metrics, failures, tracer


WORKLOADS = {cls.name: cls for cls in (PresetsGrid, ManyPatternsD20, OracleProbes)}


# ---------------------------------------------------------------- checks


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def check_risk(risk: float, reference: str | None) -> str | None:
    """Why a cell's excess risk is wrong, or None."""
    if not math.isfinite(risk) or risk < 0.0:
        return f"risk {risk!r} is not a finite nonnegative number"
    if reference is None:
        return "no recorded reference risk"
    expected = float(reference)
    if abs(risk - expected) > RISK_RTOL * max(abs(risk), abs(expected)):
        return f"risk {risk!r} differs from the recorded {expected!r}"
    return None


def check_bayes_rows(scenario, sample) -> str | None:
    """Why the per-row optimum disagrees with the batched Bayes column on a
    fixed subsample of rows, or None."""
    data = sample.dataset
    rows = np.linspace(0, data.n - 1, min(BAYES_ROWS_CHECKED, data.n)).astype(int)
    for i in rows:
        single = scenario.bayes_predict(data.observed_values(i), data.pattern(i))
        batched = float(sample.bayes_values[i])
        if not abs(single - batched) <= BAYES_ROW_RTOL * max(1.0, abs(batched)):
            return f"row {i}: per-row optimum {single!r} vs batched {batched!r}"
    return None


def check_oracle(estimate, closed: float) -> str | None:
    """Why an oracle probe fails acceptance 10's agreement rule, or None."""
    if isinstance(estimate, InsufficientSamplesError):
        return f"accepted {estimate.accepted} < {ORACLE_MIN_ACCEPTED} rows"
    slack = ORACLE_SLACK_SE * estimate.std_error + ORACLE_SLACK_ABS
    gap = abs(estimate.estimate - closed)
    if not gap <= slack:
        return f"estimate {estimate.estimate!r} is {gap:.4g} from the closed form {closed!r} (slack {slack:.4g})"
    return None


def check_bound_report(report) -> str | None:
    """Why a bound report is inconsistent, or None: the exact complexity is
    finite and positive and no bound flagged valid falls below it."""
    exact = report.cp_exact
    if exact is None or not math.isfinite(exact) or exact <= 0.0:
        return f"exact complexity {exact!r}"
    for kind, bound in report.bounds.items():
        if bound.valid and bound.value < exact * (1.0 - 1e-12):
            return f"{kind.name} bound {bound.value!r} below the exact {exact!r}"
    return None
