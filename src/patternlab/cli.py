"""Command line entry points.

Subcommands: bench (run a benchmark config to CSV), complexity (exact
complexity plus entropy bounds on a tau grid, CSV), gen (sample a scenario
to JSON), fit (train an estimator on a JSON dataset), eval (excess risk of
a stored model on a scenario). Exit codes: 0 success, 2 bad configuration
or arguments (a size too large to allocate among them), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .patterns import count, is_number, number


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    """The JSON object a file holds; any other top level is a config error."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object, got {type(obj).__name__}")
    return obj


def _literal(text: str):
    """The JSON number that ``text`` spells, else ``text`` itself, for a field kind to check."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if is_number(value) else text


def parse_tau_grid(text: str) -> list:
    """Grids: "start:stop:logK" or "start:stop:linK", or a comma list. The
    bounds are read through the ``number`` field kind and K through ``count``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not (parts[2].startswith("log") or parts[2].startswith("lin")):
            raise ConfigError(f"bad tau grid {text!r}; expected start:stop:logK or start:stop:linK")
        try:
            start, stop = (number(_literal(part), f"tau grid {text!r} bound") for part in parts[:2])
            points = count(_literal(parts[2][3:]), f"tau grid {text!r} point count")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if points < 2 or start <= 0 or stop <= start:
            raise ConfigError(f"bad tau grid {text!r}")
        if parts[2].startswith("log"):
            return list(np.geomspace(start, stop, points))
        return list(np.linspace(start, stop, points))
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad tau grid {text!r}") from exc
    if not values:
        raise ConfigError("empty tau grid")
    return values


def _cmd_bench(args) -> None:
    from .harness import experiment_config_from_json, run_experiment

    config = experiment_config_from_json(_load_json(args.config))
    run_experiment(config, out_path=args.out)
    print(f"wrote {args.out}")


def _cmd_complexity(args) -> None:
    from .distributions import distribution_from_json, law_preset
    from .harness import bound_report_csv

    named = {}
    if args.preset:
        for name in args.preset.split(","):
            named[name.strip()] = law_preset(name.strip())
    if args.dist:
        named[args.dist] = distribution_from_json(_load_json(args.dist))
    if not named:
        raise ConfigError("give --preset and/or --dist")
    taus = parse_tau_grid(args.tau_grid)
    text = bound_report_csv(named, taus, alpha=args.alpha)
    with open(args.out, "w", newline="") as handle:
        handle.write(text)
    print(f"wrote {args.out}")


def _cmd_gen(args) -> None:
    from .datafiles import labeled_sample_to_json
    from .simulate import scenario_from_json

    scenario = scenario_from_json(_load_json(args.scenario))
    sample = scenario.generate(args.n, np.random.default_rng(args.seed))
    with open(args.out, "w") as handle:
        json.dump(labeled_sample_to_json(sample), handle)
    print(f"wrote {args.out}")


def _cmd_fit(args) -> None:
    from .datafiles import dataset_from_json
    from .harness import EstimatorSpec

    dataset = dataset_from_json(_load_json(args.data))
    tau = None if args.tau is None else _literal(args.tau)
    if isinstance(tau, str) and tau not in ("d_over_n", "one_over_n"):
        raise ConfigError(f"--tau must be d_over_n, one_over_n or a number, got {tau!r}")
    spec = EstimatorSpec(
        kind=args.estimator,
        tau_rule=tau,
        rounds=args.rounds,
        clip_level=args.clip,
        ball_radius=args.ball_radius,
    )
    model = spec.fit(dataset)
    with open(args.out, "w") as handle:
        json.dump(model.to_json(), handle)
    print(f"wrote {args.out}")


def _cmd_eval(args) -> None:
    from .datafiles import model_from_json
    from .harness import excess_risk
    from .simulate import scenario_from_json

    model = model_from_json(_load_json(args.model))
    scenario = scenario_from_json(_load_json(args.scenario))
    if model.dimension != scenario.d:
        raise ConfigError(f"model dimension {model.dimension} does not match scenario dimension {scenario.d}")
    risk = excess_risk(model, scenario, args.n_test, np.random.default_rng(args.seed))
    print(json.dumps({"excess_risk": risk, "n_test": args.n_test, "seed": args.seed}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patternlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark config, write CSV records")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    complexity = sub.add_parser("complexity", help="complexity and entropy bounds on a tau grid")
    complexity.add_argument("--preset", help="comma separated pattern-law presets: bern_pA, bern_pB, bern_pC, bern_pD")
    complexity.add_argument("--dist", help="JSON file with a pattern distribution")
    complexity.add_argument("--tau-grid", default="0.001:1:log40")
    complexity.add_argument("--alpha", type=float, default=0.5)
    complexity.add_argument("--out", required=True)
    complexity.set_defaults(func=_cmd_complexity)

    gen = sub.add_parser("gen", help="sample a scenario to a JSON dataset")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    fit = sub.add_parser("fit", help="fit an estimator on a JSON dataset")
    fit.add_argument("--data", required=True)
    fit.add_argument("--estimator", required=True, choices=["pbp", "cst_impute_lr", "iterative_impute_lr"])
    fit.add_argument("--tau", help="pbp threshold: d_over_n (the default), one_over_n, or a float")
    fit.add_argument("--rounds", type=int, help="iterative_impute_lr sweeps (default 10)")
    fit.add_argument("--clip", type=float)
    fit.add_argument("--ball-radius", type=float)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="excess risk of a stored model on a scenario")
    ev.add_argument("--model", required=True)
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--n-test", type=int, default=10_000)
    ev.add_argument("--seed", type=int, required=True)
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
