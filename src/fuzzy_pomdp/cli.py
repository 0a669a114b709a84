"""Command-line interface.

Subcommands: gen-data, gen-fuzzy-data, train, eval, reproduce, sweep,
validate. Exit codes: 0 success, 1 usage error, 2 runtime failure. All
randomness flows from --seed through named sub-streams, so identical
flags produce byte-identical output files. Log verbosity is controlled
by the FUZZY_POMDP_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .em import EmConfig, run_em
from .fuzzy import load_fuzzy_model
from .fuzzy_map import FuzzyMapConfig, _check_rule_base, run_fuzzy_map_em
from .harness import (add_noise, generate_fuzzy_trajectories, kl_columns, kmeans_init,
                      random_init, regime_config, run_regime, run_sweep, write_runs_csv)
from .metrics import evaluate_model
from .model import (_unchecked_env, dataset_from_list, json_text, load_dataset,
                    load_env, load_model, make_policy, model_from_dict, model_to_dict,
                    sample_trajectory, save_dataset, validate_dataset,
                    validate_env, validate_model, write_json)
from .fuzzy import fuzzy_model_from_dict, validate_fuzzy_dict
from .rngs import derive_rng

log = logging.getLogger(__name__)

REGIME_NAMES = {"low-data": "low_data", "high-noise": "high_noise", "mg": "mg_pipeline"}
DEFAULT_SWEEP_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
# train's state count for --init random and kmeans
DEFAULT_STATES = 3


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bounded(cast, low, strict: bool = False, high=None):
    """An argparse type: the text as cast gives it, finite, >= low (> low
    when strict) and, when high is given, <= high."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)
                and (high is None or value <= high)):
            bound = f"{'>' if strict else '>='} {low}" + ("" if high is None else f" and <= {high}")
            raise argparse.ArgumentTypeError(f"{text!r} must be a finite value {bound}")
        return value
    return parse


COUNT = _bounded(int, 1)
NONNEGATIVE_INT = _bounded(int, 0)
NONNEGATIVE = _bounded(float, 0.0)
POSITIVE = _bounded(float, 0.0, strict=True)
# the random streams key each integer by its low 32 bits, so a seed outside
# this range would alias one inside it
SEED = _bounded(int, 0, high=2**32 - 1)


def _grid(text: str) -> tuple[float, ...]:
    texts = text.split(",")
    values = tuple(NONNEGATIVE(v) for v in texts)
    # a sweep cell is named by its values' :g forms; two values that are
    # equal (0 and -0) or share a name would fit or write one cell twice
    for i, value in enumerate(values):
        for j in range(i):
            if values[j] == value or f"{values[j]:g}" == f"{value:g}":
                raise argparse.ArgumentTypeError(
                    f"{texts[j]!r} and {texts[i]!r} name the same sweep cells")
    return values


def _write_manifest(args) -> None:
    """Record the subcommand and its parsed arguments beside args.out."""
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")}
    out = Path(args.out)
    write_json({"command": args.subcommand, "parameters": params},
               out.parent / (out.stem + ".manifest.json"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _policy(spec: str, num_actions: int):
    """make_policy's rule, its ValueError a usage error."""
    try:
        return make_policy(spec, num_actions)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_gen_data(args) -> int:
    env = load_env(args.env)
    policy = _policy(args.policy, env.num_actions)
    dataset = [
        sample_trajectory(env, policy, args.horizon, derive_rng(args.seed, "gen-data", i))
        for i in range(args.n)
    ]
    if args.noise > 0:
        dataset = add_noise(dataset, args.noise, derive_rng(args.seed, "gen-data-noise"))
    save_dataset(dataset, args.out)
    _write_manifest(args)
    print(f"wrote {args.out} ({args.n} trajectories of length {args.horizon})")
    return 0


def cmd_gen_fuzzy_data(args) -> int:
    fuzzy = load_fuzzy_model(args.fuzzy)
    policy = _policy(args.policy, fuzzy.num_actions)
    # same stream label as the mg regime, so --seed N reproduces its dataset
    dataset = generate_fuzzy_trajectories(
        fuzzy, args.n, args.horizon, policy, args.noise, derive_rng(args.seed, "mg-data")
    )
    save_dataset(dataset, args.out)
    _write_manifest(args)
    print(f"wrote {args.out} ({args.n} trajectories of length {args.horizon})")
    return 0


def _check_dataset(dataset, num_actions: int, obs_dim: int) -> None:
    problems = validate_dataset(dataset, num_actions, obs_dim)
    if problems:
        raise UsageError("invalid dataset: " + "; ".join(problems))


def _build_init(args, dataset, min_actions: int = 1):
    """The fit's initial model, after checking the dataset against the
    action count and obs_dim that model has. Without --actions or an init
    file, the action count is the dataset's, raised to min_actions."""
    if args.init == "file":
        if not args.init_file:
            raise UsageError("--init file requires --init-file")
        init = load_model(args.init_file)
        for flag, given, held in (("--states", args.states, init.num_states),
                                  ("--actions", args.actions, init.num_actions)):
            if given is not None and given != held:
                raise UsageError(f"{flag} {given} does not match the --init-file "
                                 f"model, which has {held}")
        _check_dataset(dataset, init.num_actions, init.obs_dim)
        return init
    num_states = DEFAULT_STATES if args.states is None else args.states
    num_obs = sum(len(t.observations) for t in dataset)
    if num_states > num_obs:
        raise UsageError(f"{num_states} states need at least as many observations; "
                         f"the dataset has {num_obs}")
    num_actions = args.actions
    if num_actions is None:
        num_actions = max([min_actions, *(int(a) + 1 for t in dataset for a in t.actions)])
    _check_dataset(dataset, num_actions, dataset[0].obs_dim)
    if args.init == "kmeans":
        return kmeans_init(dataset, num_states, num_actions, derive_rng(args.seed, "kmeans"))
    return random_init(dataset, num_states, num_actions, derive_rng(args.seed, "cli-init"))


def cmd_train(args) -> int:
    if args.algo == "fuzzy-map" and not args.fuzzy_model:
        raise UsageError("--algo fuzzy-map requires --fuzzy-model")
    dataset = load_dataset(args.dataset)
    if not dataset:
        raise UsageError("dataset is empty")
    # a fuzzy-map init has an action for every action the rule base has
    fuzzy = load_fuzzy_model(args.fuzzy_model) if args.algo == "fuzzy-map" else None
    init = _build_init(args, dataset, 1 if fuzzy is None else fuzzy.num_actions)
    uniform = np.full_like(init.transitions, 1.0 / init.num_states)
    em_config = EmConfig(max_iterations=args.max_iterations,
                         loglik_tolerance=args.tolerance)
    report = {
        "config": {
            "algo": args.algo, "lambda_t": args.lambda_t, "lambda_o": args.lambda_o,
            "init": args.init, "seed": args.seed,
            "max_iterations": args.max_iterations, "tolerance": args.tolerance,
            "matchant_samples": args.matchant_samples,
            "final_standard_em_iterations": args.final_em_iterations,
        },
        "init_summary": {
            "scheme": args.init,
            "transitions_uniform": bool(np.allclose(init.transitions, uniform)),
        },
    }
    if fuzzy is not None:
        try:
            _check_rule_base(fuzzy, init)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        map_config = FuzzyMapConfig(
            lambda_t=args.lambda_t, lambda_o=args.lambda_o,
            matchant_samples=args.matchant_samples, seed=args.seed,
            final_standard_em_iterations=args.final_em_iterations,
        )
        result = run_fuzzy_map_em(dataset, init, fuzzy, em_config, map_config)
        report["prior_data_ratios"] = [
            {"transition": float(rt), "observation": float(ro)}
            for rt, ro in result.prior_data_ratios
        ]
    else:
        result = run_em(dataset, init, em_config)
    report.update({
        "model": model_to_dict(result.model),
        "iteration": result.iterations,
        "loglik_trace": [float(v) for v in result.loglik_trace],
        "converged": bool(result.converged),
    })
    write_json(report, args.out)
    print(f"wrote {args.out} (algo={args.algo}, lambda_t={args.lambda_t:g}, "
          f"lambda_o={args.lambda_o:g}, iterations={result.iterations}, "
          f"final loglik={result.loglik_trace[-1]:.6g})")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    env = load_env(args.env)
    out = dataclasses.asdict(evaluate_model(model, env))
    if args.out:
        write_json(out, args.out)
        print(f"wrote {args.out}")
    else:
        print(json_text(out), end="")
    return 0


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not np.isfinite(value):
        return "inf"
    return f"{value:.4f}"


def _print_regime_table(summary: dict) -> None:
    per = summary["per_algorithm"]
    rows = [
        ("median L1 transitions (row-avg)", "median_l1_avg"),
        ("median L1 transitions (total)", "median_l1_total"),
    ] + [
        (f"median KL {label}", f"median_{column}")
        for label, column in zip(summary["state_labels"], kl_columns(summary["state_labels"]))
    ]
    print(f"regime: {summary['regime']}  (seeds: {len(summary['seeds'])}, "
          f"failures: {summary['num_failures']})")
    print(f"{'metric':<34} {'standard EM':>12} {'Fuzzy-MAP EM':>13}")
    for label, key in rows:
        print(f"{label:<34} {_fmt(per['em'][key]):>12} {_fmt(per['fuzzy_map'][key]):>13}")
    wr = summary.get("win_rates") or {}
    if wr.get("l1_avg") is not None:
        print(f"{'Fuzzy-MAP win rate (L1 row-avg)':<34} {_fmt(wr['l1_avg']):>26}")
    rel = summary.get("median_relative_improvement_l1")
    if rel is not None:
        print(f"{'median relative L1 improvement':<34} {rel:>25.1%}")


def cmd_reproduce(args) -> int:
    regime = REGIME_NAMES[args.regime]
    overrides = {}
    if args.lambda_t is not None:
        overrides["lambda_t"] = args.lambda_t
    if args.lambda_o is not None:
        overrides["lambda_o"] = args.lambda_o
    config = regime_config(regime, seeds=range(args.seeds),
                           out_dir=args.out_dir, **overrides)
    summary = run_regime(config)
    if summary.get("mg_table"):
        print(summary["mg_table"])
    else:
        _print_regime_table(summary)
    if args.out_dir:
        print(f"outputs in {args.out_dir}")
    return 0


def cmd_sweep(args) -> int:
    regime = REGIME_NAMES[args.regime]
    cells = (list(itertools.product(args.grid, args.grid)) if args.cross
             else [(v, v) for v in args.grid])
    out_dir = Path(args.out_dir) if args.out_dir else None
    configs = [regime_config(regime, seeds=range(args.seeds), lambda_t=lam_t, lambda_o=lam_o,
                             out_dir=str(out_dir / f"lt{lam_t:g}_lo{lam_o:g}") if out_dir else None)
               for lam_t, lam_o in cells]
    lines = []
    header = (f"{'lambda_t':>9} {'lambda_o':>9} {'em L1':>10} {'fm L1':>10} "
              f"{'fm win rate':>12}")
    print(header)
    for (lam_t, lam_o), summary in zip(cells, run_sweep(configs)):
        per = summary["per_algorithm"]
        wr = (summary.get("win_rates") or {}).get("l1_avg")
        row = {
            "lambda_t": lam_t, "lambda_o": lam_o,
            "em_median_l1_avg": per["em"]["median_l1_avg"],
            "fuzzy_map_median_l1_avg": per["fuzzy_map"]["median_l1_avg"],
            "fuzzy_map_win_rate_l1": wr,
        }
        lines.append(row)
        print(f"{lam_t:>9g} {lam_o:>9g} {_fmt(row['em_median_l1_avg']):>10} "
              f"{_fmt(row['fuzzy_map_median_l1_avg']):>10} {_fmt(wr):>12}")
    if out_dir:
        write_runs_csv(out_dir / "sweep.csv", lines, tuple(lines[0]))
        print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


def _message(exc: Exception) -> str:
    """What went wrong, for a person: a KeyError's text is only the key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


# validate: file-type detection by structure, then per-type checks

def _checked(kind: str, check, payload) -> tuple[str, list[str]]:
    """kind with check(payload)'s problems, or the one problem its build raised."""
    try:
        return kind, check(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return kind, [_message(exc)]


def _dataset_problems(payload) -> list[str]:
    dataset = dataset_from_list(payload)
    num_actions = max((int(a) for t in dataset for a in t.actions), default=0) + 1
    return validate_dataset(dataset, num_actions, dataset[0].obs_dim if dataset else 0)


def _fuzzy_problems(payload) -> list[str]:
    problems = validate_fuzzy_dict(payload)
    if not problems:
        fuzzy_model_from_dict(payload)
    return problems


def _checkpoint_problems(payload) -> list[str]:
    problems = validate_model(model_from_dict(payload["model"]))
    if not isinstance(payload.get("loglik_trace"), list):
        problems.append("checkpoint missing loglik_trace list")
    return problems


def _detect_and_check(payload) -> tuple[str, list[str]]:
    if isinstance(payload, list):
        return _checked("dataset", _dataset_problems, payload)
    if not isinstance(payload, dict):
        return "unknown", ["top-level JSON value is neither object nor array"]
    if "beta_params" in payload:
        return _checked("env", lambda p: validate_env(_unchecked_env(p)), payload)
    if "rules" in payload and "tnorm" in payload:
        return _checked("fuzzy-model", _fuzzy_problems, payload)
    if "model" in payload and isinstance(payload["model"], dict):
        return _checked("checkpoint", _checkpoint_problems, payload)
    if "transitions" in payload and "obs_means" in payload:
        return _checked("pomdp-model", lambda p: validate_model(model_from_dict(p)), payload)
    if "per_algorithm" in payload and "config" in payload:
        missing = [k for k in ("regime", "seeds", "num_failures")
                   if k not in payload]
        return "summary", [f"summary missing key {k!r}" for k in missing]
    if "command" in payload and "parameters" in payload:
        return "manifest", []
    if "state_matching" in payload and "kl_per_state" in payload:
        missing = [k for k in ("l1_transition",) if k not in payload]
        return "eval-report", [f"eval report missing key {k!r}" for k in missing]
    return "unknown", ["unrecognized JSON structure"]


def cmd_validate(args) -> int:
    failures = 0
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        # a ValueError is a JSONDecodeError, a file that is not UTF-8, or an
        # integer too long to convert
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})")
            failures += 1
            continue
        kind, problems = _detect_and_check(payload)
        if problems:
            failures += 1
            print(f"{path}: {kind} INVALID")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{path}: {kind} ok")
    if failures:
        raise RuntimeError(f"{failures} of {len(args.files)} files failed validation")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzy-pomdp",
                     description="POMDP parameter estimation with EM and a "
                                 "fuzzy-prior MAP variant.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="sample trajectories from a ground-truth env")
    p.add_argument("env", help="ground-truth environment JSON")
    p.add_argument("--n", type=COUNT, default=3, help="number of trajectories")
    p.add_argument("--horizon", type=COUNT, default=5, help="observations per trajectory")
    p.add_argument("--noise", type=NONNEGATIVE, default=0.0,
                   help="additive observation noise std (0 disables)")
    p.add_argument("--policy", default="uniform", help="action-selection rule")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", default="dataset.json")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-fuzzy-data", help="roll out trajectories from a fuzzy model")
    p.add_argument("fuzzy", help="fuzzy model JSON")
    p.add_argument("--n", type=COUNT, default=40)
    p.add_argument("--horizon", type=COUNT, default=9)
    p.add_argument("--noise", type=NONNEGATIVE, default=0.05,
                   help="rollout output noise std")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", default="fuzzy_dataset.json")
    p.set_defaults(func=cmd_gen_fuzzy_data)

    p = sub.add_parser("train", help="fit a model to a dataset")
    p.add_argument("dataset", help="dataset JSON")
    p.add_argument("--algo", choices=("em", "fuzzy-map"), default="em")
    p.add_argument("--fuzzy-model", help="fuzzy model JSON (required for fuzzy-map)")
    p.add_argument("--lambda-t", type=NONNEGATIVE, default=0.1)
    p.add_argument("--lambda-o", type=NONNEGATIVE, default=0.05)
    p.add_argument("--init", choices=("random", "kmeans", "file"), default="random")
    p.add_argument("--init-file",
                   help="model or checkpoint JSON used when --init file")
    p.add_argument("--states", type=COUNT, default=None,
                   help=f"state count (default: {DEFAULT_STATES}; with --init file, "
                        "the file's model, which a given value must equal)")
    p.add_argument("--actions", type=COUNT, default=None,
                   help="action count (default: inferred from the dataset; with "
                        "--init file, the file's model, which a given value must equal)")
    p.add_argument("--max-iterations", type=COUNT, default=200)
    p.add_argument("--tolerance", type=POSITIVE, default=1e-6)
    p.add_argument("--matchant-samples", type=COUNT, default=1000,
                   help="Monte-Carlo draws per antecedent match, used only for rules "
                        "with triangular or trapezoidal terms or under the minimum "
                        "t-norm; Gaussian terms under the product t-norm are matched "
                        "exactly")
    p.add_argument("--final-em-iterations", type=NONNEGATIVE_INT, default=0,
                   help="up to this many plain-EM polish iterations after a fuzzy-map "
                        "fit; the polish stops early on --tolerance")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", default="checkpoint.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a learned model against ground truth")
    p.add_argument("model", help="model or checkpoint JSON")
    p.add_argument("env", help="ground-truth environment JSON")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="run a canned experiment regime")
    p.add_argument("--regime", choices=tuple(REGIME_NAMES), required=True)
    p.add_argument("--seeds", type=COUNT, default=20, help="number of seeds (0..N-1)")
    p.add_argument("--out-dir", help="directory for runs.csv / summary.json")
    p.add_argument("--lambda-t", type=NONNEGATIVE, default=None)
    p.add_argument("--lambda-o", type=NONNEGATIVE, default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="grid-sweep the prior weights over a regime")
    p.add_argument("--regime", choices=tuple(REGIME_NAMES), default="low-data")
    p.add_argument("--seeds", type=COUNT, default=5)
    p.add_argument("--grid", type=_grid, default=DEFAULT_SWEEP_GRID,
                   help="comma-separated prior weights")
    p.add_argument("--cross", action="store_true",
                   help="sweep the full grid x grid product instead of the diagonal")
    p.add_argument("--out-dir", help="directory for sweep.csv and per-cell outputs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="type-detect and validate emitted JSON files")
    p.add_argument("files", nargs="+", help="JSON files to check")
    p.set_defaults(func=cmd_validate)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("FUZZY_POMDP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown FUZZY_POMDP_LOG={level_name!r}, using error",
              file=sys.stderr)
    logging.basicConfig(level=levels.get(level_name, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by argparse for usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit 2, message on stderr
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
