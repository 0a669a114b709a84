"""Command-line interface.

Subcommands: gen-data, gen-fuzzy-data, train, eval, reproduce, sweep,
validate. Exit codes: 0 success, 1 usage error, 2 runtime failure. All
randomness flows from --seed through named sub-streams, so identical
flags produce byte-identical output files. Log verbosity is controlled
by the FUZZY_POMDP_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .em import EmConfig, run_em
from .fuzzy import load_fuzzy_model
from .fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from .harness import (add_noise, generate_fuzzy_trajectories, kmeans_init,
                      random_init, regime_config, run_regime, _sanitize)
from .metrics import evaluate_model
from .model import (load_dataset, load_env, make_policy,
                    model_from_dict, model_to_dict, sample_trajectory,
                    save_dataset, validate_dataset, validate_env,
                    validate_model)
from .fuzzy import fuzzy_model_from_dict
from .rngs import derive_rng

log = logging.getLogger(__name__)

REGIME_NAMES = {"low-data": "low_data", "high-noise": "high_noise", "mg": "mg_pipeline"}
DEFAULT_SWEEP_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_json(payload: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_path, command: str, params: dict) -> None:
    out = Path(out_path)
    manifest = out.parent / (out.stem + ".manifest.json")
    _write_json({"command": command, "parameters": params}, manifest)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    if args.noise < 0:
        raise UsageError("--noise must be nonnegative")
    env = load_env(args.env)
    num_actions = env.transitions.shape[1]
    policy = make_policy(args.policy, num_actions)
    dataset = [
        sample_trajectory(env, policy, args.horizon, derive_rng(args.seed, "gen-data", i))
        for i in range(args.n)
    ]
    if args.noise > 0:
        dataset = add_noise(dataset, args.noise, derive_rng(args.seed, "gen-data-noise"))
    save_dataset(dataset, args.out)
    _write_manifest(args.out, "gen-data", {
        "env": args.env, "n": args.n, "horizon": args.horizon,
        "noise": args.noise, "policy": args.policy, "seed": args.seed,
        "out": args.out,
    })
    print(f"wrote {args.out} ({args.n} trajectories of length {args.horizon})")
    return 0


def cmd_gen_fuzzy_data(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    fuzzy = load_fuzzy_model(args.fuzzy)
    policy = make_policy(args.policy, fuzzy.num_actions)
    # same stream label as the mg regime, so --seed N reproduces its dataset
    dataset = generate_fuzzy_trajectories(
        fuzzy, args.n, args.horizon, policy, args.noise, derive_rng(args.seed, "mg-data")
    )
    save_dataset(dataset, args.out)
    _write_manifest(args.out, "gen-fuzzy-data", {
        "fuzzy": args.fuzzy, "n": args.n, "horizon": args.horizon,
        "noise": args.noise, "policy": args.policy, "seed": args.seed,
        "out": args.out,
    })
    print(f"wrote {args.out} ({args.n} trajectories of length {args.horizon})")
    return 0


def _load_model_or_checkpoint(path):
    # accept either a bare model JSON or a train checkpoint wrapping one
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return model_from_dict(payload["model"] if "model" in payload else payload)


def _build_init(args, dataset):
    num_actions = args.actions
    if num_actions is None:
        num_actions = max((int(a) for t in dataset for a in t.actions), default=0) + 1
    if args.init == "file":
        if not args.init_file:
            raise UsageError("--init file requires --init-file")
        return _load_model_or_checkpoint(args.init_file)
    if args.init == "kmeans":
        return kmeans_init(dataset, args.states, derive_rng(args.seed, "kmeans"))
    return random_init(dataset, args.states, num_actions, derive_rng(args.seed, "cli-init"))


def cmd_train(args) -> int:
    if args.algo == "fuzzy-map" and not args.fuzzy_model:
        raise UsageError("--algo fuzzy-map requires --fuzzy-model")
    dataset = load_dataset(args.dataset)
    if not dataset:
        raise UsageError("dataset is empty")
    init = _build_init(args, dataset)
    uniform = np.full_like(init.transitions, 1.0 / init.num_states)
    em_config = EmConfig(max_iterations=args.max_iterations,
                         loglik_tolerance=args.tolerance, seed=args.seed)
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
    if args.algo == "fuzzy-map":
        fuzzy = load_fuzzy_model(args.fuzzy_model)
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
    _write_json(report, args.out)
    final = result.loglik_trace[-1] if result.loglik_trace else float("nan")
    print(f"wrote {args.out} (algo={args.algo}, lambda_t={args.lambda_t:g}, "
          f"lambda_o={args.lambda_o:g}, iterations={result.iterations}, "
          f"final loglik={final:.6g})")
    return 0


def cmd_eval(args) -> int:
    model = _load_model_or_checkpoint(args.model)
    env = load_env(args.env)
    report = evaluate_model(model, env, nodes=args.nodes)
    out = {
        "state_matching": list(report.state_matching),
        "l1_transition": report.l1_transition,
        "l1_transition_total": report.l1_transition_total,
        "kl_per_state": dict(report.kl_per_state),
        "notes": report.notes,
    }
    if args.out:
        _write_json(out, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(_sanitize(out), indent=2, sort_keys=True))
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
        ("median KL Healthy", "median_kl_healthy"),
        ("median KL Sick", "median_kl_sick"),
        ("median KL Critical", "median_kl_critical"),
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
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    regime = REGIME_NAMES[args.regime]
    overrides = {}
    if args.lambda_t is not None:
        overrides["lambda_t"] = args.lambda_t
    if args.lambda_o is not None:
        overrides["lambda_o"] = args.lambda_o
    if args.noise_is_std and regime == "high_noise":
        # the published perturbation is N(0, 0.25); read 0.25 as the std
        overrides["noise_sigma"] = 0.25
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
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    try:
        grid = tuple(float(v) for v in args.grid.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from None
    if not grid or any(v < 0 for v in grid):
        raise UsageError("--grid needs a comma-separated list of nonnegative reals")
    regime = REGIME_NAMES[args.regime]
    pairs = (list(itertools.product(grid, grid)) if args.cross
             else [(v, v) for v in grid])
    out_dir = Path(args.out_dir) if args.out_dir else None
    lines = []
    header = (f"{'lambda_t':>9} {'lambda_o':>9} {'em L1':>10} {'fm L1':>10} "
              f"{'fm win rate':>12}")
    print(header)
    for lam_t, lam_o in pairs:
        cell_dir = str(out_dir / f"lt{lam_t:g}_lo{lam_o:g}") if out_dir else None
        config = regime_config(regime, seeds=range(args.seeds), out_dir=cell_dir,
                               lambda_t=lam_t, lambda_o=lam_o)
        summary = run_regime(config)
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
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = list(lines[0])
        with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in lines:
                fh.write(",".join("" if row[c] is None else f"{row[c]:.12g}"
                                  for c in columns) + "\n")
        print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


# validate: file-type detection by structure, then per-type checks

def _detect_and_check(payload) -> tuple[str, list[str]]:
    if isinstance(payload, list):
        try:
            from .model import dataset_from_list
            dataset = dataset_from_list(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return "dataset", [str(exc)]
        if not dataset:
            return "dataset", []
        obs_dim = len(dataset[0].observations[0])
        num_actions = max((int(a) for t in dataset for a in t.actions), default=0) + 1
        return "dataset", validate_dataset(dataset, num_actions, obs_dim)
    if not isinstance(payload, dict):
        return "unknown", ["top-level JSON value is neither object nor array"]
    if "beta_params" in payload:
        from .model import env_from_dict
        try:
            env = env_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return "env", [str(exc)]
        return "env", validate_env(env)
    if "rules" in payload and "tnorm" in payload:
        try:
            fuzzy_model_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return "fuzzy-model", [str(exc)]
        return "fuzzy-model", []
    if "model" in payload and isinstance(payload["model"], dict):
        try:
            model = model_from_dict(payload["model"])
        except (KeyError, TypeError, ValueError) as exc:
            return "checkpoint", [str(exc)]
        problems = validate_model(model)
        if not isinstance(payload.get("loglik_trace"), list):
            problems.append("checkpoint missing loglik_trace list")
        return "checkpoint", problems
    if "transitions" in payload and "obs_means" in payload:
        try:
            model = model_from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return "pomdp-model", [str(exc)]
        return "pomdp-model", validate_model(model)
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
        except (OSError, json.JSONDecodeError) as exc:
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
    p.add_argument("--n", type=int, default=3, help="number of trajectories")
    p.add_argument("--horizon", type=int, default=5, help="observations per trajectory")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive observation noise std (0 disables)")
    p.add_argument("--policy", default="uniform", help="action-selection rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset.json")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-fuzzy-data", help="roll out trajectories from a fuzzy model")
    p.add_argument("fuzzy", help="fuzzy model JSON")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--horizon", type=int, default=9)
    p.add_argument("--noise", type=float, default=0.05,
                   help="rollout output noise std")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="fuzzy_dataset.json")
    p.set_defaults(func=cmd_gen_fuzzy_data)

    p = sub.add_parser("train", help="fit a model to a dataset")
    p.add_argument("dataset", help="dataset JSON")
    p.add_argument("--algo", choices=("em", "fuzzy-map"), default="em")
    p.add_argument("--fuzzy-model", help="fuzzy model JSON (required for fuzzy-map)")
    p.add_argument("--lambda-t", type=float, default=0.1)
    p.add_argument("--lambda-o", type=float, default=0.05)
    p.add_argument("--init", choices=("random", "kmeans", "file"), default="random")
    p.add_argument("--init-file",
                   help="model or checkpoint JSON used when --init file")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--actions", type=int, default=None,
                   help="action count (default: inferred from the dataset)")
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--matchant-samples", type=int, default=1000,
                   help="Monte-Carlo draws per antecedent match, used only for rules "
                        "with triangular or trapezoidal terms or under the minimum "
                        "t-norm; Gaussian terms under the product t-norm are matched "
                        "exactly")
    p.add_argument("--final-em-iterations", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="checkpoint.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a learned model against ground truth")
    p.add_argument("model", help="model or checkpoint JSON")
    p.add_argument("env", help="ground-truth environment JSON")
    p.add_argument("--nodes", type=int, default=64, help="quadrature nodes per dim")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="run a canned experiment regime")
    p.add_argument("--regime", choices=tuple(REGIME_NAMES), required=True)
    p.add_argument("--seeds", type=int, default=20, help="number of seeds (0..N-1)")
    p.add_argument("--out-dir", help="directory for runs.csv / summary.json")
    p.add_argument("--lambda-t", type=float, default=None)
    p.add_argument("--lambda-o", type=float, default=None)
    p.add_argument("--noise-is-std", action="store_true",
                   help="read the 0.25 noise figure as a std instead of a variance")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="grid-sweep the prior weights over a regime")
    p.add_argument("--regime", choices=tuple(REGIME_NAMES), default="low-data")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--grid", default=",".join(f"{v:g}" for v in DEFAULT_SWEEP_GRID),
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
