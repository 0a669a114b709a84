#!/usr/bin/env python3
"""Check that two source trees write the same regime and CLI outputs.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE

In one fresh process per tree, against the package under that tree's
`src/`:
- runs `harness.run_regime` on low_data seeds 0-5, high_noise seeds 0-2 and
  mg_pipeline seeds 0-1;
- runs a fixed CLI script of 13 commands (CLI_SCRIPT: both generators,
  `train` with em and with fuzzy-map three times, at the default lambdas,
  at zero lambdas (a zero pseudo-count prior, whose checkpoint's
  `prior_data_ratios` are all 0.0) and with a two-iteration plain-EM
  polish (ratios from the first phase only), `eval` of the plain-EM model
  to a file against env.json, then against SECOND_ENV, a copy of it with
  every Beta parameter 1 higher that the runner writes, then against
  env.json again, so that a truth prepared for one set of Beta parameters
  and used for another shows as a difference, `eval` of the fuzzy-MAP
  model to stdout, a diagonal `sweep` and a `--cross` one over two seeds,
  whose printed rows are captured to a file, and `reproduce`, whose printed
  regime table, read from `summary.json`, is captured to a file) in a work
  directory holding copies of the tree's bundled assets, so both trees see
  identical relative paths;
- runs `validate` there (VALIDATE_RUNS) on one file of each kind it reads,
  the script's outputs and assets, and on corrupt files made from them
  (a missing key, a NaN, a wrong shape, an overflowing, a huge and a
  5,000-digit state count, an env whose counts do not match its arrays,
  a model whose state 1 holds BAD_COVARIANCES' ill-conditioned matrix,
  and rule bases with a clause naming a term or a variable the file lacks
  or with a NaN term parameter) and on a file that is not UTF-8, each
  followed by a valid file, capturing each run's stdout and exit code to
  validate/<run>.txt;
- fits plain EM and fuzzy-MAP EM (bundled expert rules, low_data's lambdas
  and iteration cap, three polish iterations) from one random init on a
  fixed ragged dataset (RAGGED_LENGTHS), the only case whose E-step splits
  the data into several length groups, plus a short fuzzy-MAP fit of the
  same rules under the minimum t-norm, the only case that matches every
  rule by Monte Carlo, a prior-only fit of the same rules on an empty
  dataset (low_data's lambdas), the only case whose loop runs without an
  E-step, and a plain-EM and a fuzzy-MAP fit (low_data's lambdas and cap)
  from an init whose last state sits far from every observation and that
  no other state moves to, so its responsibilities and its pseudo-count
  weight are exactly 0 and it keeps its parameters at every M-step (the
  runner exits with an error unless both fits log "no observation mass"):
  the only cases whose M-step regularizes the covariances of some states
  but not all; and writes each fit's model and loglik_trace to
  ragged/model_<algorithm>.json;
- runs `e_step` once on the ragged dataset under the same random init and
  writes its gamma, xi, per-trajectory log-likelihoods and total to
  ragged/posteriors.json, so the E-step itself is compared, not only
  through the models fitted with it;
- sets the last observation of one ragged trajectory (BROKEN_TRAJECTORY,
  not the first of its length group) to NaN and writes the message and
  `.trajectory` of the ForwardBackwardError that `forward_backward` and
  `run_em` raise on that dataset to ragged/errors.json, so the failure
  text is compared too;
- puts each bad covariance of BAD_COVARIANCES (indefinite, a NaN below or
  above the diagonal, an infinity, and an ill-conditioned matrix that
  passes the M-step's eigenvalue check but not Cholesky) in state 1 of the
  ragged fits' random init, sends it down every path a covariance takes
  (COVARIANCE_PATHS: `cholesky_factor` on the stack, `m_step_standard` on
  counts whose covariances are the stack, which raises where the
  regularized stack does not factor, followed by the first use of the
  fitted model's emission factor, `matchant_matrix` with the bundled
  expert rules, and `gaussian_log_density` on the first ragged
  trajectory), and writes the type and text of each error raised, of its
  cause, and of every warning emitted on the way, to
  covariance/errors.json.

Regime outputs, the sweep's per-cell ones and `reproduce`'s included, and
every file under ragged/ and covariance/ are compared byte for byte:
runs.csv, sweep.csv, every model_*.json, ragged/posteriors.json,
ragged/errors.json, covariance/errors.json, mg_table.txt and each validate
run's output.
summary.json is compared with its config's `out_dir` left out, naming each
dotted key path that differs or that only one side has (e.g.
`config.kmeans_clusters: parent only`). Every other CLI artifact is
compared by content: JSON files as parsed values, CSV files line by line;
a difference in bytes alone is printed as a note. After the differences,
one `size:` line per differing file gives how many of its numeric values
differ and the largest absolute and relative difference among them (JSON
leaves, CSV cells, whitespace-separated numbers in other text), when both
versions hold the same number of them, so a rounding-level change shows
its size. Exits 1 if there is any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = {"low_data": list(range(6)), "high_noise": list(range(3)), "mg_pipeline": [0, 1]}

ASSETS = {"env.json": "synthetic_env.json", "rules.json": "expert_fuzzy_synthetic.json",
          "mg.json": "mg_fuzzy_placeholder.json"}
# env.json with every Beta parameter 1 higher, written by the runner in the
# work directory before the CLI script runs
SECOND_ENV = "env_shifted.json"
# (argv, file that gets the command's stdout or None); paths are relative to
# the work directory, and each output directory exists beforehand so that a
# tree whose generators do not create directories runs the same script
CLI_SCRIPT = [
    (["gen-data", "env.json", "--n", "4", "--horizon", "6", "--seed", "3",
      "--out", "data/ds.json"], None),
    (["gen-fuzzy-data", "mg.json", "--n", "6", "--seed", "0",
      "--out", "data/fds.json"], None),
    (["train", "data/ds.json", "--algo", "em", "--init", "kmeans",
      "--max-iterations", "20", "--seed", "1", "--out", "train/em.json"], None),
    (["train", "data/ds.json", "--algo", "fuzzy-map", "--fuzzy-model", "rules.json",
      "--max-iterations", "20", "--seed", "1", "--out", "train/fm.json"], None),
    (["train", "data/ds.json", "--algo", "fuzzy-map", "--fuzzy-model", "rules.json",
      "--lambda-t", "0", "--lambda-o", "0", "--max-iterations", "20", "--seed", "1",
      "--out", "train/fm_zero.json"], None),
    (["train", "data/ds.json", "--algo", "fuzzy-map", "--fuzzy-model", "rules.json",
      "--final-em-iterations", "2", "--max-iterations", "20", "--seed", "1",
      "--out", "train/fm_polish.json"], None),
    (["eval", "train/em.json", "env.json", "--out", "eval/em.json"], None),
    (["eval", "train/em.json", SECOND_ENV, "--out", "eval/em_shifted.json"], None),
    (["eval", "train/em.json", "env.json", "--out", "eval/em_again.json"], None),
    (["eval", "train/fm.json", "env.json"], "eval/fm_stdout.json"),
    (["sweep", "--regime", "low-data", "--seeds", "1", "--grid", "0,0.1",
      "--out-dir", "sweep"], None),
    (["sweep", "--regime", "high-noise", "--seeds", "2", "--grid", "0,0.1", "--cross",
      "--out-dir", "sweep_cross"], "sweep_cross/stdout.txt"),
    (["reproduce", "--regime", "low-data", "--seeds", "2", "--out-dir", "reproduce"],
     "reproduce/stdout.txt"),
]
CLI_DIRS = ("data", "train", "eval", "validate")
# validate runs, (name, files), after the CLI script, in its work directory:
# one file of each kind validate reads, then each corrupt file the runner
# writes under validate/ followed by a valid file of its kind
VALIDATE_RUNS = [
    ("valid", ["data/ds.json", "env.json", "rules.json", "train/em.json",
               "reproduce/model_0_em.json", "reproduce/summary.json",
               "data/ds.manifest.json", "eval/em.json"]),
    ("missing_key", ["validate/missing_key.json", "data/ds.json"]),
    ("nan", ["validate/nan.json", "reproduce/model_0_em.json"]),
    ("wrong_shape", ["validate/wrong_shape.json", "train/em.json"]),
    ("overflowing_count", ["validate/overflowing_count.json", "reproduce/model_0_em.json"]),
    ("huge_count", ["validate/huge_count.json", "reproduce/model_0_em.json"]),
    ("long_count", ["validate/long_count.json", "reproduce/model_0_em.json"]),
    ("env_counts", ["validate/env_counts.json", "env.json"]),
    ("ill_conditioned", ["validate/ill_conditioned.json", "reproduce/model_0_em.json"]),
    ("non_utf8", ["validate/non_utf8.json", "env.json"]),
    ("rules_unknown_term", ["validate/rules_unknown_term.json", "rules.json"]),
    ("rules_unknown_var", ["validate/rules_unknown_var.json", "rules.json"]),
    ("rules_nan_param", ["validate/rules_nan_param.json", "rules.json"]),
]
# several distinct lengths, interleaved so that grouping by length reorders
RAGGED_LENGTHS = [5, 2, 7, 5, 1, 3, 7, 2, 4, 3]
# its last observation is set to NaN: the second trajectory of the second
# length group, so its dataset index is not its position in the group
BROKEN_TRAJECTORY = 7
# put in state 1 of a 2-dim model; JSON carries the NaN and the infinity
BAD_COVARIANCES = {
    "indefinite": [[1.0, 2.0], [2.0, 1.0]],
    "nan_below": [[1.0, 0.0], [math.nan, 1.0]],
    "nan_above": [[1.0, math.nan], [0.0, 1.0]],
    "inf": [[math.inf, 0.0], [0.0, 1.0]],
    "ill_conditioned": [[268638987563050.4, 132316247527812.94],
                        [132316247527812.94, 65171438884061.39]],
}
COVARIANCE_PATHS = ("cholesky_factor", "m_step_then_first_use", "matchant_matrix",
                    "gaussian_log_density")
REGIME_FILES = ("runs.csv", "mg_table.txt", "sweep.csv")

RUNNER = """
import contextlib, dataclasses, io, json, logging.handlers, os, shutil, sys, warnings
from pathlib import Path
import numpy as np
from fuzzy_pomdp import cli
from fuzzy_pomdp.em import (EmConfig, ForwardBackwardError, SufficientCounts, e_step,
                            forward_backward, m_step_standard, run_em)
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, matchant_matrix, run_fuzzy_map_em
from fuzzy_pomdp.harness import asset_path, random_init, regime_config, run_regime
from fuzzy_pomdp.model import (Trajectory, cholesky_factor, gaussian_log_density, load_env,
                               make_policy, model_to_dict, sample_trajectory, write_json)
from fuzzy_pomdp.rngs import derive_rng
(out, cases, assets, script, dirs, second_env, lengths, validate_runs, broken_index,
 bad_covariances, covariance_paths) = (sys.argv[1], *map(json.loads, sys.argv[2:]))
for regime, seeds in cases.items():
    run_regime(regime_config(regime, seeds, out_dir=f"{out}/{regime}"))
env = load_env(asset_path("synthetic_env.json"))
policy = make_policy("uniform", env.num_actions)
dataset = [sample_trajectory(env, policy, n, derive_rng(0, "ragged", i))
           for i, n in enumerate(lengths)]
init = random_init(dataset, 3, env.num_actions, derive_rng(0, "ragged-init"))
low = regime_config("low_data", [0])
em_config = EmConfig(max_iterations=low.max_iterations)
map_config = FuzzyMapConfig(lambda_t=low.lambda_t, lambda_o=low.lambda_o,
                            final_standard_em_iterations=3)
rules = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
minimum = dataclasses.replace(rules, tnorm="minimum")
mc_config = FuzzyMapConfig(lambda_t=low.lambda_t, lambda_o=low.lambda_o, matchant_samples=50)
prior_config = FuzzyMapConfig(lambda_t=low.lambda_t, lambda_o=low.lambda_o)
fits = {"em": run_em(dataset, init, em_config),
        "fuzzy_map": run_fuzzy_map_em(dataset, init, rules, em_config, map_config),
        "fuzzy_map_minimum": run_fuzzy_map_em(dataset, init, minimum,
                                              EmConfig(max_iterations=5), mc_config),
        "fuzzy_map_prior": run_fuzzy_map_em([], init, rules, em_config, prior_config)}
far = init.num_states - 1
means, transitions = init.obs_means.copy(), init.transitions.copy()
means[far] = 100.0
transitions[:far, :, far] = 0.0
transitions /= transitions.sum(axis=2, keepdims=True)
frozen_init = dataclasses.replace(init, obs_means=means, transitions=transitions)
em_log = logging.getLogger("fuzzy_pomdp.em")
level = em_log.level
em_log.setLevel(logging.DEBUG)
for name, fit in (("em", lambda: run_em(dataset, frozen_init, em_config)),
                  ("fuzzy_map", lambda: run_fuzzy_map_em(dataset, frozen_init, rules,
                                                         em_config, prior_config))):
    em_log.addHandler(records := logging.handlers.BufferingHandler(10**6))
    fits[f"{name}_frozen"] = fit()
    em_log.removeHandler(records)
    if not any(r.msg.startswith("no observation mass") for r in records.buffer):
        sys.exit(f"the frozen-state {name} fit kept no state's parameters")
em_log.setLevel(level)
for name, fit in fits.items():
    write_json(dict(model_to_dict(fit.model), loglik_trace=list(fit.loglik_trace)),
               f"{out}/ragged/model_{name}.json")
posteriors, total = e_step(init, dataset)
write_json({"gamma": posteriors.gamma.tolist(), "xi": posteriors.xi.tolist(),
            "log_likelihoods": posteriors.log_likelihoods.tolist(), "total": total},
           f"{out}/ragged/posteriors.json")
broken = list(dataset)
obs = dataset[broken_index].observations.copy()
obs[-1, 0] = float("nan")
broken[broken_index] = Trajectory(observations=obs, actions=dataset[broken_index].actions)
errors = {}
for name, call in (("forward_backward", lambda: forward_backward(init, broken)),
                   ("run_em", lambda: run_em(broken, init, em_config))):
    try:
        call()
    except ForwardBackwardError as err:
        errors[name] = {"message": str(err), "trajectory": err.trajectory}
    else:
        sys.exit(f"{name} scored a NaN observation")
write_json(errors, f"{out}/ragged/errors.json")
def outcome(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except Exception as err:
            cause = err.__cause__
            record = {"error": f"{type(err).__name__}: {err}",
                      "cause": None if cause is None else f"{type(cause).__name__}: {cause}"}
        else:
            record = {"error": None}
    record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return record
covariance_errors = {}
for name, bad in bad_covariances.items():
    covs = init.obs_covs.copy()
    covs[1] = bad
    model = dataclasses.replace(init, obs_covs=covs)
    counts = SufficientCounts(
        trans=np.ones(init.transitions.shape), obs_weight=np.ones(init.num_states),
        obs_sum=np.zeros(init.obs_means.shape), obs_outer=covs)
    calls = {"cholesky_factor": lambda: cholesky_factor(covs),
             "m_step_then_first_use": lambda: m_step_standard(counts, init,
                                                              em_config).emission_factor,
             "matchant_matrix": lambda: matchant_matrix(model, rules, FuzzyMapConfig()),
             "gaussian_log_density": lambda: gaussian_log_density(
                 dataset[0].observations, init.obs_means, covs)}
    covariance_errors[name] = {path: outcome(calls[path]) for path in covariance_paths}
write_json(covariance_errors, f"{out}/covariance/errors.json")
work = Path(out, "cli")
for name in dirs:
    (work / name).mkdir(parents=True)
for name, asset in assets.items():
    shutil.copyfile(asset_path(asset), work / name)
shifted = json.loads((work / "env.json").read_text())
for pair in (pair for state in shifted["beta_params"] for pair in state):
    pair.update(alpha=pair["alpha"] + 1.0, beta=pair["beta"] + 1.0)
(work / second_env).write_text(json.dumps(shifted))
os.chdir(work)
for argv, stdout_file in script:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"cli {' '.join(argv)} exited {code}")
    if stdout_file:
        Path(stdout_file).write_text(sink.getvalue())
dataset = json.loads(Path("data/ds.json").read_text())
del dataset[0]["actions"]
model = json.loads(Path("reproduce/model_0_em.json").read_text())
checkpoint = json.loads(Path("train/em.json").read_text())
checkpoint["model"]["obs_means"].pop()
counted = {key: value for key, value in model.items() if key != "initial_dist"}
states = f'"num_states": {model["num_states"]},'
unknown_term, unknown_var, nan_param = (json.loads(Path("rules.json").read_text())
                                        for _ in range(3))
unknown_term["rules"][0]["antecedent"][0]["term"] = "absent"
unknown_var["rules"][0]["antecedent"][0]["var"] = "absent"
nan_param["variables"][0]["terms"][0]["params"][1] = float("nan")
corrupt = {
    "missing_key": json.dumps(dataset),
    "nan": json.dumps(dict(model, obs_means=[[float("nan")] + model["obs_means"][0][1:],
                                             *model["obs_means"][1:]])),
    "wrong_shape": json.dumps(checkpoint),
    "overflowing_count": json.dumps(counted).replace(states, '"num_states": 1e400,'),
    "huge_count": json.dumps(counted).replace(states, '"num_states": 1000000000000,'),
    "long_count": json.dumps(counted).replace(states, f'"num_states": {"7" * 5000},'),
    "env_counts": json.dumps(dict(json.loads(Path("env.json").read_text()),
                                  num_states=7, obs_dim=2.5)),
    "ill_conditioned": json.dumps(dict(model, obs_covs=[
        model["obs_covs"][0], bad_covariances["ill_conditioned"], *model["obs_covs"][2:]])),
    "rules_unknown_term": json.dumps(unknown_term),
    "rules_unknown_var": json.dumps(unknown_var),
    "rules_nan_param": json.dumps(nan_param),
}
for name, text in corrupt.items():
    if name.endswith("count") and states in text:
        sys.exit(f"no num_states to replace in {name}")
    Path(f"validate/{name}.json").write_text(text)
Path("validate/non_utf8.json").write_bytes('{"name": "caf\\xe9"}'.encode("latin-1"))
for name, files in validate_runs:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", *files])
    Path(f"validate/{name}.txt").write_text(f"{sink.getvalue()}exit {code}\\n")
"""


def run_tree(tree: Path, out: Path) -> None:
    """Write every case's outputs under out/<regime>, the CLI script's and
    the validate runs' under out/cli and the ragged, prior-only and
    frozen-state fits, the ragged E-step and its errors on a NaN
    observation under out/ragged and the bad covariances' errors under
    out/covariance, using tree's package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    args = [json.dumps(v) for v in (CASES, ASSETS, CLI_SCRIPT, CLI_DIRS, SECOND_ENV,
                                    RAGGED_LENGTHS, VALIDATE_RUNS, BROKEN_TRAJECTORY,
                                    BAD_COVARIANCES, COVARIANCE_PATHS)]
    subprocess.run([sys.executable, "-c", RUNNER, str(out), *args],
                   cwd=tree, env=env, check=True)


def _summary(path: Path) -> dict:
    summary = json.loads(path.read_text())
    summary["config"].pop("out_dir")
    return summary


def key_differences(parent, change, path: str = "") -> list[str]:
    """Dotted key paths at which two JSON values differ.

    Dicts are compared key by key; any other value, lists included, is
    compared whole, by its JSON text, so 1 and 1.0 differ.
    """
    if not (isinstance(parent, dict) and isinstance(change, dict)):
        same = json.dumps(parent, sort_keys=True) == json.dumps(change, sort_keys=True)
        return [] if same else [f"{path}: differs"]
    found = []
    for key in sorted(set(parent) | set(change)):
        sub = f"{path}.{key}" if path else key
        if key not in change:
            found.append(f"{sub}: parent only")
        elif key not in parent:
            found.append(f"{sub}: change only")
        else:
            found += key_differences(parent[key], change[key], sub)
    return found


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _json_numbers(value) -> list[float]:
    """Numeric leaves of a parsed JSON value in document order; booleans
    are left out, number-like strings ("inf", "nan") are read as floats."""
    if isinstance(value, dict):
        return [x for item in value.values() for x in _json_numbers(item)]
    if isinstance(value, list):
        return [x for item in value for x in _json_numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, str):
        number = _number(value)
        return [] if number is None else [number]
    return []


def numeric_values(path: Path) -> list[float]:
    """A file's numbers in order: JSON leaves, CSV cells or, in any other
    text, whitespace-separated tokens that parse as floats."""
    text = path.read_text()
    if path.name == "summary.json":
        return _json_numbers(_summary(path))
    if path.suffix == ".json":
        return _json_numbers(json.loads(text))
    if path.suffix == ".csv":
        cells = [cell for row in csv.reader(text.splitlines()) for cell in row]
    else:
        cells = text.split()
    return [x for x in map(_number, cells) if x is not None]


def largest_difference(a: Path, b: Path) -> str:
    """The largest absolute and relative difference between the numeric
    values of two versions of a file, or why they cannot be paired."""
    xs, ys = numeric_values(a), numeric_values(b)
    if len(xs) != len(ys):
        return f"{len(xs)} numeric values against {len(ys)}: not compared"
    max_abs = max_rel = 0.0
    differ = 0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        differ += 1
        gap = abs(x - y)
        if not math.isfinite(gap):  # an inf or a NaN against another value
            max_abs = max_rel = math.inf
            continue
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / max(abs(x), abs(y)))
    return (f"{differ} of {len(xs)} numeric values differ; largest difference "
            f"absolute {max_abs:.3g}, relative {max_rel:.3g}")


def compare_file(a: Path, b: Path, name: str) -> tuple[list[str], list[str], list[str]]:
    """(differences, notes, sizes) between one file's two versions; sizes
    holds the largest numeric difference of a file that differs."""
    if a.name == "summary.json":
        found = [f"{name}: {key}" for key in key_differences(_summary(a), _summary(b))]
    elif a.read_bytes() == b.read_bytes():
        return [], [], []
    elif (a.name in REGIME_FILES or a.name.startswith("model_")
          or a.parent.name in ("validate", "ragged", "covariance")):
        found = [f"{name}: differs"]
    elif a.suffix == ".json":
        keys = key_differences(json.loads(a.read_text()), json.loads(b.read_text()))
        found = [f"{name}: {key}" for key in keys]
    else:
        same = a.read_text().splitlines() == b.read_text().splitlines()
        found = [] if same else [f"{name}: lines differ"]
    if not found:
        notes = [] if a.name == "summary.json" else [f"{name}: same content, different bytes"]
        return [], notes, []
    return found, [], [f"{name}: {largest_difference(a, b)}"]


def differences(parent: Path, change: Path) -> tuple[list[str], list[str], list[str]]:
    """Every output file that is missing on one side or differs, notes, and
    the largest numeric difference of each file that differs."""
    found, notes, sizes = [], [], []
    files = {p.relative_to(root) for root in (parent, change)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not (a.exists() and b.exists()):
            found.append(f"{rel}: written by one tree only")
            continue
        diff, note, size = compare_file(a, b, str(rel))
        found += diff
        notes += note
        sizes += size
    return found, notes, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = Path(tmp, "parent"), Path(tmp, "change")
        for tree, out in zip((args.parent, args.change), outs):
            run_tree(tree.resolve(), out)
        found, notes, sizes = differences(*outs)
    for line in notes:
        print(f"note: {line}")
    for line in found:
        print(line)
    for line in sizes:
        print(f"size: {line}")
    total = sum(len(seeds) for seeds in CASES.values())
    print(f"{len(found)} difference(s) over {len(CASES)} regimes, {total} seeds, "
          f"{len(CLI_SCRIPT)} CLI commands, {len(VALIDATE_RUNS)} validate runs and the ragged, "
          f"prior-only and frozen-state fits, the ragged E-step and its errors and "
          f"{len(BAD_COVARIANCES)} bad covariances on {len(COVARIANCE_PATHS)} paths; "
          f"{len(notes)} byte-only note(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
