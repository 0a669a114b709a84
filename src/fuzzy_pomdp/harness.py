"""Reproducible experiment pipelines.

Three canned regimes: `low_data` (3 trajectories of 5 steps), `high_noise`
(10 trajectories of 5 steps with additive Gaussian observation noise), and
`mg_pipeline` (trajectories generated from a fuzzy model, k-means
initialization, fuzzy-prior training, one standard EM polish iteration).
Each seed trains standard EM and the fuzzy-prior variant on identical data
and initializations, so every comparison is paired.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import asdict, dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .em import EmConfig, _FitData, run_em
from .fuzzy import FuzzyModel, infer, load_fuzzy_model
from .fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from .metrics import evaluate_model
from .model import (
    GroundTruthEnv,
    PomdpModel,
    Trajectory,
    load_env,
    make_policy,
    model_to_dict,
    sample_trajectory,
    write_json,
)
from .rngs import derive_rng

log = logging.getLogger(__name__)

REGIMES = ("low_data", "high_noise", "mg_pipeline")
# the two fitters of every seed's pair, in the order of its rows
ALGORITHMS = ("em", "fuzzy_map")
# runs.csv columns ahead of the per-state KL columns, which follow the env's
# state labels (see kl_columns)
CSV_COLUMNS = (
    "regime",
    "seed",
    "algorithm",
    "lambda_t",
    "lambda_o",
    "l1_avg",
    "l1_total",
)
# the action-selection rule of every regime's data and of the r2 holdout
POLICY = "uniform"
# random inits per seed in the env-backed regimes; mg_pipeline fits once
RESTARTS = 5
# output noise std of mg_pipeline's rule-base rollouts
MG_GENERATION_NOISE_SIGMA = 0.05
# the bundled rule base of the env-backed regimes, and mg_pipeline's
EXPERT_RULES = "expert_fuzzy_synthetic.json"
MG_RULES = "mg_fuzzy_placeholder.json"


def asset_path(name: str) -> Path:
    """Filesystem path of a packaged asset file."""
    return Path(resources.files("fuzzy_pomdp").joinpath("assets", name))


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str
    seeds: tuple[int, ...]
    num_trajectories: int
    horizon: int
    noise_sigma: float = 0.0
    lambda_t: float = 0.0
    lambda_o: float = 0.0
    out_dir: str | None = None
    num_states: int = 3
    final_standard_em_iterations: int = 0
    max_iterations: int = 200

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        # each value outside these bounds would fail every seed
        for name in ("noise_sigma", "lambda_t", "lambda_o"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        for name, low in (("num_trajectories", 1), ("horizon", 1), ("num_states", 1),
                          ("max_iterations", 1), ("final_standard_em_iterations", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # every init gives each state its own observation to start from
        num_obs = self.num_trajectories * self.horizon
        if self.num_states > num_obs:
            raise ValueError(f"num_states must be at most num_trajectories * horizon ({num_obs})")
        seeds = tuple(int(s) for s in self.seeds)
        repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
        if repeated is not None:
            raise ValueError(f"seed {repeated} is listed more than once")
        object.__setattr__(self, "seeds", seeds)


def regime_config(regime: str, seeds, out_dir: str | None = None, **overrides) -> ExperimentConfig:
    """Canned per-regime defaults, overridable field by field."""
    seeds = tuple(seeds)
    # low_data caps EM at 100 iterations. Over its 20 acceptance seeds (100
    # fits each way, restarts included) plain EM converges in every fit,
    # median 14.5 iterations; fuzzy-MAP EM converges in 92% of fits, median
    # 30, and the other 8% stop at the cap. A cap of 200 gave the same
    # acceptance win rate and improvement. The other regimes keep the
    # package default.
    base = {
        "low_data": dict(num_trajectories=3, horizon=5, noise_sigma=0.0,
                         lambda_t=0.1, lambda_o=0.05, max_iterations=100),
        "high_noise": dict(num_trajectories=10, horizon=5, noise_sigma=0.5,
                           lambda_t=0.1, lambda_o=0.05),
        "mg_pipeline": dict(num_trajectories=40, horizon=9, noise_sigma=0.0,
                            lambda_t=0.05, lambda_o=0.05, num_states=2,
                            final_standard_em_iterations=1),
    }
    if regime not in base:
        raise ValueError(f"no canned defaults for regime {regime!r}")
    params = dict(base[regime])
    params.update(overrides)
    return ExperimentConfig(regime=regime, seeds=seeds, out_dir=out_dir, **params)


def add_noise(dataset: list[Trajectory], sigma: float, rng: np.random.Generator) -> list[Trajectory]:
    """Independent additive N(0, sigma^2) on every observation component.

    Values are deliberately not clipped to [0, 1]; sigma 0 returns the
    dataset unchanged.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return list(dataset)
    out = []
    for traj in dataset:
        noisy = traj.observations + sigma * rng.standard_normal(traj.observations.shape)
        out.append(Trajectory(observations=noisy, actions=traj.actions))
    return out


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Plain k-means with k-means++ seeding; returns (centroids, labels).

    Stops when no centroid moves more than 1e-6, or after 100 Lloyd
    iterations. An emptied cluster is reseeded at the point farthest from
    its centroid.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if len(np.unique(points, axis=0)) < k:
        raise ValueError(f"need at least {k} distinct points, got fewer")
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for j in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            probs = np.full(n, 1.0 / n)
        else:
            probs = d2 / total
        centroids[j] = points[rng.choice(n, p=probs)]
    for _ in range(100):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                new_centroids[j] = points[dists[:, j].argmax()]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= 1e-6:
            break
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, dists.argmin(axis=1)


def kmeans_init(dataset: list[Trajectory], k: int, num_actions: int,
                rng: np.random.Generator) -> PomdpModel:
    """Cluster all observations; centroids become the initial state means.

    Covariances start at identity, transitions and the initial distribution
    at uniform.
    """
    points = np.vstack([t.observations for t in dataset])
    centroids, _ = kmeans(points, k, rng)
    d = points.shape[1]
    return PomdpModel(
        num_states=k,
        num_actions=num_actions,
        obs_dim=d,
        transitions=np.full((k, num_actions, k), 1.0 / k),
        obs_means=centroids,
        obs_covs=np.tile(np.eye(d), (k, 1, 1)),
    )


def random_init(dataset: list[Trajectory], num_states: int, num_actions: int,
                rng: np.random.Generator) -> PomdpModel:
    """Random restart seed: means at distinct data points, inflated
    pooled-variance diagonal covariances (wide covariances keep early
    responsibilities soft), Dirichlet-random transition rows."""
    points = np.vstack([t.observations for t in dataset])
    if num_states > len(points):
        raise ValueError(f"need at least {num_states} observations, got {len(points)}")
    d = points.shape[1]
    idx = rng.choice(len(points), size=num_states, replace=False)
    pooled_var = np.maximum(points.var(axis=0), 1e-3)
    transitions = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    return PomdpModel(
        num_states=num_states,
        num_actions=num_actions,
        obs_dim=d,
        transitions=transitions,
        obs_means=points[idx],
        obs_covs=np.tile(np.diag(1.5 * pooled_var), (num_states, 1, 1)),
    )


def generate_fuzzy_trajectories(
    fuzzy: FuzzyModel,
    n: int,
    horizon: int,
    policy,
    output_noise_sigma: float,
    rng: np.random.Generator,
) -> list[Trajectory]:
    """Roll the fuzzy model forward as a simulator.

    Initial observations are uniform over each variable's declared range;
    each step applies the rule-base prediction plus isotropic Gaussian
    noise, clamped back to the declared ranges. The random draws come
    trajectory by trajectory (first observation, then each step's action
    and noise), since none depends on a prediction; the predictions are
    then made for all trajectories at once, one batched infer per step.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    ranges = fuzzy.variable_ranges
    lo, hi = ranges[:, 0], ranges[:, 1]
    # time-major, so that each step's batch is contiguous
    obs = np.empty((horizon, n, fuzzy.obs_dim))
    noise = np.empty((horizon - 1, n, fuzzy.obs_dim))
    actions = np.empty((n, horizon - 1), dtype=int)
    for i in range(n):
        obs[0, i] = lo + (hi - lo) * rng.random(fuzzy.obs_dim)
        for t in range(horizon - 1):
            actions[i, t] = int(policy(t, rng))
            if output_noise_sigma > 0:
                noise[t, i] = output_noise_sigma * rng.standard_normal(fuzzy.obs_dim)
    for t in range(horizon - 1):
        pred = infer(fuzzy, obs[t], actions[:, t])
        if output_noise_sigma > 0:
            pred = pred + noise[t]
        obs[t + 1] = np.clip(pred, lo, hi)
    return [Trajectory(observations=obs[:, i].copy(), actions=actions[i]) for i in range(n)]


def fuzzy_model_r2(fuzzy: FuzzyModel, env: GroundTruthEnv) -> float:
    """One-step predictive R^2 of the fuzzy model on 50 held-out env
    rollouts of 10 steps.

    The holdout stream is disjoint from every training stream by seed
    construction; this quantifies rule quality without being a test target.
    """
    policy = make_policy(POLICY, env.num_actions)
    holdout = [
        sample_trajectory(env, policy, 10, derive_rng(20260815, "r2-holdout", i))
        for i in range(50)
    ]
    preds = infer(fuzzy, np.concatenate([traj.observations[:-1] for traj in holdout]),
                  np.concatenate([traj.actions for traj in holdout]))
    actuals = np.concatenate([traj.observations[1:] for traj in holdout])
    ss_res = float(((actuals - preds) ** 2).sum())
    ss_tot = float(((actuals - actuals.mean(axis=0)) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@cache
def _bundled_inputs(rules: str) -> tuple[GroundTruthEnv, FuzzyModel, float | None]:
    """The bundled env, the rule base in asset `rules`, and that rule base's
    expert_model_r2 on the env (None for MG_RULES, which is not scored on
    it), loaded and scored once per process. Both objects are frozen and
    their arrays read-only, so every run_regime call can share them."""
    env = load_env(asset_path("synthetic_env.json"))
    fuzzy = load_fuzzy_model(asset_path(rules))
    return env, fuzzy, None if rules == MG_RULES else fuzzy_model_r2(fuzzy, env)


def synthetic_dataset(env: GroundTruthEnv, config: ExperimentConfig, seed: int) -> list[Trajectory]:
    """The per-seed training set for the env-backed regimes."""
    policy = make_policy(POLICY, env.num_actions)
    dataset = [
        sample_trajectory(env, policy, config.horizon, derive_rng(seed, "traj", i))
        for i in range(config.num_trajectories)
    ]
    if config.noise_sigma > 0:
        dataset = add_noise(dataset, config.noise_sigma, derive_rng(seed, "noise"))
    return dataset


def run_paired_seed(env: GroundTruthEnv | None, fuzzy: FuzzyModel,
                    config: ExperimentConfig, seed: int, *,
                    cells: list[tuple[float, float]] | None = None) -> dict:
    """Train both algorithms on identical data and inits for one seed.

    Returns {"em": result, "fuzzy_map": result, "dataset": ...} where each
    result carries the trained model and its log-likelihood trace. Each
    regime only builds the seed's dataset and its initializations: one
    k-means init for mg_pipeline, RESTARTS random inits otherwise. Both
    algorithms then fit from every init, restart r's fuzzy-MAP fit seeded
    by seed * 1000 + r, and each keeps its fit with the highest final
    log-likelihood, the first one on a tie. The dataset is checked and
    prepared once (em._FitData) for all of the seed's fits; a dataset it
    refuses raises its ValueError, cells or not.

    Fuzzy-MAP is fitted at each (lambda_t, lambda_o) of cells, by default
    the config's own pair only. With cells given, "fuzzy_map" lists each
    cell's best fit, or the first error of its fits in the order em_0,
    fm_0, em_1, fm_1, ..., where each em_r is fitted once for all cells
    ("em" is None if every cell failed). A cell with both lambdas 0 and no
    polish (final_standard_em_iterations 0) is plain EM bit for bit, so its
    fm_r is em_r itself, not a second fit.
    """
    if config.regime == "mg_pipeline":
        policy = make_policy(POLICY, fuzzy.num_actions)
        dataset = generate_fuzzy_trajectories(
            fuzzy, config.num_trajectories, config.horizon, policy,
            MG_GENERATION_NOISE_SIGMA, derive_rng(seed, "mg-data"),
        )
        inits = [kmeans_init(dataset, config.num_states, fuzzy.num_actions,
                             derive_rng(seed, "kmeans"))]
    else:
        dataset = synthetic_dataset(env, config, seed)
        inits = [
            random_init(dataset, config.num_states, env.num_actions, derive_rng(seed, "init", r))
            for r in range(RESTARTS)
        ]
    lambdas = [(config.lambda_t, config.lambda_o)] if cells is None else list(cells)
    em_config = EmConfig(max_iterations=config.max_iterations)
    # fm_fits holds, per cell, its fuzzy-MAP fits so far or the error that stopped it
    em_fits, fm_fits = [], [[] for _ in lambdas]
    # one preparation serves every fit of the seed
    data = _FitData(dataset, inits[0].num_actions, inits[0].obs_dim)
    for r, init in enumerate(inits):
        alive = [i for i, fits in enumerate(fm_fits) if isinstance(fits, list)]
        if not alive:
            break
        try:
            em_fits.append(run_em(data, init, em_config))
        except Exception as err:
            fm_fits = [err if i in alive else fits for i, fits in enumerate(fm_fits)]
            break
        for i in alive:
            lambda_t, lambda_o = lambdas[i]
            if lambda_t == lambda_o == 0.0 and not config.final_standard_em_iterations:
                # no prior weight and no polish: fuzzy-MAP EM's fit is this one, bit for bit
                fm_fits[i].append(em_fits[-1])
                continue
            try:
                map_config = FuzzyMapConfig(
                    lambda_t=lambda_t, lambda_o=lambda_o, seed=seed * 1000 + r,
                    final_standard_em_iterations=config.final_standard_em_iterations)
                fm_fits[i].append(run_fuzzy_map_em(data, init, fuzzy, em_config, map_config))
            except Exception as err:
                fm_fits[i] = err

    def best(fits):
        return max(fits, key=lambda fit: fit.loglik_trace[-1])

    fuzzy_map = [fits if isinstance(fits, Exception) else best(fits) for fits in fm_fits]
    if cells is None:
        (fuzzy_map,) = fuzzy_map
        if isinstance(fuzzy_map, Exception):
            raise fuzzy_map
    em = best(em_fits) if any(isinstance(fits, list) for fits in fm_fits) else None
    return {"em": em, "fuzzy_map": fuzzy_map, "dataset": dataset}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _median(values) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.median(np.asarray(vals, dtype=float)))


def kl_columns(state_labels) -> tuple[str, ...]:
    """The per-state KL column names, one per env state label, in state order."""
    return tuple(f"kl_{label.lower()}" for label in state_labels)


def _eval_row(config: ExperimentConfig, seed: int, algorithm: str,
              model: PomdpModel, env: GroundTruthEnv | None,
              kl_cols: tuple[str, ...]) -> dict:
    lam_t, lam_o = (config.lambda_t, config.lambda_o) if algorithm == "fuzzy_map" else (0.0, 0.0)
    row = {
        "regime": config.regime,
        "seed": seed,
        "algorithm": algorithm,
        "lambda_t": lam_t,
        "lambda_o": lam_o,
        "l1_avg": None,
        "l1_total": None,
        **dict.fromkeys(kl_cols),
    }
    if env is not None:
        report = evaluate_model(model, env)
        row["l1_avg"] = report.l1_transition
        row["l1_total"] = report.l1_transition_total
        row.update(zip(kl_cols, report.kl_per_state.values()))
    return row


def _checkpoint(fit) -> dict:
    """A fit's model_<seed>_<alg>.json payload."""
    return dict(model_to_dict(fit.model), iteration=fit.iterations,
                loglik_trace=list(fit.loglik_trace))


def _mg_table(model: PomdpModel, fuzzy: FuzzyModel, seed: int) -> str:
    """Text table of the learned two-state model, lower-severity state first.

    A from-state row is starred when the two actions disagree by more than
    0.1 in L1, highlighting where the treatment changes the dynamics.
    """
    order = np.argsort(model.obs_means[:, 0])
    labels = ["Mild", "Severe"] if model.num_states == 2 else [
        f"state_{i}" for i in range(model.num_states)
    ]
    action_names = [f"action_{a}" for a in range(model.num_actions)]
    if fuzzy.num_actions == 2:
        action_names = ["no_treatment", "treatment"]
    lines = [
        f"Two-state model learned by the fuzzy-prior pipeline (seed {seed})",
        "",
    ]
    trans = model.transitions[order][:, :, order]
    means = model.obs_means[order]
    gaps = np.abs(trans[:, 0, :] - trans[:, 1, :]).sum(axis=1) if model.num_actions == 2 else None
    for a, aname in enumerate(action_names):
        lines.append(f"Transition probabilities, {aname}:")
        header = "  from \\ to    " + "  ".join(f"{lab:>8}" for lab in labels)
        lines.append(header)
        for i, lab in enumerate(labels):
            mark = " *" if gaps is not None and gaps[i] > 0.1 else ""
            cells = "  ".join(f"{trans[i, a, j]:8.3f}" for j in range(len(labels)))
            lines.append(f"  {lab:<12} {cells}{mark}")
        lines.append("")
    lines.append("Observation means:")
    for i, lab in enumerate(labels):
        cells = ", ".join(f"{v:.3f}" for v in means[i])
        lines.append(f"  {lab:<12} [{cells}]")
    lines.append("")
    lines.append("* actions differ by more than 0.1 (L1) from this state")
    return "\n".join(lines) + "\n"


def run_regime(config: ExperimentConfig) -> dict:
    """Execute a full seed sweep and write all report files: run_sweep's
    one-cell case."""
    return run_sweep([config])[0]


def run_sweep(configs: list[ExperimentConfig]) -> list[dict]:
    """Run one regime at several prior-weight cells: one report per config,
    and its out_dir's files, as run_regime gives for that config alone.

    The configs may differ only in lambda_t, lambda_o and out_dir (a
    ValueError names another field that differs). Each seed's data, inits
    and plain-EM fits are made, and its plain-EM winner scored, once for
    all cells. A seed that fails in a cell (see run_paired_seed) is
    skipped there and recorded in its summary. Each seed's fits are scored
    as one (em, fuzzy_map) pair of rows; where out_dir is set, their
    model_<seed>_<alg>.json checkpoints are written as the seed finishes,
    then runs.csv, summary.json and, for mg_pipeline, mg_table.txt. The
    KL columns follow the bundled env's state labels, empty for mg_pipeline.
    """
    if not configs:
        raise ValueError("configs must be non-empty")
    first = configs[0]
    differ = [f.name for f in fields(first) for config in configs
              if f.name not in ("lambda_t", "lambda_o", "out_dir")
              and getattr(config, f.name) != getattr(first, f.name)]
    if differ:
        raise ValueError(f"sweep configs differ in {differ[0]}")
    is_mg = first.regime == "mg_pipeline"
    bundled, fuzzy, r2 = _bundled_inputs(MG_RULES if is_mg else EXPERT_RULES)
    env = None if is_mg else bundled
    kl_cols = kl_columns(bundled.state_labels)
    outs = [Path(config.out_dir) if config.out_dir else None for config in configs]
    pairs, failures = [[] for _ in configs], [[] for _ in configs]
    mg_tables = [None] * len(configs)
    for seed in first.seeds:
        try:
            outcome = run_paired_seed(env, fuzzy, first, seed,
                                      cells=[(c.lambda_t, c.lambda_o) for c in configs])
        except Exception as err:
            outcome = {"em": None, "fuzzy_map": [err] * len(configs)}
        if outcome["em"] is not None:
            em_row = _eval_row(first, seed, "em", outcome["em"].model, env, kl_cols)
            em_checkpoint = _checkpoint(outcome["em"])
        for i, fit in enumerate(outcome["fuzzy_map"]):
            if isinstance(fit, Exception):
                log.warning("seed %d failed: %s", seed, fit)
                failures[i].append({"seed": seed, "error": str(fit)})
                continue
            pairs[i].append((dict(em_row),
                             _eval_row(configs[i], seed, "fuzzy_map", fit.model, env, kl_cols)))
            if outs[i] is not None:
                write_json(em_checkpoint, outs[i] / f"model_{seed}_em.json")
                write_json(_checkpoint(fit), outs[i] / f"model_{seed}_fuzzy_map.json")
            if is_mg and mg_tables[i] is None:
                mg_tables[i] = _mg_table(fit.model, fuzzy, seed)

    reports = []
    for i, (config, out, mg_table) in enumerate(zip(configs, outs, mg_tables)):
        rows = [row for pair in pairs[i] for row in pair]
        summary = _summarize(config, pairs[i], failures[i], kl_cols)
        if env is not None:
            summary["expert_model_r2"] = r2
            summary["notes"] = (
                "initial state distribution fixed at uniform; expert rules are "
                "hand-specified and validated on rollouts disjoint from training seeds"
            )
        if out is not None:
            write_runs_csv(out / "runs.csv", rows, CSV_COLUMNS + kl_cols)
            write_json(summary, out / "summary.json")
            if mg_table is not None:
                (out / "mg_table.txt").write_text(mg_table)
        reports.append(dict(summary, rows=rows, state_labels=bundled.state_labels))
        if mg_table is not None:
            reports[-1]["mg_table"] = mg_table
    return reports


def write_runs_csv(path, rows: list[dict], columns: tuple[str, ...]) -> None:
    """The package's one CSV layout: a header, then one CRLF-ended line per
    row (floats to 12 significant digits, None empty); creates parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])


def _summarize(config: ExperimentConfig, pairs: list[tuple[dict, dict]],
               failures: list[dict], kl_cols: tuple[str, ...]) -> dict:
    """Per-algorithm medians, and paired win rates on the row-average L1 and
    on the KL of the last state (the most severe one in the bundled env)."""
    per_algorithm = {
        alg: {f"median_{metric}": _median([pair[i][metric] for pair in pairs])
              for metric in ("l1_avg", "l1_total") + kl_cols}
        for i, alg in enumerate(ALGORITHMS)
    }
    wins: dict[str, list[bool]] = {"l1_avg": [], kl_cols[-1]: []}
    rel_improvements = []
    for em, fm in pairs:
        for metric, won in wins.items():
            if em[metric] is not None and fm[metric] is not None:
                won.append(fm[metric] < em[metric])
        a, b = em["l1_avg"], fm["l1_avg"]
        if a is not None and b is not None and a > 0 and math.isfinite(a) and math.isfinite(b):
            rel_improvements.append((a - b) / a)
    return {
        "regime": config.regime,
        "config": asdict(config),
        "seeds": list(config.seeds),
        "num_failures": len(failures),
        "failures": failures,
        "per_algorithm": per_algorithm,
        "win_rates": {metric: sum(won) / len(won) if won else None
                      for metric, won in wins.items()},
        "median_relative_improvement_l1": _median(rel_improvements),
    }
