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
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .em import EmConfig, run_em
from .fuzzy import FuzzyModel, InferenceError, infer, load_fuzzy_model
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
)
from .rngs import derive_rng

log = logging.getLogger(__name__)

REGIMES = ("low_data", "high_noise", "mg_pipeline", "custom")
CSV_COLUMNS = (
    "regime",
    "seed",
    "algorithm",
    "lambda_t",
    "lambda_o",
    "l1_avg",
    "l1_total",
    "kl_healthy",
    "kl_sick",
    "kl_critical",
)
DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


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
    policy: str = "uniform"
    env_path: str | None = None
    fuzzy_path: str | None = None
    out_dir: str | None = None
    num_states: int = 3
    restarts: int = 5
    kmeans_clusters: int = 2
    generation_noise_sigma: float = 0.05
    matchant_samples: int = 1000
    final_standard_em_iterations: int = 0
    max_iterations: int = 200
    loglik_tolerance: float = 1e-6

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


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


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           tol: float = 1e-6, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain k-means with k-means++ seeding; returns (centroids, labels).

    Stops when no centroid moves more than tol, or after max_iter Lloyd
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
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
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
        if shift <= tol:
            break
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, dists.argmin(axis=1)


def kmeans_init(dataset: list[Trajectory], k: int, rng: np.random.Generator) -> PomdpModel:
    """Cluster all observations; centroids become the initial state means.

    Covariances start at identity, transitions and the initial distribution
    at uniform. Action count is taken from the dataset's action indices.
    """
    points = np.vstack([t.observations for t in dataset])
    centroids, _ = kmeans(points, k, rng)
    num_actions = int(max(t.actions.max(initial=0) for t in dataset)) + 1
    d = points.shape[1]
    return PomdpModel(
        num_states=k,
        num_actions=num_actions,
        obs_dim=d,
        transitions=np.full((k, num_actions, k), 1.0 / k),
        obs_means=centroids,
        obs_covs=np.tile(np.eye(d), (k, 1, 1)),
        initial_dist=None,
        state_labels=tuple(f"state_{i}" for i in range(k)),
    )


def random_init(dataset: list[Trajectory], num_states: int, num_actions: int,
                rng: np.random.Generator) -> PomdpModel:
    """Random restart seed: means at distinct data points, inflated
    pooled-variance diagonal covariances (wide covariances keep early
    responsibilities soft), Dirichlet-random transition rows."""
    points = np.vstack([t.observations for t in dataset])
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
    zero_firing: str = "identity",
) -> list[Trajectory]:
    """Roll the fuzzy model forward as a simulator.

    Initial observations are uniform over each variable's declared range;
    each step applies the rule-base prediction plus isotropic Gaussian
    noise, clamped back to the declared ranges.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    ranges = fuzzy.variable_ranges
    lo, hi = ranges[:, 0], ranges[:, 1]
    dataset = []
    for _ in range(n):
        obs = np.empty((horizon, fuzzy.obs_dim))
        actions = np.empty(horizon - 1, dtype=int)
        obs[0] = lo + (hi - lo) * rng.random(fuzzy.obs_dim)
        for t in range(horizon - 1):
            action = int(policy(t, rng))
            actions[t] = action
            try:
                pred = infer(fuzzy, obs[t], action, zero_firing=zero_firing)
            except InferenceError as err:
                raise InferenceError(f"timestep {t}: {err}") from err
            if output_noise_sigma > 0:
                pred = pred + output_noise_sigma * rng.standard_normal(fuzzy.obs_dim)
            obs[t + 1] = np.clip(pred, lo, hi)
        dataset.append(Trajectory(observations=obs, actions=actions))
    return dataset


def fuzzy_model_r2(fuzzy: FuzzyModel, env: GroundTruthEnv, num_trajectories: int = 50,
                   horizon: int = 10, seed: int = 20260815, policy_spec: str = "uniform") -> float:
    """One-step predictive R^2 of the fuzzy model on held-out env rollouts.

    The holdout stream is disjoint from every training stream by seed
    construction; this quantifies rule quality without being a test target.
    """
    policy = make_policy(policy_spec, env.num_actions)
    preds, actuals = [], []
    for i in range(num_trajectories):
        traj = sample_trajectory(env, policy, horizon, derive_rng(seed, "r2-holdout", i))
        for t in range(len(traj) - 1):
            preds.append(infer(fuzzy, traj.observations[t], int(traj.actions[t])))
            actuals.append(traj.observations[t + 1])
    preds = np.array(preds)
    actuals = np.array(actuals)
    ss_res = float(((actuals - preds) ** 2).sum())
    ss_tot = float(((actuals - actuals.mean(axis=0)) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def _em_config(config: ExperimentConfig) -> EmConfig:
    return EmConfig(
        max_iterations=config.max_iterations,
        loglik_tolerance=config.loglik_tolerance,
    )


def _map_config(config: ExperimentConfig, seed: int, restart: int) -> FuzzyMapConfig:
    return FuzzyMapConfig(
        lambda_t=config.lambda_t,
        lambda_o=config.lambda_o,
        matchant_samples=config.matchant_samples,
        seed=seed * 1000 + restart,
        final_standard_em_iterations=config.final_standard_em_iterations,
    )


def synthetic_dataset(env: GroundTruthEnv, config: ExperimentConfig, seed: int) -> list[Trajectory]:
    """The per-seed training set for the env-backed regimes."""
    policy = make_policy(config.policy, env.num_actions)
    dataset = [
        sample_trajectory(env, policy, config.horizon, derive_rng(seed, "traj", i))
        for i in range(config.num_trajectories)
    ]
    if config.noise_sigma > 0:
        dataset = add_noise(dataset, config.noise_sigma, derive_rng(seed, "noise"))
    return dataset


def run_paired_seed(env: GroundTruthEnv | None, fuzzy: FuzzyModel,
                    config: ExperimentConfig, seed: int) -> dict:
    """Train both algorithms on identical data and inits for one seed.

    Returns {"em": result, "fuzzy_map": result, "dataset": ...} where each
    result carries the trained model and its log-likelihood trace. For the
    env-backed regimes both algorithms share the better-of-restarts
    protocol with identical restart initializations.
    """
    em_config = _em_config(config)
    if config.regime == "mg_pipeline":
        policy = make_policy(config.policy, fuzzy.num_actions)
        dataset = generate_fuzzy_trajectories(
            fuzzy, config.num_trajectories, config.horizon, policy,
            config.generation_noise_sigma, derive_rng(seed, "mg-data"),
        )
        init = kmeans_init(dataset, config.kmeans_clusters, derive_rng(seed, "kmeans"))
        em_res = run_em(dataset, init, em_config)
        fm_res = run_fuzzy_map_em(dataset, init, fuzzy, em_config, _map_config(config, seed, 0))
        return {"em": em_res, "fuzzy_map": fm_res, "dataset": dataset}

    dataset = synthetic_dataset(env, config, seed)
    inits = [
        random_init(dataset, config.num_states, env.num_actions, derive_rng(seed, "init", r))
        for r in range(config.restarts)
    ]
    best_em = None
    best_fm = None
    for r, init in enumerate(inits):
        em_res = run_em(dataset, init, em_config)
        if best_em is None or em_res.loglik_trace[-1] > best_em.loglik_trace[-1]:
            best_em = em_res
        fm_res = run_fuzzy_map_em(dataset, init, fuzzy, em_config, _map_config(config, seed, r))
        if best_fm is None or fm_res.loglik_trace[-1] > best_fm.loglik_trace[-1]:
            best_fm = fm_res
    return {"em": best_em, "fuzzy_map": best_fm, "dataset": dataset}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _sanitize(obj):
    """Make a report JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _median(values) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.median(np.asarray(vals, dtype=float)))


def _eval_row(config: ExperimentConfig, seed: int, algorithm: str,
              model: PomdpModel, env: GroundTruthEnv | None) -> dict:
    lam_t = config.lambda_t if algorithm == "fuzzy_map" else 0.0
    lam_o = config.lambda_o if algorithm == "fuzzy_map" else 0.0
    row = {
        "regime": config.regime,
        "seed": seed,
        "algorithm": algorithm,
        "lambda_t": lam_t,
        "lambda_o": lam_o,
        "l1_avg": None,
        "l1_total": None,
        "kl_healthy": None,
        "kl_sick": None,
        "kl_critical": None,
    }
    if env is not None:
        report = evaluate_model(model, env)
        row["l1_avg"] = report.l1_transition
        row["l1_total"] = report.l1_transition_total
        for label, value in report.kl_per_state.items():
            key = f"kl_{label.lower()}"
            if key in row:
                row[key] = value
    return row


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
    """Execute a full seed sweep and write all report files.

    Per-seed failures are recorded in the summary and skipped; the sweep
    itself always completes. Outputs (when out_dir is set): runs.csv,
    summary.json, model_<seed>_<alg>.json checkpoints, and for the
    mg_pipeline regime a human-readable mg_table.txt.
    """
    is_mg = config.regime == "mg_pipeline"
    env = None
    if not is_mg:
        env = load_env(config.env_path or asset_path("synthetic_env.json"))
    default_fuzzy = "mg_fuzzy_placeholder.json" if is_mg else "expert_fuzzy_synthetic.json"
    fuzzy = load_fuzzy_model(config.fuzzy_path or asset_path(default_fuzzy))

    rows: list[dict] = []
    failures: list[dict] = []
    checkpoints: dict[tuple[int, str], dict] = {}
    mg_table = None
    for seed in config.seeds:
        try:
            outcome = run_paired_seed(env, fuzzy, config, seed)
        except Exception as err:
            log.warning("seed %d failed: %s", seed, err)
            failures.append({"seed": seed, "error": str(err)})
            continue
        for algorithm in ("em", "fuzzy_map"):
            result = outcome[algorithm]
            rows.append(_eval_row(config, seed, algorithm, result.model, env))
            checkpoints[(seed, algorithm)] = dict(
                model_to_dict(result.model),
                iteration=result.iterations,
                loglik_trace=list(result.loglik_trace),
            )
        if is_mg and mg_table is None:
            mg_table = _mg_table(outcome["fuzzy_map"].model, fuzzy, seed)

    summary = _summarize(config, rows, failures)
    if env is not None:
        summary["expert_model_r2"] = fuzzy_model_r2(fuzzy, env)
        summary["notes"] = (
            "initial state distribution fixed at uniform; expert rules are "
            "hand-specified and validated on rollouts disjoint from training seeds"
        )

    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_runs_csv(out / "runs.csv", rows)
        (out / "summary.json").write_text(
            json.dumps(_sanitize(summary), indent=2) + "\n"
        )
        for (seed, algorithm), payload in checkpoints.items():
            path = out / f"model_{seed}_{algorithm}.json"
            path.write_text(json.dumps(_sanitize(payload), indent=2) + "\n")
        if mg_table is not None:
            (out / "mg_table.txt").write_text(mg_table)

    report = dict(summary)
    report["rows"] = rows
    if mg_table is not None:
        report["mg_table"] = mg_table
    return report


def write_runs_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in CSV_COLUMNS])


def _summarize(config: ExperimentConfig, rows: list[dict], failures: list[dict]) -> dict:
    by_alg: dict[str, list[dict]] = {"em": [], "fuzzy_map": []}
    for row in rows:
        by_alg[row["algorithm"]].append(row)
    per_algorithm = {}
    for alg, alg_rows in by_alg.items():
        per_algorithm[alg] = {
            f"median_{metric}": _median([r[metric] for r in alg_rows])
            for metric in ("l1_avg", "l1_total", "kl_healthy", "kl_sick", "kl_critical")
        }
    win_rates = {}
    rel_improvements = []
    em_by_seed = {r["seed"]: r for r in by_alg["em"]}
    fm_by_seed = {r["seed"]: r for r in by_alg["fuzzy_map"]}
    shared = sorted(set(em_by_seed) & set(fm_by_seed))
    for metric in ("l1_avg", "kl_critical"):
        wins = 0
        counted = 0
        for seed in shared:
            a = em_by_seed[seed][metric]
            b = fm_by_seed[seed][metric]
            if a is None or b is None:
                continue
            counted += 1
            if b < a:
                wins += 1
        win_rates[metric] = wins / counted if counted else None
    for seed in shared:
        a = em_by_seed[seed]["l1_avg"]
        b = fm_by_seed[seed]["l1_avg"]
        if a is not None and b is not None and a > 0 and math.isfinite(a) and math.isfinite(b):
            rel_improvements.append((a - b) / a)
    return {
        "regime": config.regime,
        "config": asdict(config),
        "seeds": list(config.seeds),
        "num_failures": len(failures),
        "failures": failures,
        "per_algorithm": per_algorithm,
        "win_rates": win_rates,
        "median_relative_improvement_l1": _median(rel_improvements),
    }
