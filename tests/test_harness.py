"""Dataset generation, initializers, and the paired experiment runner."""
import csv
import dataclasses
import functools
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzy_pomdp import cli, em, harness
from fuzzy_pomdp.em import EmConfig, run_em
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from fuzzy_pomdp.model import (
    GroundTruthEnv,
    Trajectory,
    json_text,
    load_env,
    make_policy,
    validate_dataset,
    validate_model,
)
from fuzzy_pomdp.fuzzy import infer, load_fuzzy_model
from fuzzy_pomdp.harness import (
    MG_GENERATION_NOISE_SIGMA,
    POLICY,
    ExperimentConfig,
    add_noise,
    asset_path,
    fuzzy_model_r2,
    generate_fuzzy_trajectories,
    kmeans,
    kmeans_init,
    random_init,
    regime_config,
    run_paired_seed,
    run_regime,
    synthetic_dataset,
)
from fuzzy_pomdp.rngs import derive_rng

from conftest import constant_rule, make_fuzzy, random_dataset, random_model
from test_fuzzy_map import assert_same_fit


# ----------------------------------------------------------------- assets

def test_asset_path_resolves_bundled_files():
    for name in ("synthetic_env.json", "expert_fuzzy_synthetic.json",
                 "mg_fuzzy_placeholder.json"):
        p = asset_path(name)
        assert p.is_file()
    assert not asset_path("no_such_asset.json").exists()


# ------------------------------------------------------------------ noise

def test_add_noise_zero_sigma_is_bitwise_identity(rng0):
    m = random_model(rng0)
    ds = random_dataset(rng0, m, n=3, horizon=5)
    out = add_noise(ds, 0.0, np.random.default_rng(1))
    for a, b in zip(ds, out):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)


def test_add_noise_does_not_mutate_input(rng0):
    m = random_model(rng0)
    ds = random_dataset(rng0, m, n=2, horizon=4)
    before = ds[0].observations.copy()
    add_noise(ds, 0.5, np.random.default_rng(2))
    assert np.array_equal(ds[0].observations, before)


def test_add_noise_empirical_variance():
    obs = np.zeros((1000, 100))
    ds = [Trajectory(observations=obs, actions=np.zeros(999, dtype=int))]
    sigma = 0.37
    out = add_noise(ds, sigma, np.random.default_rng(3))
    flat = out[0].observations.ravel()
    assert flat.size == 100_000
    assert abs(flat.var() - sigma ** 2) / sigma ** 2 < 0.02
    assert abs(flat.mean()) < 0.01


def test_add_noise_deterministic_under_seed(rng0):
    m = random_model(rng0)
    ds = random_dataset(rng0, m, n=2, horizon=4)
    o1 = add_noise(ds, 0.2, np.random.default_rng(7))
    o2 = add_noise(ds, 0.2, np.random.default_rng(7))
    for a, b in zip(o1, o2):
        assert np.array_equal(a.observations, b.observations)


# ----------------------------------------------------------------- kmeans

def test_kmeans_recovers_separated_clouds():
    rng = np.random.default_rng(33)
    a = rng.normal(loc=(0.0, 0.0), scale=0.05, size=(60, 2))
    b = rng.normal(loc=(3.0, 3.0), scale=0.05, size=(60, 2))
    pts = np.vstack([a, b])
    centroids, assign = kmeans(pts, 2, np.random.default_rng(0))
    order = np.argsort(centroids[:, 0])
    assert np.allclose(centroids[order][0], a.mean(axis=0), atol=0.05)
    assert np.allclose(centroids[order][1], b.mean(axis=0), atol=0.05)
    # the two halves get distinct labels
    assert len(set(assign[:60])) == 1 and len(set(assign[60:])) == 1
    assert assign[0] != assign[-1]


def test_kmeans_single_cluster_is_global_mean():
    rng = np.random.default_rng(34)
    pts = rng.normal(size=(50, 3))
    centroids, assign = kmeans(pts, 1, np.random.default_rng(0))
    assert np.allclose(centroids[0], pts.mean(axis=0), atol=1e-12)
    assert np.all(assign == 0)


def test_kmeans_matches_exhaustive_partition_on_six_points():
    # six points, k=2: brute-force every labeling and compare objectives
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                    [2.0, 2.0], [2.1, 2.0], [2.0, 2.1]])

    def sse(labels):
        total = 0.0
        for c in (0, 1):
            sub = pts[np.array(labels) == c]
            if len(sub) == 0:
                return math.inf
            total += ((sub - sub.mean(axis=0)) ** 2).sum()
        return total

    best = min(sse([int(x) for x in np.binary_repr(mask, 6)])
               for mask in range(1, 63))
    centroids, assign = kmeans(pts, 2, np.random.default_rng(5))
    got = sum(((pts[i] - centroids[assign[i]]) ** 2).sum() for i in range(6))
    assert abs(got - best) < 1e-9


# ------------------------------------------------------------ initializers

def test_kmeans_init_structure(rng0):
    m = random_model(rng0, obs_dim=2)
    ds = random_dataset(rng0, m, n=4, horizon=6)
    init = kmeans_init(ds, 3, 2, np.random.default_rng(1))
    assert validate_model(init) == []
    assert init.num_states == 3
    assert np.allclose(init.transitions, 1.0 / 3.0)
    assert np.allclose(init.initial_dist, 1.0 / 3.0)
    for s in range(3):
        assert np.array_equal(init.obs_covs[s], np.eye(2))


def test_random_init_structure(rng0):
    m = random_model(rng0, obs_dim=2)
    ds = random_dataset(rng0, m, n=4, horizon=6)
    init = random_init(ds, 3, 2, np.random.default_rng(2))
    assert validate_model(init) == []
    pts = np.vstack([t.observations for t in ds])
    for s in range(3):
        # each mean is one of the data points
        assert np.any(np.all(np.isclose(pts, init.obs_means[s]), axis=1))
    # distinct anchor points
    assert len({tuple(np.round(mu, 9)) for mu in init.obs_means}) == 3
    # transitions are random, not uniform
    assert not np.allclose(init.transitions, 1.0 / 3.0)


def test_random_init_deterministic():
    rng = np.random.default_rng(35)
    m = random_model(rng, obs_dim=2)
    ds = random_dataset(rng, m, n=3, horizon=5)
    i1 = random_init(ds, 2, 2, np.random.default_rng(9))
    i2 = random_init(ds, 2, 2, np.random.default_rng(9))
    assert np.array_equal(i1.obs_means, i2.obs_means)
    assert np.array_equal(i1.transitions, i2.transitions)


def test_random_init_refuses_fewer_observations_than_states():
    rng = np.random.default_rng(36)
    ds = random_dataset(rng, random_model(rng, obs_dim=2), n=1, horizon=2)
    with pytest.raises(ValueError, match=r"^need at least 3 observations, got 2$"):
        random_init(ds, 3, 2, np.random.default_rng(9))


# ------------------------------------------------------- fuzzy simulator

def test_generate_fuzzy_trajectories_shapes():
    fz = load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json"))
    policy = make_policy("uniform", fz.num_actions)
    ds = generate_fuzzy_trajectories(fz, 40, 9, policy, 0.05,
                                     np.random.default_rng(0))
    assert len(ds) == 40
    for t in ds:
        assert t.observations.shape == (9, fz.obs_dim)
        assert t.actions.shape == (8,)
    assert validate_dataset(ds, fz.num_actions, fz.obs_dim) == []


def test_generate_fuzzy_trajectories_bit_identical_under_seed():
    fz = load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json"))
    policy = make_policy("uniform", fz.num_actions)
    d1 = generate_fuzzy_trajectories(fz, 5, 9, policy, 0.05,
                                     np.random.default_rng(123))
    d2 = generate_fuzzy_trajectories(fz, 5, 9, policy, 0.05,
                                     np.random.default_rng(123))
    for a, b in zip(d1, d2):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)


def test_generate_fuzzy_trajectories_noise_free_constant_rule():
    # a single constant rule with zero output noise pins every step after
    # the random start to the rule target
    target = (0.3, 0.8)
    fz = make_fuzzy([constant_rule(target, 2)], obs_dim=2)
    ds = generate_fuzzy_trajectories(fz, 3, 6, make_policy("uniform", 2),
                                     0.0, np.random.default_rng(11))
    for t in ds:
        assert np.allclose(t.observations[1:], target, atol=1e-12)


def test_generate_fuzzy_trajectories_stays_in_variable_ranges():
    # the default variable range is the unit interval; noise is clamped
    fz = load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json"))
    ds = generate_fuzzy_trajectories(fz, 10, 9,
                                     make_policy("uniform", fz.num_actions),
                                     0.8, np.random.default_rng(12))
    allobs = np.vstack([t.observations for t in ds])
    assert allobs.min() >= 0.0 and allobs.max() <= 1.0


def _one_row_at_a_time(fuzzy, n, horizon, policy, sigma, rng):
    """The simulator written out trajectory by trajectory, one infer call
    per step, drawing in the same order as generate_fuzzy_trajectories."""
    lo, hi = fuzzy.variable_ranges.T
    dataset = []
    for _ in range(n):
        obs = np.empty((horizon, fuzzy.obs_dim))
        actions = np.empty(horizon - 1, dtype=int)
        obs[0] = lo + (hi - lo) * rng.random(fuzzy.obs_dim)
        for t in range(horizon - 1):
            actions[t] = int(policy(t, rng))
            pred = infer(fuzzy, obs[t], actions[t])
            if sigma > 0:
                pred = pred + sigma * rng.standard_normal(fuzzy.obs_dim)
            obs[t + 1] = np.clip(pred, lo, hi)
        dataset.append(Trajectory(observations=obs, actions=actions))
    return dataset


@pytest.mark.parametrize("policy_spec", ["uniform", "cycle"])
@pytest.mark.parametrize("sigma", [0.0, MG_GENERATION_NOISE_SIGMA, 0.8])
def test_generate_fuzzy_trajectories_equals_one_row_at_a_time(policy_spec, sigma):
    fz = load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json"))
    policy = make_policy(policy_spec, fz.num_actions)
    for seed in range(5):
        got = generate_fuzzy_trajectories(fz, 12, 9, policy, sigma, derive_rng(seed, "mg-data"))
        want = _one_row_at_a_time(fz, 12, 9, policy, sigma, derive_rng(seed, "mg-data"))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.observations, b.observations)
            assert np.array_equal(a.actions, b.actions)


# -------------------------------------------------------- regime plumbing

def test_regime_config_known_regimes_and_overrides():
    low = regime_config("low_data", seeds=range(3))
    assert (low.num_trajectories, low.horizon) == (3, 5)
    assert (low.lambda_t, low.lambda_o) == (0.1, 0.05)
    high = regime_config("high_noise", seeds=[0])
    assert high.noise_sigma == 0.5
    assert high.num_trajectories == 10
    mg = regime_config("mg_pipeline", seeds=[0])
    assert (mg.num_trajectories, mg.horizon) == (40, 9)
    assert mg.num_states == 2
    assert mg.final_standard_em_iterations == 1
    bumped = regime_config("low_data", seeds=[0], horizon=12, lambda_t=0.5)
    assert bumped.horizon == 12 and bumped.lambda_t == 0.5
    with pytest.raises(ValueError):
        regime_config("made_up_regime", seeds=[0])


def test_synthetic_dataset_deterministic_per_seed():
    env = load_env(asset_path("synthetic_env.json"))
    cfg = regime_config("low_data", seeds=range(1))
    d1 = synthetic_dataset(env, cfg, seed=4)
    d2 = synthetic_dataset(env, cfg, seed=4)
    d3 = synthetic_dataset(env, cfg, seed=5)
    assert len(d1) == cfg.num_trajectories
    for a, b in zip(d1, d2):
        assert np.array_equal(a.observations, b.observations)
    assert not np.array_equal(d1[0].observations, d3[0].observations)


def _fast_low_data(tmp_path, seeds=range(2)):
    return regime_config("low_data", seeds=seeds, out_dir=str(tmp_path), max_iterations=8)


def test_run_paired_seed_trains_both_on_the_same_data(tmp_path):
    env = load_env(asset_path("synthetic_env.json"))
    fz = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    cfg = _fast_low_data(tmp_path)
    out = run_paired_seed(env, fz, cfg, seed=0)
    assert set(out) >= {"em", "fuzzy_map", "dataset"}
    ds = out["dataset"]
    assert validate_dataset(ds, 2, 2) == []
    assert validate_model(out["em"].model) == []
    assert validate_model(out["fuzzy_map"].model) == []
    # the dataset is the deterministic per-seed set shared by both arms
    again = synthetic_dataset(env, cfg, seed=0)
    for a, b in zip(ds, again):
        assert np.array_equal(a.observations, b.observations)


def test_a_seed_prepares_its_data_once_for_all_its_fits(tmp_path, monkeypatch):
    # the 5 plain-EM and 5 fuzzy-MAP fits share one preparation, and each
    # is the fit that the list of trajectories gives, prepared by the fit
    env = load_env(asset_path("synthetic_env.json"))
    fz = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    cfg = _fast_low_data(tmp_path)
    built = []

    class CountingFitData(em._FitData):
        def __new__(cls, dataset, num_actions, obs_dim):
            built.append(len(dataset))
            return super().__new__(cls, dataset, num_actions, obs_dim)

    for module in (em, harness):
        monkeypatch.setattr(module, "_FitData", CountingFitData)
    out = run_paired_seed(env, fz, cfg, seed=3)
    assert built == [cfg.num_trajectories]
    dataset, em_config = out["dataset"], EmConfig(max_iterations=cfg.max_iterations)
    inits = [random_init(dataset, cfg.num_states, env.num_actions, derive_rng(3, "init", r))
             for r in range(harness.RESTARTS)]
    em_fits = [run_em(dataset, init, em_config) for init in inits]
    fm_fits = [run_fuzzy_map_em(dataset, init, fz, em_config,
                                FuzzyMapConfig(lambda_t=cfg.lambda_t, lambda_o=cfg.lambda_o,
                                               seed=3000 + r))
               for r, init in enumerate(inits)]
    for got, fits in ((out["em"], em_fits), (out["fuzzy_map"], fm_fits)):
        assert_same_fit(got, max(fits, key=lambda fit: fit.loglik_trace[-1]))


def test_a_seed_whose_data_is_refused_fails_as_its_first_fit_did(tmp_path, monkeypatch):
    # seed 1's data holds an action the env lacks: the seed's one
    # preparation refuses it with the ValueError that run_em raises on it
    env = load_env(asset_path("synthetic_env.json"))
    cfg = _fast_low_data(tmp_path)
    bad = synthetic_dataset(env, cfg, 1)
    bad[0] = Trajectory(observations=bad[0].observations, actions=np.full(cfg.horizon - 1, 5))
    init = random_init(bad, cfg.num_states, env.num_actions, derive_rng(1, "init", 0))
    with pytest.raises(ValueError) as refused:
        run_em(bad, init, EmConfig())
    assert str(refused.value).startswith("invalid dataset: trajectory 0: action index")
    monkeypatch.setattr(harness, "synthetic_dataset",
                        lambda env, config, seed: bad if seed == 1 else synthetic_dataset(
                            env, config, seed))
    report = run_regime(cfg)
    assert report["failures"] == [{"seed": 1, "error": str(refused.value)}]
    assert [row["seed"] for row in report["rows"]] == [0, 0]


@pytest.mark.parametrize("cells", [None, [(0.1, 0.05), (0.0, 0.0)]], ids=["config", "cells"])
def test_run_paired_seed_raises_the_error_of_data_it_refuses(cells, tmp_path, monkeypatch):
    # the seed's one preparation refuses the data before any fit, with the
    # ValueError run_em raises on it, whether or not cells are given
    env = load_env(asset_path("synthetic_env.json"))
    fz = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    cfg = _fast_low_data(tmp_path)
    bad = synthetic_dataset(env, cfg, 0)
    bad[0] = Trajectory(observations=bad[0].observations, actions=np.full(cfg.horizon - 1, 5))
    init = random_init(bad, cfg.num_states, env.num_actions, derive_rng(0, "init", 0))
    with pytest.raises(ValueError) as refused:
        run_em(bad, init, EmConfig())
    fits = []
    for name in ("run_em", "run_fuzzy_map_em"):
        monkeypatch.setattr(harness, name, lambda *args, name=name: fits.append(name))
    monkeypatch.setattr(harness, "synthetic_dataset", lambda env, config, seed: bad)
    with pytest.raises(ValueError) as raised:
        run_paired_seed(env, fz, cfg, seed=0, cells=cells)
    assert str(raised.value) == str(refused.value)
    assert fits == []


@pytest.mark.parametrize("num_states, tnorm", [(2, "product"), (3, "minimum")])
def test_mg_seed_is_one_restart_from_a_kmeans_init(num_states, tnorm):
    # mg_pipeline fits both algorithms once, from a k-means init with the
    # config's state count, with the fuzzy-MAP seed of restart 0 (which the
    # minimum t-norm's Monte-Carlo matching draws from)
    fz = dataclasses.replace(load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json")),
                             tnorm=tnorm)
    cfg = regime_config("mg_pipeline", seeds=[3], num_trajectories=8,
                        num_states=num_states, max_iterations=12)
    seed = 3
    out = run_paired_seed(None, fz, cfg, seed)
    dataset = generate_fuzzy_trajectories(
        fz, cfg.num_trajectories, cfg.horizon, make_policy(POLICY, fz.num_actions),
        MG_GENERATION_NOISE_SIGMA, derive_rng(seed, "mg-data"))
    for a, b in zip(out["dataset"], dataset, strict=True):
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)
    init = kmeans_init(dataset, num_states, fz.num_actions, derive_rng(seed, "kmeans"))
    em_cfg = EmConfig(max_iterations=cfg.max_iterations)
    map_cfg = FuzzyMapConfig(lambda_t=cfg.lambda_t, lambda_o=cfg.lambda_o, seed=seed * 1000,
                             final_standard_em_iterations=cfg.final_standard_em_iterations)
    em_fit = run_em(dataset, init, em_cfg)
    fm_fit = run_fuzzy_map_em(dataset, init, fz, em_cfg, map_cfg)
    assert out["em"].model.num_states == num_states
    assert_same_fit(out["em"], em_fit)
    assert_same_fit(out["fuzzy_map"], fm_fit)
    assert out["fuzzy_map"].prior_data_ratios == fm_fit.prior_data_ratios
    assert np.array_equal(out["fuzzy_map"].final_matchant, fm_fit.final_matchant)


def test_run_regime_low_data_outputs(tmp_path):
    cfg = _fast_low_data(tmp_path)
    summary = run_regime(cfg)
    assert summary["regime"] == "low_data"
    assert summary["num_failures"] == 0
    assert set(summary["per_algorithm"]) == {"em", "fuzzy_map"}
    for stats in summary["per_algorithm"].values():
        for key in ("median_l1_avg", "median_kl_healthy", "median_kl_sick",
                    "median_kl_critical"):
            assert key in stats
    assert 0.0 <= summary["win_rates"]["l1_avg"] <= 1.0
    assert len(summary["rows"]) == 4  # 2 seeds x 2 algorithms

    csv_path = tmp_path / "runs.csv"
    assert csv_path.is_file()
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["algorithm"] for r in rows} == {"em", "fuzzy_map"}
    assert all(r["regime"] == "low_data" for r in rows)
    for r in rows:
        float(r["l1_avg"])  # numeric cells parse back

    summary_path = tmp_path / "summary.json"
    assert summary_path.is_file()


def test_run_regime_custom_env_labels_name_the_kl_columns(tmp_path, capsys, monkeypatch):
    bundled = load_env(asset_path("synthetic_env.json"))
    relabelled = GroundTruthEnv(transitions=bundled.transitions,
                                beta_params=bundled.beta_params,
                                state_labels=("Low", "Mid", "High"))
    monkeypatch.setattr(harness, "load_env", lambda path: relabelled)
    # a cache of its own, so the relabelled env is loaded here and kept from other tests
    monkeypatch.setattr(harness, "_bundled_inputs",
                        functools.cache(harness._bundled_inputs.__wrapped__))
    summary = run_regime(_fast_low_data(tmp_path / "out", seeds=[0]))
    want = ("kl_low", "kl_mid", "kl_high")
    with open(tmp_path / "out" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0])[-3:] == want
    assert "kl_critical" not in rows[0]
    for row in rows:
        for col in want:
            float(row[col])  # a value, not the empty cell of a dropped column
    for stats in summary["per_algorithm"].values():
        assert all(stats[f"median_{col}"] is not None for col in want)
    assert summary["win_rates"]["kl_high"] is not None
    cli._print_regime_table(summary)
    assert "median KL High" in capsys.readouterr().out


def test_run_regime_loads_and_scores_the_bundled_inputs_once(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    for fn in (harness.load_env, harness.load_fuzzy_model, harness.fuzzy_model_r2):
        monkeypatch.setattr(harness, fn.__name__, counted(fn))
    monkeypatch.setattr(harness, "_bundled_inputs",
                        functools.cache(harness._bundled_inputs.__wrapped__))
    first = run_regime(_fast_low_data(tmp_path / "a", seeds=[0]))
    second = run_regime(_fast_low_data(tmp_path / "b", seeds=[1]))
    assert calls == ["load_env", "load_fuzzy_model", "fuzzy_model_r2"]
    env = load_env(asset_path("synthetic_env.json"))
    fuzzy = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    assert first["expert_model_r2"] == second["expert_model_r2"] == fuzzy_model_r2(fuzzy, env)


def test_run_regime_mg_pipeline_smoke(tmp_path):
    cfg = regime_config("mg_pipeline", seeds=range(1), out_dir=str(tmp_path),
                        max_iterations=15)
    summary = run_regime(cfg)
    assert summary["num_failures"] == 0
    assert "mg_table" in summary
    table = summary["mg_table"]
    assert "from \\ to" in table
    # two latent states in the learned transition table
    m = summary["rows"][0]
    assert m["algorithm"] in {"em", "fuzzy_map"}


def regrouped_summary(config, rows, failures, kl_cols):
    """Reference: the summary regrouped from the flat rows, by algorithm for
    the medians and by seed for the paired figures."""
    by_alg = {"em": [], "fuzzy_map": []}
    for row in rows:
        by_alg[row["algorithm"]].append(row)
    per_algorithm = {
        alg: {f"median_{metric}": harness._median([r[metric] for r in alg_rows])
              for metric in ("l1_avg", "l1_total") + kl_cols}
        for alg, alg_rows in by_alg.items()
    }
    em_by_seed = {r["seed"]: r for r in by_alg["em"]}
    fm_by_seed = {r["seed"]: r for r in by_alg["fuzzy_map"]}
    assert len(em_by_seed) == len(by_alg["em"]), "a seed has two rows"
    shared = sorted(set(em_by_seed) & set(fm_by_seed))
    win_rates = {}
    for metric in ("l1_avg", kl_cols[-1]):
        wins = counted = 0
        for seed in shared:
            a, b = em_by_seed[seed][metric], fm_by_seed[seed][metric]
            if a is None or b is None:
                continue
            counted += 1
            wins += b < a
        win_rates[metric] = wins / counted if counted else None
    rel_improvements = []
    for seed in shared:
        a, b = em_by_seed[seed]["l1_avg"], fm_by_seed[seed]["l1_avg"]
        if a is not None and b is not None and a > 0 and math.isfinite(a) and math.isfinite(b):
            rel_improvements.append((a - b) / a)
    return {
        "regime": config.regime,
        "config": dataclasses.asdict(config),
        "seeds": list(config.seeds),
        "num_failures": len(failures),
        "failures": failures,
        "per_algorithm": per_algorithm,
        "win_rates": win_rates,
        "median_relative_improvement_l1": harness._median(rel_improvements),
    }


# L1 cells: empty, zero, non-finite or ordinary; KL cells: empty, the inf
# sentinel or ordinary
L1_CELLS = st.one_of(st.none(), st.sampled_from([0.0, math.inf, math.nan]),
                     st.floats(0.0, 4.0))
KL_CELLS = st.one_of(st.none(), st.just(math.inf), st.floats(0.0, 10.0))


@st.composite
def seed_sweeps(draw):
    """A config, its (em, fuzzy_map) row pairs and its failures: distinct
    seeds, some of them failed."""
    kl_cols = harness.kl_columns(draw(st.lists(st.sampled_from(["A", "B", "C", "D"]),
                                               min_size=1, max_size=3, unique=True)))
    seeds = draw(st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True))
    config = regime_config("low_data", seeds)
    pairs, failures = [], []
    for seed in seeds:
        if draw(st.booleans()) and draw(st.booleans()):
            failures.append({"seed": seed, "error": "boom"})
            continue
        pairs.append(tuple(
            harness._eval_row(config, seed, alg, None, None, kl_cols)
            | {"l1_avg": draw(L1_CELLS), "l1_total": draw(L1_CELLS)}
            | {col: draw(KL_CELLS) for col in kl_cols}
            for alg in harness.ALGORITHMS))
    return config, pairs, failures, kl_cols


@given(seed_sweeps())
def test_summarize_over_pairs_equals_the_regrouped_rows(sweep):
    config, pairs, failures, kl_cols = sweep
    rows = [row for pair in pairs for row in pair]
    # compared as summary.json's text, where every NaN reads "nan"
    assert json_text(harness._summarize(config, pairs, failures, kl_cols)) == json_text(
        regrouped_summary(config, rows, failures, kl_cols))


def test_a_seed_listed_twice_is_refused():
    # fitting it twice would write its rows twice and count it twice in the
    # per-algorithm medians
    with pytest.raises(ValueError, match=r"^seed 0 is listed more than once$"):
        regime_config("low_data", [0, 0, 1])
    assert regime_config("low_data", [2, 0, 1]).seeds == (2, 0, 1)


@pytest.mark.parametrize("field, value", [
    ("lambda_t", -1.0), ("lambda_o", math.nan), ("lambda_t", math.inf),
    ("noise_sigma", math.nan), ("num_trajectories", 0), ("horizon", 0),
    ("num_states", 0), ("max_iterations", 0), ("final_standard_em_iterations", -1),
    # low_data's 3 trajectories of 5 steps hold 15 observations
    ("num_states", 16),
])
def test_a_value_that_would_fail_every_seed_is_refused(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        regime_config("low_data", seeds=range(2), **{field: value})


# ----------------------------------------------------------------- sweeps

CELLS = ((0.1, 0.05), (0.5, 0.5), (0.0, 0.0))


def _sweep_configs(tmp_path, seeds=(0, 1), cells=CELLS):
    return [regime_config("low_data", seeds=seeds, out_dir=str(tmp_path / f"cell{i}"),
                          max_iterations=8, lambda_t=lam_t, lambda_o=lam_o)
            for i, (lam_t, lam_o) in enumerate(cells)]


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_run_sweep_refuses_configs_that_differ_beyond_the_cell(tmp_path):
    first, second = _sweep_configs(tmp_path, cells=CELLS[:2])
    for name, value in (("seeds", (0, 2)), ("max_iterations", 9), ("horizon", 4)):
        with pytest.raises(ValueError, match=rf"^sweep configs differ in {name}$"):
            harness.run_sweep([first, dataclasses.replace(second, **{name: value})])
    with pytest.raises(ValueError, match="non-empty"):
        harness.run_sweep([])


@pytest.mark.parametrize("regime, seeds, em_calls", [
    ("low_data", (0, 1), 2 * harness.RESTARTS),
    ("mg_pipeline", (0, 1), 2),
])
def test_a_sweep_fits_plain_em_once_per_seed_and_restart(regime, seeds, em_calls, monkeypatch):
    calls = {"run_em": 0, "run_fuzzy_map_em": 0}
    paired_seeds = []

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    def paired(*args, **kwargs):
        # perfbench's tracer reads the seed as the 4th positional argument
        paired_seeds.append(args[3])
        return run_paired_seed(*args, **kwargs)

    for name in calls:
        monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
    monkeypatch.setattr(harness, "run_paired_seed", paired)
    configs = [regime_config(regime, seeds=seeds, max_iterations=6, num_trajectories=6,
                             lambda_t=lam_t, lambda_o=lam_o) for lam_t, lam_o in CELLS]
    harness.run_sweep(configs)
    # the zero cell takes plain EM's fits, except under mg's polish
    fm_cells = len(CELLS) - (configs[0].final_standard_em_iterations == 0)
    assert calls == {"run_em": em_calls, "run_fuzzy_map_em": fm_cells * em_calls}
    assert paired_seeds == list(seeds)


def test_run_regime_fits_each_restart_as_a_pair_in_order(monkeypatch, tmp_path):
    order = []
    for name, tag in (("run_em", "em"), ("run_fuzzy_map_em", "fm")):
        fn = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, fn=fn, tag=tag: order.append(tag) or fn(*args))
    run_regime(_sweep_configs(tmp_path, seeds=[0])[0])
    assert order == ["em", "fm"] * harness.RESTARTS


def _raising(fn, fails):
    """fn, but a call for which fails(*args) gives a label raises RuntimeError(label)."""
    def wrapper(*args):
        label = fails(*args)
        if label:
            raise RuntimeError(label)
        return fn(*args)
    return wrapper


def _expected_after_failures(clean, failed):
    """The clean reports with each cell's failed seeds dropped and recorded:
    failed[i] maps seed -> error text."""
    want = []
    for report, dropped in zip(clean, failed):
        rows = [row for row in report["rows"] if row["seed"] not in dropped]
        want.append((rows, [{"seed": seed, "error": text} for seed, text in dropped.items()]))
    return want


def test_a_fuzzy_map_error_fails_only_its_own_cell(tmp_path, monkeypatch):
    clean = harness.run_sweep(_sweep_configs(tmp_path / "clean"))
    fm_calls = []

    def fails(dataset, init, fuzzy, em_config, map_config):
        fm_calls.append((map_config.seed, map_config.lambda_t))
        # seed 1, restart 2, in the second cell
        if map_config.seed == 1002 and map_config.lambda_t == 0.5:
            return "fuzzy-MAP broke"
        return None

    monkeypatch.setattr(harness, "run_fuzzy_map_em",
                        _raising(harness.run_fuzzy_map_em, fails))
    got = harness.run_sweep(_sweep_configs(tmp_path / "failed"))
    want = _expected_after_failures(clean, [{}, {1: "fuzzy-MAP broke"}, {}])
    assert [(report["rows"], report["failures"]) for report in got] == want
    # the failed cell fits that seed no further, as one run_regime would
    assert [seed for seed, lam in fm_calls if lam == 0.5 and seed >= 1000] == [
        1000, 1001, 1002]
    # the zero cell takes plain EM's fits
    assert len(fm_calls) == 2 * (len(CELLS) - 1) * harness.RESTARTS - 2
    single = run_regime(_sweep_configs(tmp_path / "single")[1])
    assert (single["rows"], single["failures"]) == want[1]


def test_a_plain_em_error_fails_the_seed_in_every_cell(tmp_path, monkeypatch):
    clean = harness.run_sweep(_sweep_configs(tmp_path / "clean"))
    em_calls = []

    def em_fails(dataset, init, em_config):
        em_calls.append(None)
        # seed 0 fits its 5 restarts first; the 7th call is seed 1, restart 1
        return "plain EM broke" if len(em_calls) == 7 else None

    def fm_fails(dataset, init, fuzzy, em_config, map_config):
        # seed 1, restart 0, in the second cell: that cell's first error
        return "fuzzy-MAP broke" if map_config.seed == 1000 and map_config.lambda_t == 0.5 \
            else None

    monkeypatch.setattr(harness, "run_em", _raising(harness.run_em, em_fails))
    monkeypatch.setattr(harness, "run_fuzzy_map_em",
                        _raising(harness.run_fuzzy_map_em, fm_fails))
    got = harness.run_sweep(_sweep_configs(tmp_path / "failed"))
    want = _expected_after_failures(
        clean, [{1: "plain EM broke"}, {1: "fuzzy-MAP broke"}, {1: "plain EM broke"}])
    assert [(report["rows"], report["failures"]) for report in got] == want
    assert len(em_calls) == harness.RESTARTS + 2


@pytest.mark.parametrize("argv", [
    ["--regime", "high-noise", "--seeds", "2", "--grid", "0,0.1", "--cross"],
    ["--regime", "mg", "--seeds", "2", "--grid", "0,0.5"],
])
def test_each_sweep_cell_writes_what_run_regime_writes(argv, tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", *argv, "--out-dir", str(out)]) == 0
    swept = _files(out)
    cells = sorted({path.parts[0] for path in swept if len(path.parts) > 1})
    assert len(cells) == (4 if "--cross" in argv else 2)
    regime = cli.REGIME_NAMES[argv[1]]
    for cell in cells:
        lam_t, lam_o = (float(v) for v in cell.removeprefix("lt").split("_lo"))
        shutil.rmtree(out / cell)
        run_regime(regime_config(regime, seeds=range(2), out_dir=str(out / cell),
                                 lambda_t=lam_t, lambda_o=lam_o))
    assert _files(out) == swept


def test_fuzzy_model_r2_bundled_expert_is_informative():
    env = load_env(asset_path("synthetic_env.json"))
    fz = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    r2 = fuzzy_model_r2(fz, env)
    assert math.isfinite(r2)
    assert 0.0 < r2 < 1.0


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(3, "data", 0).normal(size=4)
    b = derive_rng(3, "data", 0).normal(size=4)
    c = derive_rng(3, "data", 1).normal(size=4)
    d = derive_rng(4, "data", 0).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
