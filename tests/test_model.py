"""Core model types: densities, sampling, validation, serialization."""
import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from fuzzy_pomdp.model import (
    CovarianceError,
    GroundTruthEnv,
    PomdpModel,
    Trajectory,
    _emission_factor,
    cholesky_factor,
    dataset_from_list,
    dataset_to_list,
    env_from_dict,
    env_to_dict,
    gaussian_log_density,
    load_dataset,
    load_env,
    load_model,
    make_policy,
    model_from_dict,
    model_to_dict,
    regularize_cov,
    sample_trajectory,
    save_dataset,
    save_env,
    validate_dataset,
    validate_env,
    validate_model,
    write_json,
)
from fuzzy_pomdp.harness import asset_path

from conftest import random_dataset, random_model, relabel_states


# ---------------------------------------------------------------- densities

def test_gaussian_log_density_standard_normal_at_origin():
    val = gaussian_log_density(np.zeros(1), np.zeros(1), np.eye(1))
    assert abs(val - (-0.5 * math.log(2 * math.pi))) < 1e-12


def test_gaussian_log_density_2d_at_mean():
    val = gaussian_log_density(np.zeros(2), np.zeros(2), np.eye(2))
    assert abs(val - (-math.log(2 * math.pi))) < 1e-12


def test_gaussian_log_density_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        mean = rng.normal(size=d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.05 * np.eye(d)
        x = rng.normal(size=d)
        ours = gaussian_log_density(x, mean, cov)
        ref = stats.multivariate_normal.logpdf(x, mean=mean, cov=cov)
        assert abs(ours - ref) < 1e-9


def test_gaussian_log_density_diagonal_factorizes():
    # with a diagonal covariance the joint log density is the sum of 1-d terms
    rng = np.random.default_rng(12)
    mean = rng.normal(size=3)
    sig = rng.uniform(0.2, 2.0, size=3)
    x = rng.normal(size=3)
    joint = gaussian_log_density(x, mean, np.diag(sig ** 2))
    split = sum(stats.norm.logpdf(x[i], mean[i], sig[i]) for i in range(3))
    assert abs(joint - split) < 1e-10


def test_gaussian_log_density_rejects_non_spd():
    with pytest.raises(CovarianceError):
        gaussian_log_density(np.zeros(2), np.zeros(2),
                             np.array([[1.0, 2.0], [2.0, 1.0]]))


# ----------------------------------------------------------------- sampling

def _load_bundled_env() -> GroundTruthEnv:
    return load_env(asset_path("synthetic_env.json"))


def test_sample_trajectory_shapes_and_action_range():
    env = _load_bundled_env()
    policy = make_policy("uniform", 2)
    traj = sample_trajectory(env, policy, 7, np.random.default_rng(3))
    assert traj.observations.shape == (7, 2)
    assert traj.actions.shape == (6,)
    assert set(np.unique(traj.actions)).issubset({0, 1})


def test_sample_trajectory_absorbing_state_stays_put():
    trans = np.zeros((2, 1, 2))
    trans[:, 0, 1] = 1.0  # everything funnels into state 1, which absorbs
    beta = np.array([[[2.0, 2.0]], [[5.0, 1.0]]])
    env = GroundTruthEnv(transitions=trans, beta_params=beta,
                         state_labels=("a", "b"))
    traj, states = sample_trajectory(env, make_policy("fixed:0", 1), 50,
                                     np.random.default_rng(5),
                                     initial_dist=np.array([0.0, 1.0]),
                                     return_states=True)
    assert np.all(states == 1)
    assert traj.observations.shape == (50, 1)


def _env_with_row(row) -> GroundTruthEnv:
    """A two-state, one-action env whose second transition row is row."""
    trans = np.full((2, 1, 2), 0.5)
    trans[1, 0] = row
    return GroundTruthEnv(transitions=trans, beta_params=np.full((2, 1, 2), 2.0))


# probability vectors that rng.choice rejects
BAD_ROWS = {"nan": [np.nan, 1.0], "negative": [-0.25, 1.25],
            "sum above": [0.5, 0.5 + 1e-6], "sum below": [0.5, 0.5 - 1e-6]}


@pytest.mark.parametrize("row", BAD_ROWS.values(), ids=BAD_ROWS)
def test_sample_trajectory_rejects_what_choice_rejects(row):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=row)
    policy = make_policy("fixed:0", 1)
    with pytest.raises(ValueError, match=r"transitions\[s=1, a=0\]"):
        sample_trajectory(_env_with_row(row), policy, 3, np.random.default_rng(0))
    good = _env_with_row([0.25, 0.75])
    with pytest.raises(ValueError):
        sample_trajectory(good, policy, 3, np.random.default_rng(0), initial_dist=row)


@pytest.mark.parametrize("initial_dist", [[1.0], [0.25, 0.25, 0.5], [[0.5, 0.5]]],
                         ids=["short", "long", "2-D"])
def test_sample_trajectory_rejects_an_initial_dist_of_the_wrong_shape(initial_dist):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=initial_dist)
    with pytest.raises(ValueError):
        sample_trajectory(_env_with_row([0.25, 0.75]), make_policy("fixed:0", 1), 3,
                          np.random.default_rng(0), initial_dist=initial_dist)


def test_sample_trajectory_accepts_the_sums_choice_accepts():
    # choice allows a sum up to sqrt(eps) ~ 1.5e-8 away from 1 and renormalizes
    row = [0.5, 0.5 + 1e-9]
    np.random.default_rng(0).choice(2, p=row)
    traj = sample_trajectory(_env_with_row(row), make_policy("fixed:0", 1), 5,
                             np.random.default_rng(0), initial_dist=row)
    assert len(traj) == 5


def test_sample_trajectory_empirical_transition_frequencies():
    # long single run started in the last state under a fixed action:
    # empirical next-state frequencies track that transition row
    env = _load_bundled_env()
    start = np.zeros(3)
    start[2] = 1.0
    _, states = sample_trajectory(env, make_policy("fixed:0", 2), 10_000,
                                  np.random.default_rng(9),
                                  initial_dist=start, return_states=True)
    mask = states[:-1] == 2
    assert mask.sum() > 2_000
    nxt = states[1:][mask]
    freq = np.array([(nxt == s).mean() for s in range(3)])
    assert np.all(np.abs(freq - env.transitions[2, 0]) < 0.02)


def test_sample_trajectory_uniform_beta_observations_are_uniform():
    # a Beta(1,1) emitter should produce U(0,1) samples; KS sanity check
    trans = np.ones((1, 1, 1))
    beta = np.ones((1, 2, 2))
    env = GroundTruthEnv(transitions=trans, beta_params=beta,
                         state_labels=("only",))
    traj = sample_trajectory(env, make_policy("fixed:0", 1), 5_000,
                             np.random.default_rng(17))
    flat = traj.observations.ravel()
    assert flat.min() >= 0.0 and flat.max() <= 1.0
    assert stats.kstest(flat, "uniform").pvalue > 0.01


def test_sample_trajectory_deterministic_given_seed():
    env = _load_bundled_env()
    policy = make_policy("uniform", 2)
    t1 = sample_trajectory(env, policy, 20, np.random.default_rng(42))
    t2 = sample_trajectory(env, policy, 20, np.random.default_rng(42))
    assert np.array_equal(t1.observations, t2.observations)
    assert np.array_equal(t1.actions, t2.actions)


def test_make_policy_variants():
    rng = np.random.default_rng(0)
    assert make_policy("fixed:1", 3)(0, rng) == 1
    cyc = make_policy("cycle", 3)
    assert [cyc(t, rng) for t in range(5)] == [0, 1, 2, 0, 1]
    uni = make_policy("uniform", 3)
    draws = {uni(t, rng) for t in range(100)}
    assert draws == {0, 1, 2}
    with pytest.raises(ValueError, match=r"^fixed action 7 out of range \[0, 3\)$"):
        make_policy("fixed:7", 3)
    with pytest.raises(ValueError, match="^unknown policy spec 'nonsense'$"):
        make_policy("nonsense", 2)
    with pytest.raises(ValueError, match="^unknown policy spec 'fixed:abc'$"):
        make_policy("fixed:abc", 2)


# --------------------------------------------------------------- validation

def test_validate_model_accepts_valid(rng0):
    assert validate_model(random_model(rng0)) == []


def test_validate_model_flags_bad_row():
    m = random_model(np.random.default_rng(1))
    trans = m.transitions.copy()
    trans[1, 0] = np.array([0.6, 0.5])  # sums to 1.1
    bad = PomdpModel(m.num_states, m.num_actions, m.obs_dim, trans,
                     m.obs_means, m.obs_covs, m.initial_dist)
    msgs = validate_model(bad)
    assert msgs, "row-sum violation should be reported"
    joined = " ".join(msgs)
    assert "1" in joined and "0" in joined  # names the offending (state, action)


def test_validate_model_flags_indefinite_covariance():
    m = random_model(np.random.default_rng(2))
    covs = m.obs_covs.copy()
    covs[0] = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    bad = PomdpModel(m.num_states, m.num_actions, m.obs_dim, m.transitions,
                     m.obs_means, covs, m.initial_dist)
    msgs = validate_model(bad)
    assert any("0" in msg for msg in msgs)


def test_validate_model_flags_negative_entries():
    m = random_model(np.random.default_rng(3))
    trans = m.transitions.copy()
    trans[0, 0] = np.array([1.2, -0.2])
    bad = PomdpModel(m.num_states, m.num_actions, m.obs_dim, trans,
                     m.obs_means, m.obs_covs, m.initial_dist)
    assert validate_model(bad)


def test_validate_env_and_dataset():
    env = _load_bundled_env()
    assert validate_env(env) == []
    ds = [Trajectory(observations=np.zeros((4, 2)),
                     actions=np.array([0, 1, 0]))]
    assert validate_dataset(ds, num_actions=2, obs_dim=2) == []
    broken = [Trajectory(observations=np.zeros((4, 2)),
                         actions=np.array([0, 5, 0]))]
    assert validate_dataset(broken, num_actions=2, obs_dim=2)
    with pytest.raises(ValueError):
        Trajectory(observations=np.zeros((4, 2)), actions=np.array([0, 1]))


@pytest.mark.parametrize("bad, named", [
    (1.9, "1.9"), (-0.5, "-0.5"), (0.5, "0.5"), (math.nan, "nan"), (math.inf, "inf"),
    (1e30, r"1e\+30"),
])
def test_trajectory_rejects_actions_that_are_not_integers(tmp_path, bad, named):
    # a cast to int would truncate them to another action without a word
    with pytest.raises(ValueError, match=rf"^actions must be integers, got {named}$"):
        Trajectory(observations=np.zeros((4, 2)), actions=[0, bad, 1])
    p = tmp_path / "ds.json"
    p.write_text(json.dumps([{"observations": [[0.0, 0.0]] * 2, "actions": [bad]}]))
    with pytest.raises(ValueError, match=rf"got {named}$"):
        load_dataset(p)


@pytest.mark.parametrize("actions, named", [
    (["1"], "'1'"), ([b"1"], "b'1'"), ([True], "True"), ([0, "1"], "'0'"),
    ([1, None], "None"), (np.array([], dtype=bool), r"dtype\('bool'\)"),
    # numpy reads these as the numbers [0, 1] and [1.0, 1.0]
    ([0, True], "True"), ([1.0, True], "True"), ([0, np.True_], "True"),
])
def test_trajectory_rejects_actions_that_are_not_numbers(actions, named):
    # a cast to int would parse "1" and take True as action 1
    with pytest.raises(ValueError, match=rf"^actions must be integers, got {named}$"):
        Trajectory(observations=np.zeros((len(actions) + 1, 2)), actions=actions)


@pytest.mark.parametrize("action, named", [("1", "'1'"), (True, "True")])
def test_a_dataset_file_with_string_or_boolean_actions_does_not_load(tmp_path, action, named):
    p = tmp_path / "ds.json"
    p.write_text(json.dumps([{"observations": [[0.0, 0.0]] * 3, "actions": [action, action]}]))
    with pytest.raises(ValueError, match=rf"^actions must be integers, got {named}$"):
        load_dataset(p)


def test_trajectory_accepts_integral_float_actions():
    traj = Trajectory(observations=np.zeros((4, 2)), actions=[1.0, 0.0, -0.0])
    assert traj.actions.dtype.kind == "i"
    assert traj.actions.tolist() == [1, 0, 0]
    assert Trajectory(observations=np.zeros((1, 2)), actions=[]).actions.shape == (0,)


def test_validate_model_reports_every_non_finite_entry():
    m = random_model(np.random.default_rng(4))
    trans, means, covs = m.transitions.copy(), m.obs_means.copy(), m.obs_covs.copy()
    trans[1, 0, 1] = np.nan
    means[0, 1] = np.inf
    covs[1, 0, 0] = -np.inf
    init = np.array([np.nan, 0.5])
    msgs = validate_model(PomdpModel(m.num_states, m.num_actions, m.obs_dim,
                                     trans, means, covs, init))
    for want in ("transitions[s=1, a=0, s2=1] is not finite (nan)",
                 "obs_means[s=0, dim=1] is not finite (inf)",
                 "obs_covs[s=1, i=0, j=0] is not finite (-inf)",
                 "initial_dist[s=0] is not finite (nan)"):
        assert want in msgs
    assert sum("not finite" in msg for msg in msgs) == 4


def test_validate_env_reports_every_non_finite_entry():
    env = _load_bundled_env()
    trans, betas = env.transitions.copy(), env.beta_params.copy()
    trans[2, 1, 0] = np.nan
    betas[0, 1, 0] = np.nan
    betas[1, 0, 1] = np.inf
    msgs = validate_env(GroundTruthEnv(transitions=trans, beta_params=betas))
    assert [msg for msg in msgs if "not finite" in msg] == [
        "transitions[s=2, a=1, s2=0] is not finite (nan)",
        "beta_params[s=0, dim=1, k=0] is not finite (nan)",
        "beta_params[s=1, dim=0, k=1] is not finite (inf)",
    ]
    with pytest.raises(ValueError, match="not finite"):
        env_from_dict(json.loads(json.dumps(env_to_dict(
            GroundTruthEnv(transitions=trans, beta_params=env.beta_params)))))


def test_validate_dataset_reports_every_non_finite_observation():
    obs = np.zeros((4, 2))
    obs[1, 0] = np.nan
    obs[3, 1] = -np.inf
    ds = [Trajectory(observations=np.zeros((2, 2)), actions=[0]),
          Trajectory(observations=obs, actions=[0, 1, 0])]
    assert validate_dataset(ds, num_actions=2, obs_dim=2) == [
        "trajectory 1: observations[t=1, dim=0] is not finite (nan)",
        "trajectory 1: observations[t=3, dim=1] is not finite (-inf)",
    ]


def test_regularize_cov_symmetrizes_and_lifts():
    raw = np.array([[1.0, 0.3001], [0.2999, 1.0]])
    reg = regularize_cov(raw, ridge=1e-6)
    assert np.array_equal(reg, reg.T)
    assert np.all(np.linalg.eigvalsh(reg) > 0)
    # a healthy covariance passes through exactly (no ridge creep)
    assert np.allclose(reg, 0.5 * (raw + raw.T), atol=0)
    # a singular one gets lifted to strictly positive definite
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    lifted = regularize_cov(singular, ridge=1e-6)
    assert np.linalg.eigvalsh(lifted).min() > 0
    assert abs(lifted[0, 0] - (1.0 + 1e-6)) < 1e-15


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_covariance_is_rejected(bad):
    cov = np.array([[bad, 0.0], [0.0, 1.0]])
    # a NaN factors without a LAPACK error and an eigenvalue solver may
    # return finite values for it, so both gates test finiteness first
    for call in (cholesky_factor, regularize_cov):
        with pytest.raises(CovarianceError, match=r"^covariance is not finite"):
            call(cov)
    stack = np.stack([np.eye(2), cov, -np.eye(2)])
    with pytest.raises(CovarianceError, match=r"^state 1: covariance is not finite"):
        cholesky_factor(stack)


@pytest.mark.parametrize("cov", [
    np.ones((2, 3)), np.full((2, 3), np.nan), np.ones(3), np.ones(()), np.ones((2, 2, 3)),
    np.tile(np.eye(2), (2, 2, 1, 1)), -np.tile(np.eye(2), (2, 2, 1, 1)),
], ids=["(2, 3)", "(2, 3) not finite", "1-D", "0-d", "(S, d, d+1)",
        "rank 4 positive definite", "rank 4 not positive definite"])
def test_a_covariance_of_another_shape_is_named_by_its_shape(cov):
    # checked on first use only, whether the input factors or not; the
    # M-step factors through _fitted_covariances, so a fit pays nothing for it
    want = (rf"^covariance has shape {re.escape(str(cov.shape))}, "
            r"expected \(d, d\) or \(S, d, d\)$")
    for call in (lambda: cholesky_factor(cov), lambda: _emission_factor(cov),
                 lambda: gaussian_log_density(np.zeros(2), np.zeros(2), cov)):
        with pytest.raises(CovarianceError, match=want):
            call()


def test_nan_covariance_model_from_a_file_fails_on_its_emission_factor(rng0):
    data = model_to_dict(random_model(rng0, num_states=3))
    data["obs_covs"][2][1][1] = "nan"  # as write_json stores a NaN
    model = model_from_dict(data)
    for _ in range(2):  # a failed factor is not kept
        with pytest.raises(CovarianceError, match=r"^state 2: covariance is not finite"):
            model.emission_factor


# ------------------------------------------------------------ serialization

def test_model_round_trip(tmp_path, rng0):
    m = random_model(rng0, num_states=3, obs_dim=2)
    p = tmp_path / "m.json"
    write_json(model_to_dict(m), p)
    back = load_model(p)
    assert back.num_states == m.num_states
    assert np.allclose(back.transitions, m.transitions)
    assert np.allclose(back.obs_means, m.obs_means)
    assert np.allclose(back.obs_covs, m.obs_covs)
    assert np.allclose(back.initial_dist, m.initial_dist)
    # dict round trip too
    again = model_from_dict(model_to_dict(m))
    assert np.allclose(again.transitions, m.transitions)


def test_env_round_trip(tmp_path):
    env = _load_bundled_env()
    p = tmp_path / "env.json"
    save_env(env, p)
    back = load_env(p)
    assert np.allclose(back.transitions, env.transitions)
    assert back.state_labels == env.state_labels
    assert np.allclose(env_from_dict(json.loads(p.read_text())).beta_params,
                       env.beta_params)


def test_dataset_round_trip(tmp_path, rng0):
    m = random_model(rng0)
    ds = random_dataset(rng0, m, n=4, horizon=6)
    p = tmp_path / "ds.json"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert len(back) == 4
    for a, b in zip(ds, back):
        assert np.allclose(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)
    assert dataset_from_list(dataset_to_list(ds))[0].observations.shape == (6, 2)


def test_relabel_states_permutes_everything(rng0):
    # new_index[old] names the slot each state moves to
    m = random_model(rng0, num_states=3)
    perm = [2, 0, 1]
    r = relabel_states(m, perm)
    assert validate_model(r) == []
    for old_s, new_s in enumerate(perm):
        assert np.allclose(r.obs_means[new_s], m.obs_means[old_s])
        assert np.allclose(r.obs_covs[new_s], m.obs_covs[old_s])
        for a in range(m.num_actions):
            for old_t, new_t in enumerate(perm):
                assert np.isclose(r.transitions[new_s, a, new_t],
                                  m.transitions[old_s, a, old_t])
