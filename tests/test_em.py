"""Forward-backward, sufficient statistics, M-step, and the full EM loop.

The forward-backward checks compare against a brute-force oracle that sums
over every latent state sequence explicitly, so any indexing or scaling slip
in the recursions shows up as a hard numeric mismatch.
"""
import itertools
import logging
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from fuzzy_pomdp import em
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.model import CovarianceError, PomdpModel, Trajectory
from fuzzy_pomdp.em import (
    EmConfig,
    ForwardBackwardError,
    Posteriors,
    SufficientCounts,
    accumulate_counts,
    e_step,
    forward_backward,
    m_step_standard,
    run_em,
)
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em

from conftest import random_dataset, random_fuzzy, random_model, relabel_states


def enumeration_posteriors(model: PomdpModel, traj: Trajectory):
    """Exact smoothing by summing over all |S|^T latent sequences."""
    T = len(traj.observations)
    S = model.num_states
    logb = np.empty((T, S))
    for t in range(T):
        for s in range(S):
            logb[t, s] = stats.multivariate_normal.logpdf(
                traj.observations[t], model.obs_means[s], model.obs_covs[s])
    log_init = np.log(model.initial_dist)
    log_trans = np.log(model.transitions)

    seqs = list(itertools.product(range(S), repeat=T))
    logp = np.empty(len(seqs))
    for i, seq in enumerate(seqs):
        lp = log_init[seq[0]] + logb[0, seq[0]]
        for t in range(1, T):
            lp += log_trans[seq[t - 1], traj.actions[t - 1], seq[t]]
            lp += logb[t, seq[t]]
        logp[i] = lp
    total = logsumexp(logp)

    gamma = np.zeros((T, S))
    xi = np.zeros((max(T - 1, 0), S, S))
    for i, seq in enumerate(seqs):
        w = math.exp(logp[i] - total)
        for t in range(T):
            gamma[t, seq[t]] += w
        for t in range(T - 1):
            xi[t, seq[t], seq[t + 1]] += w
    return gamma, xi, total


# --------------------------------------------------------- forward-backward

def test_forward_backward_matches_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(25):
        S = int(rng.integers(1, 4))
        T = int(rng.integers(1, 6))
        m = random_model(rng, num_states=S, num_actions=2, obs_dim=2)
        obs = rng.normal(size=(T, 2))
        acts = rng.integers(2, size=max(T - 1, 0))
        traj = Trajectory(observations=obs, actions=acts)
        post = forward_backward(m, traj)
        g, x, ll = enumeration_posteriors(m, traj)
        assert abs(post.log_likelihood - ll) < 1e-10
        assert np.allclose(post.gamma, g, atol=1e-10)
        if T > 1:
            assert np.allclose(post.xi, x, atol=1e-10)


def test_forward_backward_single_step():
    rng = np.random.default_rng(102)
    m = random_model(rng, num_states=3)
    traj = Trajectory(observations=rng.normal(size=(1, 2)),
                      actions=np.zeros(0, dtype=int))
    post = forward_backward(m, traj)
    assert post.gamma.shape == (1, 3)
    assert post.xi.shape == (0, 3, 3)
    # with one observation the posterior is just the normalized joint
    logj = np.array([math.log(m.initial_dist[s])
                     + stats.multivariate_normal.logpdf(
                         traj.observations[0], m.obs_means[s], m.obs_covs[s])
                     for s in range(3)])
    expect = np.exp(logj - logsumexp(logj))
    assert np.allclose(post.gamma[0], expect, atol=1e-12)
    assert abs(post.log_likelihood - logsumexp(logj)) < 1e-12


def test_forward_backward_survives_far_outliers():
    # scaling has to keep distant observations finite where a naive
    # unnormalized recursion underflows
    rng = np.random.default_rng(103)
    m = random_model(rng, num_states=2)
    obs = rng.normal(size=(60, 2)) + 40.0
    traj = Trajectory(observations=obs, actions=rng.integers(2, size=59))
    post = forward_backward(m, traj)
    assert np.isfinite(post.log_likelihood)
    assert np.allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9)


def test_e_step_sums_per_trajectory_likelihoods():
    rng = np.random.default_rng(104)
    m = random_model(rng)
    ds = random_dataset(rng, m, n=3, horizon=5)
    posts, total = e_step(m, ds)
    assert len(posts) == 3
    assert abs(total - sum(p.log_likelihood for p in posts)) < 1e-9


def _pinned_model():
    # the chain is pinned to state 0, whose density at 100 underflows to
    # zero next to state 1's
    return PomdpModel(
        num_states=2, num_actions=1, obs_dim=1,
        transitions=np.eye(2)[:, None, :],
        obs_means=np.array([[0.0], [100.0]]),
        obs_covs=np.ones((2, 1, 1)),
        initial_dist=np.array([1.0, 0.0]),
    )


def _pinned_traj(obs):
    return Trajectory(observations=np.array(obs, dtype=float)[:, None],
                      actions=np.zeros(len(obs) - 1, dtype=int))


def test_zero_likelihood_names_the_step_and_the_dataset_index():
    m = _pinned_model()
    good, longer, bad = _pinned_traj([0, 0]), _pinned_traj([0, 0, 0]), _pinned_traj([0, 100])
    with pytest.raises(ForwardBackwardError,
                       match=r"^trajectory 2: zero or NaN total observation likelihood "
                             r"at step 1$"):
        e_step(m, [good, longer, bad])
    with pytest.raises(ForwardBackwardError,
                       match=r"^iteration 0: trajectory 2: .* step 1$") as info:
        run_em([good, longer, bad], m)
    assert info.value.trajectory == 2


def test_zero_likelihood_in_a_later_length_group_names_the_dataset_index():
    # the failing trajectory is the second of the second length group, and
    # the one before it in that group fails later, at step 2
    m = _pinned_model()
    dataset = [_pinned_traj([0, 0]), _pinned_traj([0, 0, 100]), _pinned_traj([0, 100, 0]),
               _pinned_traj([0, 0])]
    for smooth in (e_step, forward_backward):
        with pytest.raises(ForwardBackwardError,
                           match=r"^trajectory 2: zero or NaN total observation likelihood "
                                 r"at step 1$") as info:
            smooth(m, dataset)
        assert info.value.trajectory == 2


def test_nan_likelihood_names_the_dataset_index():
    # NaN scales compare False against zero; they must fail all the same
    m = _pinned_model()
    good, bad = _pinned_traj([0, 0, 0]), _pinned_traj([0, np.nan, 0])
    with pytest.raises(ForwardBackwardError,
                       match=r"^trajectory 1: zero or NaN total observation likelihood "
                             r"at step 1$") as info:
        e_step(m, [good, bad])
    assert info.value.trajectory == 1
    with pytest.raises(ForwardBackwardError, match=r"^iteration 0: trajectory 1: "):
        run_em([good, bad], m, EmConfig(max_iterations=50))


def _unscorable(kind: str) -> tuple[list, str]:
    """A dataset a 2-action, 2-dim model cannot score, and the message that
    names its bad trajectory."""
    obs = np.random.default_rng(110).random((5, 2))
    good = Trajectory(obs, [0, 1, 1, 0])
    cases = {
        "negative action": ([good, Trajectory(obs, [-1, 0, 1, -2])],
                            "trajectory 1: action index out of range [0, 2)"),
        "action past the last": ([Trajectory(obs, [5, 0, 1, 0]), good],
                                 "trajectory 0: action index out of range [0, 2)"),
        "1-D observations": ([Trajectory(obs[:, :1], [0, 0, 1, 0])],
                             "trajectory 0: obs_dim 1, expected 2"),
        "mixed obs_dims": ([good, Trajectory(obs[:, :1], [0, 0, 1, 0]), good],
                           "trajectory 1: obs_dim 1, expected 2"),
    }
    return cases[kind]


# accumulate_counts checks the data against the model its posteriors came
# from, so 1-D trajectories pooled with a 2-D model's posteriors raise too
@pytest.mark.parametrize("call, kind", [
    (call, kind)
    for call in ("run_em", "run_fuzzy_map_em", "e_step", "forward_backward", "accumulate_counts")
    for kind in ("negative action", "action past the last", "1-D observations", "mixed obs_dims")
])
def test_every_entry_point_rejects_a_trajectory_the_model_cannot_score(kind, call):
    # unchecked, a negative action indexes the last action's transitions and
    # 1-D observations broadcast against 2-D means; the rest fail deep inside
    # numpy
    m = random_model(np.random.default_rng(111))
    dataset, named = _unscorable(kind)
    posteriors = e_step(m, random_dataset(np.random.default_rng(112), m, n=len(dataset),
                                          horizon=5))[0]
    calls = {
        "run_em": lambda: run_em(dataset, m, EmConfig(max_iterations=3)),
        "run_fuzzy_map_em": lambda: run_fuzzy_map_em(
            dataset, m, random_fuzzy(np.random.default_rng(113)), EmConfig(max_iterations=3),
            FuzzyMapConfig(lambda_t=0.1, lambda_o=0.1)),
        "e_step": lambda: e_step(m, dataset),
        "forward_backward": lambda: forward_backward(m, [t for t in dataset if len(t) == 5]),
        "accumulate_counts": lambda: accumulate_counts(dataset, posteriors, m),
    }
    with pytest.raises(ValueError, match=rf"^invalid dataset: {re.escape(named)}$"):
        calls[call]()


def test_a_fit_checks_its_dataset_once(monkeypatch):
    rng = np.random.default_rng(114)
    m = random_model(rng)
    ds = random_dataset(rng, m, n=3, horizon=4) + random_dataset(rng, m, n=2, horizon=6)
    checked = []
    check = em._scoring_problems
    monkeypatch.setattr(em, "_scoring_problems",
                        lambda *args: checked.append(args) or check(*args))
    assert run_em(ds, m, EmConfig(max_iterations=5)).iterations > 1
    fit = run_fuzzy_map_em(ds, m, random_fuzzy(rng, obs_dim=m.obs_dim), EmConfig(max_iterations=3),
                           FuzzyMapConfig(lambda_t=0.1, lambda_o=0.1,
                                          final_standard_em_iterations=3))
    assert fit.iterations > 3
    # each trajectory once per fit, against the init's action count and obs_dim
    assert checked == [(traj, m.num_actions, m.obs_dim) for traj in ds] * 2


def test_nan_mean_names_the_first_trajectory():
    m = _pinned_model()
    nan_mean = PomdpModel(
        num_states=2, num_actions=1, obs_dim=1, transitions=m.transitions,
        obs_means=np.array([[np.nan], [100.0]]), obs_covs=m.obs_covs,
        initial_dist=m.initial_dist,
    )
    with pytest.raises(ForwardBackwardError,
                       match=r"^trajectory 0: zero or NaN total observation likelihood "
                             r"at step 0$") as info:
        e_step(nan_mean, [_pinned_traj([0, 0, 0]), _pinned_traj([0, 0, 0])])
    assert info.value.trajectory == 0


def test_run_em_prepares_its_dataset_once(monkeypatch):
    # one preparation per fit, its two length groups included; a fuzzy-MAP
    # fit's polish reuses the main loop's
    rng = np.random.default_rng(106)
    m = random_model(rng)
    ds = random_dataset(rng, m, n=3, horizon=4) + random_dataset(rng, m, n=2, horizon=6)
    ds = [ds[0], ds[3], ds[1], ds[4], ds[2]]
    built = []

    class CountingFitData(em._FitData):
        def __new__(cls, dataset, num_actions, obs_dim):
            built.append(len(dataset))
            return super().__new__(cls, dataset, num_actions, obs_dim)

    monkeypatch.setattr(em, "_FitData", CountingFitData)
    res = run_em(ds, m, EmConfig(max_iterations=5))
    assert res.iterations >= 2
    assert built == [5]
    built.clear()
    fit = run_fuzzy_map_em(ds, m, random_fuzzy(rng, obs_dim=m.obs_dim),
                           EmConfig(max_iterations=3),
                           FuzzyMapConfig(lambda_t=0.1, lambda_o=0.1,
                                          final_standard_em_iterations=3))
    assert fit.iterations > 3
    assert built == [5]


# ------------------------------------------------------ count accumulation

def one_posteriors(gamma, xi) -> Posteriors:
    """Hand-written posteriors of one trajectory."""
    return Posteriors(gamma=gamma, xi=xi, log_likelihoods=np.zeros(1),
                      starts=np.array([0, len(gamma)]))


def test_fit_data_one_hot_is_built_once_per_action_count():
    # the one action count of the model the data is prepared for
    rng = np.random.default_rng(107)
    m = random_model(rng)
    data = em._FitData(random_dataset(rng, m, n=3, horizon=4)
                       + random_dataset(rng, m, n=2, horizon=2), m.num_actions, m.obs_dim)
    table = data.one_hot
    assert np.array_equal(table, np.eye(m.num_actions)[data.actions])
    assert table is data.one_hot
    assert not table.flags.writeable


def test_accumulate_counts_one_hot_posteriors():
    # degenerate (0/1) posteriors turn expected counts into literal tallies
    obs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    acts = np.array([1, 0])
    ds = [Trajectory(observations=obs, actions=acts)]
    gamma = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    xi = np.zeros((2, 2, 2))
    xi[0, 0, 1] = 1.0  # t=0: state 0 -> 1 under action 1
    xi[1, 1, 1] = 1.0  # t=1: state 1 -> 1 under action 0
    c = accumulate_counts(ds, one_posteriors(gamma, xi),
                          random_model(np.random.default_rng(0), num_states=2, num_actions=2))
    expect_trans = np.zeros((2, 2, 2))
    expect_trans[0, 1, 1] = 1.0
    expect_trans[1, 0, 1] = 1.0
    assert np.array_equal(c.trans, expect_trans)
    assert np.allclose(c.obs_weight, [1.0, 2.0])
    assert np.allclose(c.obs_sum[0], [0.0, 0.0])
    assert np.allclose(c.obs_sum[1], [3.0, 3.0])
    assert np.allclose(c.obs_outer[1],
                       np.outer([1.0, 1.0], [1.0, 1.0])
                       + np.outer([2.0, 2.0], [2.0, 2.0]))


def test_accumulate_counts_hand_spreadsheet():
    obs = np.array([[1.0], [3.0]])
    ds = [Trajectory(observations=obs, actions=np.array([0]))]
    gamma = np.array([[0.6, 0.4], [0.2, 0.8]])
    xi = np.array([[[0.1, 0.5], [0.1, 0.3]]])
    c = accumulate_counts(ds, one_posteriors(gamma, xi), random_model(
        np.random.default_rng(0), num_states=2, num_actions=1, obs_dim=1))
    assert np.allclose(c.trans[:, 0, :], xi[0])
    assert np.allclose(c.obs_weight, [0.8, 1.2])
    assert np.allclose(c.obs_sum[:, 0], [0.6 * 1 + 0.2 * 3, 0.4 * 1 + 0.8 * 3])
    assert np.allclose(c.obs_outer[:, 0, 0],
                       [0.6 * 1 + 0.2 * 9, 0.4 * 1 + 0.8 * 9])


def test_accumulate_counts_mass_conservation():
    rng = np.random.default_rng(105)
    m = random_model(rng, num_states=3)
    ds = random_dataset(rng, m, n=4, horizon=6)
    posts, _ = e_step(m, ds)
    c = accumulate_counts(ds, posts, m)
    steps = sum(len(t.observations) for t in ds)
    trans_steps = sum(len(t.actions) for t in ds)
    assert abs(c.obs_weight.sum() - steps) < 1e-9
    assert abs(c.trans.sum() - trans_steps) < 1e-9
    assert np.all(c.trans >= 0) and np.all(c.obs_weight >= 0)


# ------------------------------------------------------------------ M-step

def _prev_model():
    return PomdpModel(
        num_states=2, num_actions=1, obs_dim=2,
        transitions=np.full((2, 1, 2), 0.5),
        obs_means=np.array([[5.0, 5.0], [-5.0, -5.0]]),
        obs_covs=np.stack([np.eye(2) * 3.0, np.eye(2) * 3.0]),
        initial_dist=np.array([0.5, 0.5]),
    )


def test_m_step_transition_row_normalization():
    prev = PomdpModel(
        num_states=3, num_actions=1, obs_dim=1,
        transitions=np.full((3, 1, 3), 1.0 / 3.0),
        obs_means=np.zeros((3, 1)),
        obs_covs=np.stack([np.eye(1)] * 3),
        initial_dist=np.full(3, 1.0 / 3.0),
    )
    trans = np.zeros((3, 1, 3))
    trans[0, 0] = [3.0, 1.0, 0.0]
    counts = SufficientCounts(trans=trans,
                              obs_weight=np.zeros(3),
                              obs_sum=np.zeros((3, 1)),
                              obs_outer=np.zeros((3, 1, 1)))
    out = m_step_standard(counts, prev, EmConfig())
    assert np.allclose(out.transitions[0, 0], [0.75, 0.25, 0.0])
    # zero-mass rows fall back to uniform
    assert np.allclose(out.transitions[1, 0], 1.0 / 3.0)
    assert np.allclose(out.transitions[2, 0], 1.0 / 3.0)
    # zero-mass states keep their previous observation parameters
    assert np.allclose(out.obs_means, prev.obs_means)


def test_m_step_observation_mean():
    counts = SufficientCounts(
        trans=np.ones((2, 1, 2)),
        obs_weight=np.array([2.0, 1.0]),
        obs_sum=np.array([[2.0, 4.0], [0.0, 0.0]]),
        obs_outer=np.stack([np.eye(2) * 10.0, np.eye(2)]),
    )
    out = m_step_standard(counts, _prev_model(), EmConfig())
    assert np.allclose(out.obs_means[0], [1.0, 2.0])


def test_m_step_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(106)
    pts = rng.normal(size=(40, 2))
    w = rng.uniform(0.1, 1.0, size=40)
    weight = w.sum()
    mu = (w[:, None] * pts).sum(axis=0) / weight
    centered = pts - mu
    two_pass = (w[:, None, None] * np.einsum("ni,nj->nij", centered, centered)
                ).sum(axis=0) / weight

    counts = SufficientCounts(
        trans=np.ones((2, 1, 2)),
        obs_weight=np.array([weight, 1.0]),
        obs_sum=np.stack([(w[:, None] * pts).sum(axis=0), np.zeros(2)]),
        obs_outer=np.stack(
            [(w[:, None, None] * np.einsum("ni,nj->nij", pts, pts)).sum(axis=0),
             np.eye(2)]),
    )
    cfg = EmConfig()
    out = m_step_standard(counts, _prev_model(), cfg)
    # well-conditioned: the update is the exact two-pass estimate
    assert np.allclose(out.obs_covs[0], two_pass, atol=1e-12)
    assert np.array_equal(out.obs_covs[0], out.obs_covs[0].T)


def test_m_step_standard_rejects_an_indefinite_covariance():
    # weight 2, sum 4, second moment 0.5: variance 0.25 - 4 = -3.75, which
    # no ridge lift repairs; state 1 has no mass and keeps its parameters
    counts = SufficientCounts(
        trans=np.ones((2, 1, 2)),
        obs_weight=np.array([0.0, 2.0]),
        obs_sum=np.array([[0.0], [4.0]]),
        obs_outer=np.array([[[0.0]], [[0.5]]]),
    )
    prev = PomdpModel(
        num_states=2, num_actions=1, obs_dim=1,
        transitions=np.full((2, 1, 2), 0.5),
        obs_means=np.zeros((2, 1)), obs_covs=np.ones((2, 1, 1)),
    )
    with pytest.raises(CovarianceError, match=r"^state 1: covariance is not positive "
                                              r"semidefinite \(min eigenvalue -3\.750e\+00\)$"):
        m_step_standard(counts, prev, EmConfig())


# ----------------------------------------------------------------- run_em

def test_run_em_loglik_monotone():
    rng = np.random.default_rng(107)
    for trial in range(5):
        truth = random_model(rng, num_states=2, obs_dim=2, mean_scale=2.0)
        ds = random_dataset(rng, truth, n=4, horizon=8)
        init = random_model(rng, num_states=2, obs_dim=2)
        res = run_em(ds, init, EmConfig(max_iterations=30))
        trace = np.asarray(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8), f"trial {trial}: {trace}"


def test_run_em_converged_flag_and_iterations():
    rng = np.random.default_rng(108)
    truth = random_model(rng, num_states=2)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = random_model(rng, num_states=2)
    res = run_em(ds, init, EmConfig(max_iterations=200, loglik_tolerance=1e-4))
    assert res.converged
    # trace carries the pre-update likelihood plus one entry per iteration
    assert len(res.loglik_trace) == res.iterations + 1
    assert res.iterations < 200
    capped = run_em(ds, init, EmConfig(max_iterations=2))
    assert capped.iterations == 2 and not capped.converged


def test_run_em_leaves_the_prior_fields_empty():
    rng = np.random.default_rng(108)
    truth = random_model(rng, num_states=2)
    res = run_em(random_dataset(rng, truth, n=3, horizon=6), random_model(rng, num_states=2),
                 EmConfig(max_iterations=3))
    assert isinstance(res, em.EmResult)
    assert res.prior_data_ratios == []
    assert res.final_matchant is None


def test_run_em_rejects_an_empty_dataset():
    # the shared loop fits the prior alone on no data; plain EM has nothing to fit
    with pytest.raises(ValueError, match="^dataset must be non-empty$"):
        run_em([], random_model(np.random.default_rng(109), num_states=2))


def test_run_em_deterministic():
    rng = np.random.default_rng(109)
    truth = random_model(rng)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = random_model(rng)
    r1 = run_em(ds, init, EmConfig(max_iterations=10))
    r2 = run_em(ds, init, EmConfig(max_iterations=10))
    assert np.array_equal(r1.model.transitions, r2.model.transitions)
    assert np.array_equal(r1.model.obs_means, r2.model.obs_means)
    assert r1.loglik_trace == r2.loglik_trace


def test_run_em_equivariant_under_state_relabeling():
    # permuting the init permutes the result; the likelihood path is identical
    rng = np.random.default_rng(110)
    truth = random_model(rng, num_states=3)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = random_model(rng, num_states=3)
    perm = [2, 0, 1]
    res = run_em(ds, init, EmConfig(max_iterations=8))
    res_p = run_em(ds, relabel_states(init, perm), EmConfig(max_iterations=8))
    assert np.allclose(res_p.loglik_trace, res.loglik_trace, atol=1e-8)
    assert np.allclose(res_p.model.obs_means,
                       relabel_states(res.model, perm).obs_means, atol=1e-8)
    assert np.allclose(res_p.model.transitions,
                       relabel_states(res.model, perm).transitions, atol=1e-8)


def test_run_em_single_state_degenerates_to_gaussian_fit():
    rng = np.random.default_rng(111)
    obs = rng.normal(loc=1.5, scale=0.7, size=(30, 2))
    ds = [Trajectory(observations=obs, actions=rng.integers(1, size=29))]
    init = PomdpModel(
        num_states=1, num_actions=1, obs_dim=2,
        transitions=np.ones((1, 1, 1)),
        obs_means=np.zeros((1, 2)),
        obs_covs=np.eye(2)[None],
        initial_dist=np.ones(1),
    )
    res = run_em(ds, init, EmConfig(max_iterations=5))
    posts, _ = e_step(res.model, ds)
    assert np.allclose(posts[0].gamma, 1.0)
    assert np.allclose(res.model.obs_means[0], obs.mean(axis=0), atol=1e-9)
    emp_cov = np.cov(obs.T, bias=True)
    assert np.allclose(res.model.obs_covs[0], emp_cov, atol=1e-9)


# ------------------------------------------- fitted models and fallbacks

def _frozen_state_case():
    """A 3-state init whose last state sits far from every observation and
    that no state moves to, on a 2-dim dataset, with the bundled expert
    rules: the far state's responsibilities and its pseudo-count weight are
    exactly 0, so every M-step of either fitter finds it without transition
    or observation mass and keeps its parameters."""
    rng = np.random.default_rng(123)
    init = random_model(rng, num_states=3, num_actions=2, obs_dim=2)
    means, transitions = init.obs_means.copy(), init.transitions.copy()
    means[-1] = 100.0
    transitions[:-1, :, -1] = 0.0
    transitions /= transitions.sum(axis=2, keepdims=True)
    init = PomdpModel(3, 2, 2, transitions=transitions, obs_means=means,
                      obs_covs=init.obs_covs, initial_dist=init.initial_dist)
    rules = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    return init, random_dataset(rng, init, n=4, horizon=6), rules


def _fits(init, dataset, rules):
    config = EmConfig(max_iterations=6)
    return {
        "em": lambda: run_em(dataset, init, config),
        "fuzzy_map": lambda: run_fuzzy_map_em(dataset, init, rules, config,
                                              FuzzyMapConfig(lambda_t=0.1, lambda_o=0.05)),
    }


@pytest.mark.parametrize("kind", ["em", "fuzzy_map"])
def test_the_m_step_fallbacks_fire_without_a_warning(kind, caplog):
    init, dataset, rules = _frozen_state_case()
    with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="fuzzy_pomdp.em"):
        # a 0/0 of a state without mass would warn, and so raise, here
        warnings.simplefilter("error")
        fit = _fits(init, dataset, rules)[kind]()
    assert all(map(math.isfinite, fit.loglik_trace))
    messages = [record.getMessage() for record in caplog.records]
    assert "no transition mass for state 2 action 0; using uniform" in messages
    assert "no observation mass for state 2; keeping previous parameters" in messages
    assert np.array_equal(fit.model.obs_means[2], init.obs_means[2])
    assert np.array_equal(fit.model.obs_covs[2], init.obs_covs[2])
    assert np.array_equal(fit.model.transitions[2], np.full((2, 3), 1.0 / 3.0))


@pytest.mark.parametrize("kind", ["em", "fuzzy_map"])
@pytest.mark.parametrize("frozen", [False, True], ids=["", "frozen_state"])
def test_a_fitted_model_holds_read_only_arrays(kind, frozen):
    init, dataset, rules = _frozen_state_case()
    if not frozen:
        init = random_model(np.random.default_rng(5), num_states=3, num_actions=2, obs_dim=2)
    model = _fits(init, dataset, rules)[kind]().model
    for name in ("transitions", "obs_means", "obs_covs", "initial_dist"):
        array = getattr(model, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_an_m_step_model_shares_no_memory_with_the_counts():
    rng = np.random.default_rng(7)
    prev = random_model(rng, num_states=3, num_actions=2, obs_dim=2)
    dataset = random_dataset(rng, prev)
    counts = accumulate_counts(dataset, e_step(prev, dataset)[0], prev)
    model = m_step_standard(counts, prev, EmConfig())
    arrays = [getattr(model, name) for name in ("transitions", "obs_means", "obs_covs")]
    before = [array.copy() for array in arrays]
    for count in (counts.trans, counts.obs_weight, counts.obs_sum, counts.obs_outer):
        assert not any(np.shares_memory(array, count) for array in arrays)
        count[...] = np.nan
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert not any(array.flags.writeable for array in arrays)


def test_a_model_built_from_writable_arrays_copies_them():
    rng = np.random.default_rng(8)
    source = random_model(rng, num_states=2, num_actions=2, obs_dim=2)
    arrays = {name: getattr(source, name).copy()
              for name in ("transitions", "obs_means", "obs_covs", "initial_dist")}
    model = PomdpModel(2, 2, 2, **arrays)
    for name, array in arrays.items():
        assert array.flags.writeable
        assert not np.shares_memory(getattr(model, name), array)
        array[...] = np.nan
        assert np.array_equal(getattr(model, name), getattr(source, name)), name
        assert not getattr(model, name).flags.writeable
