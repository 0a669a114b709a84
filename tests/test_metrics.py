"""State matching, transition distances, and observation-model KL."""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import beta as beta_dist

from fuzzy_pomdp import metrics
from fuzzy_pomdp.model import (DEFAULT_COV_RIDGE, GroundTruthEnv, PomdpModel,
                               gaussian_log_density, load_env)
from fuzzy_pomdp.metrics import (
    beta_product_log_density,
    evaluate_model,
    kl_observation,
    l1_transition_distance,
    l1_transition_total,
    quadrature_grid,
)
from fuzzy_pomdp.harness import asset_path

from conftest import relabel_states
from test_estep_properties import _floats


def beta_moments(alpha: float, beta: float) -> tuple[float, float]:
    mean = alpha / (alpha + beta)
    var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
    return mean, var


def moment_matched_model(env: GroundTruthEnv,
                         perm=None) -> PomdpModel:
    """Gaussian model matching each env state's Beta moments exactly.

    perm (optional) relabels states: learned slot i carries truth state
    perm[i]'s parameters.
    """
    S, D = env.beta_params.shape[:2]
    A = env.transitions.shape[1]
    perm = list(perm) if perm is not None else list(range(S))
    means = np.zeros((S, D))
    covs = np.zeros((S, D, D))
    trans = np.zeros((S, A, S))
    for i, src in enumerate(perm):
        for d in range(D):
            a, b = env.beta_params[src, d]
            mu, var = beta_moments(a, b)
            means[i, d] = mu
            covs[i, d, d] = var
        for a in range(A):
            for j, dst in enumerate(perm):
                trans[i, a, j] = env.transitions[src, a, dst]
    return PomdpModel(S, A, D, trans, means, covs,
                      initial_dist=np.full(S, 1.0 / S))


def bundled_env() -> GroundTruthEnv:
    return load_env(asset_path("synthetic_env.json"))


# ------------------------------------------------------------ state match

def test_match_states_identity_for_aligned_model():
    env = bundled_env()
    learned = moment_matched_model(env)
    assert evaluate_model(learned, env).state_matching == (0, 1, 2)


def test_match_states_recovers_shuffles():
    env = bundled_env()
    for perm in itertools.permutations(range(3)):
        learned = moment_matched_model(env, perm)
        assert evaluate_model(learned, env).state_matching == perm


def test_match_states_is_argmin_over_permutations():
    # perturbed model: the returned assignment must beat or tie every other
    # permutation on total observation KL
    env = bundled_env()
    rng = np.random.default_rng(23)
    for _ in range(5):
        learned = moment_matched_model(env, perm=rng.permutation(3))
        noisy = PomdpModel(
            3, 2, 2, learned.transitions,
            learned.obs_means + rng.normal(scale=0.08, size=(3, 2)),
            learned.obs_covs * rng.uniform(0.8, 1.5),
            initial_dist=learned.initial_dist)

        def total_kl(assign):
            return sum(
                kl_observation(env.beta_params[assign[i]],
                               noisy.obs_means[i], noisy.obs_covs[i])
                for i in range(3))

        best = evaluate_model(noisy, env).state_matching
        best_val = total_kl(best)
        for perm in itertools.permutations(range(3)):
            assert best_val <= total_kl(perm) + 1e-9


TIED = np.ones((3, 3))
TIED[[1, 0, 2, 2, 1, 0], [0, 1, 2, 0, 1, 2]] = 0.0  # (1, 0, 2) and (2, 1, 0) total 0


@pytest.mark.parametrize("cost, best", [
    (TIED, (1, 0, 2)),
    (np.full((3, 3), np.inf), (0, 1, 2)),
    (np.where(np.eye(3) > 0, np.inf, TIED), (1, 2, 0)),
])
def test_match_states_takes_the_first_least_cost_permutation(monkeypatch, cost, best):
    # every total inf leaves the identity, the first permutation
    env = bundled_env()
    monkeypatch.setattr(metrics, "_kl_costs", lambda *args: cost)
    assert evaluate_model(moment_matched_model(env), env).state_matching == best


# ------------------------------------------------------------ L1 distance

def test_l1_zero_for_identical_tensors():
    env = bundled_env()
    assert l1_transition_distance(env.transitions, env.transitions) == 0.0
    assert l1_transition_total(env.transitions, env.transitions) == 0.0


def test_l1_single_row_change():
    # move one row's probability mass entirely: that row contributes L1 = 2,
    # averaged over the 6 (state, action) rows
    env = bundled_env()
    est = env.transitions.copy()
    est[0, 0] = np.roll(est[0, 0], 1)
    row_l1 = np.abs(est[0, 0] - env.transitions[0, 0]).sum()
    assert abs(l1_transition_total(est, env.transitions) - row_l1) < 1e-12
    assert abs(l1_transition_distance(est, env.transitions)
               - row_l1 / 6.0) < 1e-12


def test_l1_matches_flat_loop_oracle():
    rng = np.random.default_rng(24)
    env = bundled_env()
    est = rng.dirichlet(np.ones(3), size=(3, 2))
    total = 0.0
    for s in range(3):
        for a in range(2):
            for t in range(3):
                total += abs(est[s, a, t] - env.transitions[s, a, t])
    assert abs(l1_transition_total(est, env.transitions) - total) < 1e-12
    assert abs(l1_transition_distance(est, env.transitions)
               - total / 6.0) < 1e-12


# -------------------------------------------------------------------- KL

def kl_quadrature(logp, logq, weights) -> float:
    """The package's quadrature estimate of E_p[log p - log q] from log
    densities on a quadrature_grid's points and the grid's weights."""
    return metrics._kl_estimate(logp, weights * np.exp(logp), logq, logq < metrics.LOG_TINY)


def test_kl_quadrature_matches_gaussian_closed_form():
    # both densities concentrated inside the unit box, so truncation is
    # far below the comparison tolerance
    mu0 = np.array([0.45, 0.55])
    var0 = np.array([0.0036, 0.0049])
    mu1 = np.array([0.5, 0.5])
    var1 = np.array([0.005, 0.006])

    def logp(pts):
        return sum(-0.5 * ((pts[:, d] - mu0[d]) ** 2 / var0[d]
                           + math.log(2 * math.pi * var0[d]))
                   for d in range(2))

    def logq(pts):
        return sum(-0.5 * ((pts[:, d] - mu1[d]) ** 2 / var1[d]
                           + math.log(2 * math.pi * var1[d]))
                   for d in range(2))

    closed = sum(0.5 * (var0[d] / var1[d]
                        + (mu1[d] - mu0[d]) ** 2 / var1[d]
                        - 1.0 + math.log(var1[d] / var0[d]))
                 for d in range(2))
    points, weights = quadrature_grid(2)
    got = kl_quadrature(logp(points), logq(points), weights)
    assert abs(got - closed) < 1e-6


def test_kl_quadrature_self_is_zero():
    beta = np.array([[5.0, 5.0], [2.0, 8.0]])

    points, weights = quadrature_grid(2)
    logp = beta_product_log_density(points, beta)
    assert abs(kl_quadrature(logp, logp, weights)) < 1e-8


def test_kl_observation_moment_matched_is_small_positive():
    # a Gaussian sharing Beta(5,5) moments is close but not identical, so
    # the divergence is small yet strictly positive
    a, b = 5.0, 5.0
    mu, var = beta_moments(a, b)
    beta = np.array([[a, b], [a, b]])
    kl = kl_observation(beta, np.full(2, mu), np.eye(2) * var)
    assert 0.0 < kl < 0.1


def test_kl_observation_far_model_hits_infinity_sentinel():
    beta = np.array([[5.0, 5.0], [5.0, 5.0]])
    kl = kl_observation(beta, np.full(2, 50.0), np.eye(2) * 1e-4)
    assert math.isinf(kl) and kl > 0


def test_kl_observation_nonnegative_on_random_pairs():
    rng = np.random.default_rng(25)
    for _ in range(20):
        beta = rng.uniform(1.0, 9.0, size=(2, 2))
        mean = rng.uniform(0.2, 0.8, size=2)
        var = rng.uniform(0.005, 0.05, size=2)
        kl = kl_observation(beta, mean, np.diag(var))
        assert kl > -1e-9


def test_beta_product_log_density_values():
    # Beta(1,1) is uniform: log density zero everywhere inside the box
    pts = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert np.allclose(beta_product_log_density(pts, np.ones((2, 2))), 0.0)
    # Beta(2,1) has density 2x
    one = np.array([[0.25, 0.5]])
    got = beta_product_log_density(one, np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert abs(got[0] - math.log(2 * 0.25)) < 1e-12


@st.composite
def beta_params_and_points(draw):
    """(d, 2) Beta parameters from (0.05, 50), sometimes one of them <= 0,
    and points: the quadrature grid plus rows that put 0, 1, 1e-300, NaN
    or a value outside [0, 1] in one dimension at a time, and in all."""
    d = draw(st.integers(1, 2))
    params = draw(arrays(float, (d, 2), elements=_floats(0.05, 50.0)))
    if draw(st.booleans()):
        j, k = draw(st.integers(0, d - 1)), draw(st.integers(0, 1))
        params[j, k] = draw(_floats(-5.0, 0.0))
    outside = draw(st.lists(_floats(-10.0, 10.0).filter(lambda v: not 0.0 <= v <= 1.0),
                            min_size=1, max_size=4))
    specials = [0.0, 1.0, 1e-300, float("nan"), *outside]
    rows = [np.full(d, s) for s in specials]
    for s in specials:
        for j in range(d):
            row = np.full(d, 0.5)
            row[j] = s
            rows.append(row)
    points = np.vstack([quadrature_grid(d)[0], *rows])
    return params, points


@given(beta_params_and_points())
def test_beta_product_log_density_is_scipy_stats_bit_for_bit(case):
    params, points = case
    want = np.zeros(points.shape[0])
    with np.errstate(all="ignore"):
        for j in range(points.shape[1]):
            want += beta_dist.logpdf(points[:, j], params[j, 0], params[j, 1])
        got = beta_product_log_density(points, params)
    assert np.array_equal(got, want, equal_nan=True)


# ------------------------------------------------------------- full report

def test_evaluate_model_aligned_report():
    env = bundled_env()
    report = evaluate_model(moment_matched_model(env), env)
    assert report.state_matching == (0, 1, 2)
    assert report.l1_transition < 1e-12
    assert report.l1_transition_total < 1e-12
    assert len(report.kl_per_state) == 3
    # skewed Beta states keep a visible gap to any Gaussian; symmetric ones
    # sit much closer
    for kl in report.kl_per_state.values():
        assert 0.0 <= kl < 0.5


def test_evaluate_model_invariant_to_learned_relabeling():
    env = bundled_env()
    rng = np.random.default_rng(27)
    learned = moment_matched_model(env)
    noisy = PomdpModel(
        3, 2, 2,
        learned.transitions,
        learned.obs_means + rng.normal(scale=0.05, size=(3, 2)),
        learned.obs_covs * 1.3,
        initial_dist=learned.initial_dist)
    base = evaluate_model(noisy, env)
    shuffled = evaluate_model(relabel_states(noisy, [2, 0, 1]), env)
    assert abs(base.l1_transition - shuffled.l1_transition) < 1e-9
    for k in base.kl_per_state:
        assert abs(base.kl_per_state[k] - shuffled.kl_per_state[k]) < 1e-9


@pytest.mark.parametrize("shape, message", [
    ((2, 2, 2), "state count mismatch: learned 2, truth 3"),
    ((3, 3, 2), "action count mismatch: learned 3, truth 2"),
    ((3, 2, 3), "obs_dim mismatch: learned 3, truth 2"),
], ids=("states", "actions", "obs_dim"))
def test_evaluate_model_refuses_a_model_of_another_shape(shape, message):
    S, A, d = shape
    learned = PomdpModel(S, A, d, np.full((S, A, S), 1.0 / S), np.full((S, d), 0.5),
                         np.tile(0.05 * np.eye(d), (S, 1, 1)))
    with pytest.raises(ValueError, match=rf"^{message}$"):
        evaluate_model(learned, bundled_env())


# --------------------------------------------------- one score per pair

@st.composite
def learned_models(draw, env):
    """Models shaped like env, with means around the unit box and full
    covariances from broad to tiny, so some pairs hit the inf sentinel; a
    repeated state gives tied permutations, and a collapsed state (the
    M-step's ridge times the identity) is inf against every state of the
    bundled env."""
    S, A, d = env.num_states, env.num_actions, env.obs_dim
    means = draw(arrays(float, (S, d), elements=_floats(-0.5, 1.5)))
    factors = draw(arrays(float, (S, d, d), elements=_floats(-1.0, 1.0)))
    scales = draw(arrays(float, S, elements=_floats(-5.0, 0.0)))
    covs = factors @ factors.transpose(0, 2, 1) + 0.05 * np.eye(d)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1)) * 10.0 ** scales[:, None, None]
    if draw(st.booleans()):
        means[1], covs[1] = means[0], covs[0]
    for j in draw(st.sets(st.integers(0, S - 1), max_size=S - 1)):
        covs[j] = DEFAULT_COV_RIDGE * np.eye(d)
    trans = np.full((S, A, S), 1.0 / S)
    return PomdpModel(S, A, d, trans, means, covs)


@given(st.data())
def test_evaluate_model_scores_each_pair_as_kl_observation_does(data):
    env = bundled_env()
    learned = data.draw(learned_models(env))
    S = env.num_states
    cost = np.array([[kl_observation(env.beta_params[i], learned.obs_means[j],
                                     learned.obs_covs[j]) for j in range(S)]
                     for i in range(S)])
    # exhaustive argmin, lexicographically first on ties
    best = min(itertools.permutations(range(S)),
               key=lambda perm: sum(cost[perm[j], j] for j in range(S)))
    report = evaluate_model(learned, env)
    assert report.state_matching == best
    for j, i in enumerate(best):
        assert report.kl_per_state[env.state_labels[i]] == kl_observation(
            env.beta_params[i], learned.obs_means[j], learned.obs_covs[j])


# ------------------------------------------- truth prepared once per env

def gathered_kl(logp, logq, weights) -> float:
    """kl_quadrature's estimate with its kept points always gathered: the
    reference for the whole-array sum it takes when no point drops."""
    p_mass = weights * np.exp(logp)
    underflow = logq < metrics.LOG_TINY
    if underflow.any() and p_mass[underflow].sum() > metrics.UNDERFLOW_MASS_TOL:
        return math.inf
    keep = (p_mass > 0.0) & ~underflow
    estimate = float((p_mass[keep] * (logp[keep] - logq[keep])).sum())
    return math.inf if estimate > metrics.KL_CEILING else max(estimate, 0.0)


def fresh_costs(beta_params, means, covs) -> np.ndarray:
    """kl_quadrature of every (truth, learned) pair, each density computed
    afresh for its pair; each cell is also gathered_kl's, bit for bit."""
    points, weights = quadrature_grid(beta_params.shape[1])
    costs = np.empty((len(beta_params), len(means)))
    for (i, params), (j, (mean, cov)) in itertools.product(enumerate(beta_params),
                                                           enumerate(zip(means, covs))):
        logp = beta_product_log_density(points, params)
        logq = gaussian_log_density(points, mean, cov)
        costs[i, j] = kl_quadrature(logp, logq, weights)
        reference = gathered_kl(logp, logq, weights)
        assert np.array(costs[i, j]).tobytes() == np.array(reference).tobytes()
    return costs


@given(st.data())
def test_costs_from_the_prepared_truth_are_a_fresh_computation_bit_for_bit(data):
    env_a = bundled_env()
    # shape parameters up to 1000 leave points with no truth mass, so
    # kl_quadrature gathers its kept points there
    beta_b = data.draw(arrays(float, env_a.beta_params.shape, elements=_floats(0.5, 1000.0)))
    assume(not np.array_equal(beta_b, env_a.beta_params))
    env_b = GroundTruthEnv(env_a.transitions, beta_b, env_a.state_labels)
    metrics._truth_on_grid.cache_clear()
    with mock.patch.object(metrics, "beta_product_log_density",
                           wraps=beta_product_log_density) as densities:
        for env in (env_a, env_b, env_a):
            learned = data.draw(learned_models(env))
            want = fresh_costs(env.beta_params, learned.obs_means, learned.obs_covs)
            if env is env_a:
                # a collapsed density underflows beyond about 0.038 of its
                # mean, and each bundled truth state keeps far more than
                # UNDERFLOW_MASS_TOL of its mass there, wherever the mean is;
                # a drawn truth state may not (see the test below)
                collapsed = [j for j, cov in enumerate(learned.obs_covs)
                             if np.array_equal(cov, DEFAULT_COV_RIDGE * np.eye(env.obs_dim))]
                assert np.isinf(want[:, collapsed]).all()
            for factor in (None, learned.emission_factor):
                got = metrics._kl_costs(env.beta_params, learned.obs_means, learned.obs_covs,
                                        factor)
                assert got.tobytes() == want.tobytes()
            report = evaluate_model(learned, env)
            inverse = np.argsort(report.state_matching)
            assert [report.kl_per_state[label] for label in env.state_labels] == [
                want[i, inverse[i]] for i in range(env.num_states)]
    # each env's truth is built once, one density per truth state, and kept
    # read-only
    assert metrics._truth_on_grid.cache_info().misses == 2
    assert densities.call_count == 2 * env_a.num_states
    for env in (env_a, env_b):
        for array in itertools.chain.from_iterable(
                metrics._truth_on_grid(env.beta_params.tobytes(), env.beta_params.shape)):
            assert not array.flags.writeable


def test_a_collapsed_state_at_a_concentrated_truth_state_costs_a_fresh_finite_kl():
    # Beta(0.5, 591) x Beta(0.5, 675) keeps all but UNDERFLOW_MASS_TOL of
    # its quadrature mass within 0.038 of its mean, where a collapsed
    # state's density does not underflow
    beta_params = np.array([[[0.5, 591.0], [0.5, 675.0]]])
    means = beta_params[..., 0] / beta_params.sum(axis=-1)
    covs = DEFAULT_COV_RIDGE * np.eye(2)[None]
    want = fresh_costs(beta_params, means, covs)
    assert metrics._kl_costs(beta_params, means, covs).tobytes() == want.tobytes()
    assert np.isfinite(want).all()
