"""Property tests for the stacked Gaussian algebra, the covariance gate,
trajectory sampling and the JSON file formats.

Random models carry up to four states in up to three dims with full SPD
covariances. scipy's multivariate_normal.logpdf is the reference for
gaussian_log_density to a tolerance scaled by the condition number, and
the one-state call for the stacked one and for the model's kept emission
factor, bit for bit; a symmetrize-and-lift followed by a second
eigenvalue check is the reference for regularize_cov; rng.choice and a
vector rng.beta are the reference for sample_trajectory, draw for draw;
every file format must reproduce its input exactly after a trip through
JSON text.
"""
import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from fuzzy_pomdp.fuzzy import (
    FuzzyClause,
    FuzzyRule,
    MembershipFunction,
    fuzzy_model_from_dict,
    fuzzy_model_to_dict,
)
from fuzzy_pomdp.model import (
    CovarianceError,
    GroundTruthEnv,
    cholesky_factor,
    dataset_from_list,
    dataset_to_list,
    env_from_dict,
    env_to_dict,
    gaussian_log_density,
    make_policy,
    model_from_dict,
    model_to_dict,
    per_state_log_density,
    regularize_cov,
    sample_trajectory,
)

from conftest import make_fuzzy
from test_estep_properties import _floats, cases, models


def _through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def points(draw, obs_dim):
    """One (d,) point or an (n, d) batch, n >= 1."""
    if draw(st.booleans()):
        return draw(arrays(float, obs_dim, elements=_floats(-3.0, 3.0)))
    n = draw(st.integers(1, 6))
    return draw(arrays(float, (n, obs_dim), elements=_floats(-3.0, 3.0)))


@given(models(), st.data())
def test_stacked_density_equals_one_state_calls(model, data):
    obs = data.draw(points(model.obs_dim))
    stacked = gaussian_log_density(obs, model.obs_means, model.obs_covs)
    per_state = per_state_log_density(model, obs)
    single = [gaussian_log_density(obs, model.obs_means[s], model.obs_covs[s])
              for s in range(model.num_states)]
    assert np.array_equal(stacked, np.array(single))
    # the model's kept factor scores as one built from its covariances, on
    # the call that builds it and on later ones
    assert np.array_equal(per_state, stacked.T)
    assert np.array_equal(per_state_log_density(model, obs), stacked.T)
    assert np.array_equal(per_state, np.array(single).T)
    assert per_state.flags.c_contiguous


@given(models())
def test_emission_factor_is_built_once_and_read_only(model):
    factor = model.emission_factor
    assert model.emission_factor is factor
    for array in factor:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.emission_factor = factor


@st.composite
def density_cases(draw):
    """(points, mean, cov): a Gram matrix of possibly deficient rank, shifted
    down by up to 1e-7 and put through regularize_cov, so that a deficient
    one sits on the 1e-6 ridge (condition numbers up to ~4e7), and points
    at 0.1 to 1000 times the unit scale from the mean, far outliers included."""
    dim = draw(st.integers(1, 3))
    factor = draw(arrays(float, (dim, draw(st.integers(1, dim))), elements=_floats(-2.0, 2.0)))
    shift = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-7]))
    cov = regularize_cov(factor @ factor.T - shift * np.eye(dim), 1e-6)
    mean = draw(arrays(float, dim, elements=_floats(-1.5, 1.5)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 1e3]))
    offsets = draw(arrays(float, (draw(st.integers(1, 5)), dim), elements=_floats(-1.0, 1.0)))
    return mean + scale * offsets, mean, cov


@given(density_cases())
def test_log_density_matches_scipy(case):
    # rtol = 5e-14 * cond(cov), at least 1e-12, relative to max(|logpdf|, 1):
    # scipy factors by eigendecomposition, whose error grows with the
    # condition number (up to ~3e-15 * cond seen); the Cholesky route here
    # stayed within 1e-9 of a 50-digit reference on the same family
    obs, mean, cov = case
    want = stats.multivariate_normal.logpdf(obs, mean=mean, cov=cov)
    got = gaussian_log_density(obs, mean, cov)
    rtol = max(5e-14 * np.linalg.cond(cov), 1e-12)
    assert np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), 1.0))


@given(models(), st.data())
def test_stack_with_a_non_pd_covariance_names_the_first_bad_state(model, data):
    bad = data.draw(st.lists(st.integers(0, model.num_states - 1), min_size=1, unique=True))
    covs = model.obs_covs.copy()
    covs[bad] = -covs[bad]
    first = min(bad)
    with pytest.raises(CovarianceError) as one:
        cholesky_factor(covs[first])
    assert str(one.value) == f"covariance is not positive definite: {covs[first].tolist()}"
    want = f"state {first}: {one.value}"
    obs = data.draw(points(model.obs_dim))
    for call in (lambda: cholesky_factor(covs),
                 lambda: gaussian_log_density(obs, model.obs_means, covs),
                 lambda: per_state_log_density(replace(model, obs_covs=covs), obs)):
        with pytest.raises(CovarianceError) as stacked:
            call()
        assert str(stacked.value) == want


def _lift_then_check(cov, ridge):
    """The covariance gate as two steps, each with its own eigendecomposition:
    symmetrize and lift below the ridge, then reject a lifted matrix whose
    smallest eigenvalue is below -1e-12. Returns (matrix or None, that
    smallest eigenvalue)."""
    half = 0.5 * cov
    sym = half + half.T
    if ridge > 0.0 and float(np.linalg.eigvalsh(sym).min()) < ridge:
        sym = sym + ridge * np.eye(cov.shape[0])
    min_eig = float(np.linalg.eigvalsh(sym).min())
    return (None if min_eig < -1e-12 else sym), min_eig


@st.composite
def square_matrices(draw):
    """1-3-dim matrices: arbitrary ones, mostly indefinite, and Gram
    matrices of possibly deficient rank shifted down by up to 1e-6."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(arrays(float, (dim, dim), elements=_floats(-2.0, 2.0)))
    factor = draw(arrays(float, (dim, draw(st.integers(1, dim))), elements=_floats(-2.0, 2.0)))
    shift = draw(st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1e-9, 1e-6]))
    return factor @ factor.T - shift * np.eye(dim)


@given(square_matrices(), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
def test_regularize_cov_is_lift_then_check(cov, ridge):
    want, min_eig = _lift_then_check(cov, ridge)
    # one eigendecomposition rounds the lifted eigenvalue differently
    assume(abs(min_eig + 1e-12) > 1e-14)
    if want is None:
        with pytest.raises(CovarianceError, match="not positive semidefinite"):
            regularize_cov(cov, ridge)
    else:
        assert np.array_equal(regularize_cov(cov, ridge), want)


def _sample_with_choice(env, policy, horizon, rng):
    """The sampler as it was before the CDFs were cached: rng.choice for
    every state, the first from the uniform row, one vector rng.beta for
    every observation."""
    s_count = env.num_states
    state = int(rng.choice(s_count, p=np.full(s_count, 1.0 / s_count)))
    states = [state]
    observations = np.empty((horizon, env.obs_dim))
    actions = np.empty(horizon - 1, dtype=int)
    observations[0] = rng.beta(env.beta_params[state, :, 0], env.beta_params[state, :, 1])
    for t in range(horizon - 1):
        action = int(policy(t, rng))
        actions[t] = action
        state = int(rng.choice(s_count, p=env.transitions[state, action]))
        states.append(state)
        observations[t + 1] = rng.beta(
            env.beta_params[state, :, 0], env.beta_params[state, :, 1]
        )
    return observations, actions, np.array(states)


@st.composite
def probability_rows(draw, shape, off=1e-9):
    """Probability vectors along the last axis, with entries that are
    exactly zero; each row's sum is off 1 by up to `off`, which choice
    accepts."""
    weights = draw(arrays(float, shape, elements=_floats(0.0, 1.0) | st.just(0.0)))
    weights = np.where(weights.sum(axis=-1, keepdims=True) > 0.0, weights, 1.0)
    scale = 1.0 + draw(arrays(float, shape[:-1] + (1,), elements=_floats(-off, off)))
    return weights / weights.sum(axis=-1, keepdims=True) * scale


@st.composite
def envs(draw, obs_dim=None):
    num_states = draw(st.integers(1, 4))
    num_actions = draw(st.integers(1, 3))
    obs_dim = draw(st.integers(1, 3)) if obs_dim is None else obs_dim
    return GroundTruthEnv(
        transitions=draw(probability_rows((num_states, num_actions, num_states))),
        beta_params=draw(arrays(float, (num_states, obs_dim, 2), elements=_floats(0.05, 50.0))),
    )


def _assert_same_rollout(env, policy, horizon, new_rng, old_rng):
    traj, states = sample_trajectory(env, policy, horizon, new_rng, return_states=True)
    observations, actions, old_states = _sample_with_choice(env, policy, horizon, old_rng)
    assert np.array_equal(traj.observations, observations)
    assert np.array_equal(traj.actions, actions)
    assert np.array_equal(states, old_states)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@given(envs(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_sample_trajectory_draws_as_choice_and_vector_beta(env, horizon, seed):
    _assert_same_rollout(env, make_policy("uniform", env.num_actions), horizon,
                         np.random.default_rng(seed), np.random.default_rng(seed))


# numpy's PCG64 steps its 128-bit state s -> s * _PCG_MULT + inc and outputs
# rotr64(hi ^ lo, s >> 122) of the new state; Generator.random() is that
# output's top 53 bits times 2**-53
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64 = 2**64 - 1


def _pcg_state(u: float, hi: int) -> int:
    """A PCG64 state with high word hi whose output random() reads as u."""
    out = int(u * 2**53) << 11
    rot = hi >> 58
    return (hi << 64) | ((((out << rot) | (out >> (64 - rot))) & _MASK64) ^ hi)


def _rigged_rng(u0: float, u1: float) -> np.random.Generator:
    """A PCG64 Generator whose first two random() draws are u0 and u1."""
    first = _pcg_state(u0, 0x9E3779B97F4A7C15)
    second = _pcg_state(u1, 0x5851F42D4C957F2C)
    if (second - first) % 2 == 0:  # the increment must be odd
        second = _pcg_state(u1, 0x5851F42D4C957F2D)
    inc = (second - first * _PCG_MULT) % 2**128
    start = (first - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def _edges(p) -> list[float]:
    """Uniforms random() can return that sit on an edge of choice's CDF for
    p: 0, the largest below 1, and each CDF entry below 1 on the 2**-53 grid."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return [0.0, 1.0 - 2**-53] + [c for c in cdf.tolist() if c < 1.0 and (c * 2**53).is_integer()]


@given(st.data())
def test_sample_trajectory_draws_on_a_cdf_edge_as_choice_does(data):
    # with no observation dims and the cycle policy nothing is drawn between
    # states, so the first two uniforms pick the initial state and the first
    # transition; each lands exactly on an edge of its CDF
    env = data.draw(envs(obs_dim=0))
    start = np.full(env.num_states, 1.0 / env.num_states)
    u0 = data.draw(st.sampled_from(_edges(start)))
    first = int(_rigged_rng(u0, 0.0).choice(env.num_states, p=start))
    u1 = data.draw(st.sampled_from(_edges(env.transitions[first, 0])))
    check = _rigged_rng(u0, u1)
    assert (check.random(), check.random()) == (u0, u1)
    _assert_same_rollout(env, make_policy("cycle", env.num_actions),
                         data.draw(st.integers(2, 12)),
                         _rigged_rng(u0, u1), _rigged_rng(u0, u1))


@given(models())
def test_model_json_round_trip_is_exact(model):
    data = model_to_dict(model)
    back = model_from_dict(_through_json(data))
    for name in ("transitions", "obs_means", "obs_covs", "initial_dist"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert back.state_labels == model.state_labels
    assert model_to_dict(back) == data


@given(models(), st.data())
def test_env_json_round_trip_is_exact(model, data):
    betas = data.draw(arrays(float, (model.num_states, model.obs_dim, 2),
                             elements=_floats(0.05, 50.0)))
    env = GroundTruthEnv(transitions=model.transitions, beta_params=betas,
                         state_labels=tuple(f"S{s}" for s in range(model.num_states)))
    data_dict = env_to_dict(env)
    back = env_from_dict(_through_json(data_dict))
    assert np.array_equal(back.transitions, env.transitions)
    assert np.array_equal(back.beta_params, env.beta_params)
    assert back.state_labels == env.state_labels
    assert env_to_dict(back) == data_dict


@given(cases())
def test_dataset_json_round_trip_is_exact(case):
    _, dataset = case
    data = dataset_to_list(dataset)
    back = dataset_from_list(_through_json(data))
    assert len(back) == len(dataset)
    for traj, again in zip(dataset, back):
        assert np.array_equal(again.observations, traj.observations)
        assert np.array_equal(again.actions, traj.actions)
    assert dataset_to_list(back) == data


@st.composite
def terms(draw):
    shape = draw(st.sampled_from(("gaussian", "triangular", "trapezoidal")))
    if shape == "gaussian":
        return MembershipFunction(shape, (draw(_floats(-2.0, 2.0)), draw(_floats(0.1, 1.5))))
    arity = 3 if shape == "triangular" else 4
    breaks = sorted(draw(st.lists(_floats(-2.0, 2.0), min_size=arity, max_size=arity)))
    return MembershipFunction(shape, tuple(breaks))


@st.composite
def fuzzy_models(draw):
    """Rule bases with every term shape; labels are unique per rule and dim."""
    obs_dim = draw(st.integers(1, 3))
    num_actions = draw(st.integers(1, 3))
    rules = []
    for r in range(draw(st.integers(1, 5))):
        dims = draw(st.lists(st.integers(0, obs_dim - 1), unique=True, max_size=obs_dim))
        clauses = [FuzzyClause(dim=d, term=draw(terms()), term_label=f"r{r}_x{d}")
                   for d in dims]
        consequent = draw(arrays(float, (obs_dim, obs_dim + 1), elements=_floats(-2.0, 2.0)))
        action = draw(st.none() | st.integers(0, num_actions - 1))
        rules.append(FuzzyRule(clauses=tuple(clauses), consequent=consequent, action=action))
    return make_fuzzy(rules, obs_dim, num_actions, draw(st.sampled_from(("product", "minimum"))))


@given(fuzzy_models())
def test_fuzzy_model_json_round_trip_is_exact(fuzzy):
    data = fuzzy_model_to_dict(fuzzy)
    back = fuzzy_model_from_dict(_through_json(data))
    assert (back.obs_dim, back.num_actions, back.tnorm) == (
        fuzzy.obs_dim, fuzzy.num_actions, fuzzy.tnorm)
    assert len(back.rules) == len(fuzzy.rules)
    for rule, again in zip(fuzzy.rules, back.rules):
        assert again.action == rule.action
        assert np.array_equal(again.consequent, rule.consequent)
        assert [(c.dim, c.term, c.term_label) for c in again.clauses] == [
            (c.dim, c.term, c.term_label) for c in rule.clauses]
    assert fuzzy_model_to_dict(back) == data
