"""Property tests for the stacked Gaussian algebra and the JSON file formats.

Random models carry up to four states in up to three dims with full SPD
covariances. The one-state gaussian_log_density call is the reference for
the stacked one, bit for bit; every file format must reproduce its input
exactly after a trip through JSON text.
"""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fuzzy_pomdp.fuzzy import (
    FuzzyClause,
    FuzzyModel,
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
    model_from_dict,
    model_to_dict,
    per_state_log_density,
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
    assert np.array_equal(per_state, np.array(single).T)
    assert per_state.flags.c_contiguous


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
    tnorm = draw(st.sampled_from(("product", "minimum")))
    if draw(st.booleans()):
        return make_fuzzy(rules, obs_dim, num_actions, tnorm)
    # no variable table: serialization synthesizes one
    return FuzzyModel(obs_dim=obs_dim, num_actions=num_actions, rules=tuple(rules),
                      tnorm=tnorm)


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
        assert [(c.dim, c.term) for c in again.clauses] == [
            (c.dim, c.term) for c in rule.clauses]
    assert fuzzy_model_to_dict(back) == data
