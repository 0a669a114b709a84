"""Property tests for the batched E-step, the pooled counts, the M-step and
the EM loop.

Random models carry up to four states with full SPD covariances; random
datasets mix trajectory lengths, one-step trajectories included, so the
E-step splits them into several equal-length batches. The brute-force
enumeration of test_em is the reference for the posteriors.
"""
import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fuzzy_pomdp import em as em_module
from fuzzy_pomdp.em import (EmConfig, ForwardBackwardError, SufficientCounts,
                            _mstep_from_counts, accumulate_counts, e_step, forward_backward,
                            m_step_standard, run_em)
from fuzzy_pomdp.fuzzy import FuzzyClause, MembershipFunction
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from fuzzy_pomdp import model as model_module
from fuzzy_pomdp.model import (DEFAULT_COV_RIDGE, CovarianceError, PomdpModel, Trajectory,
                               _emission_factor, regularize_cov)

from conftest import identity_rule, make_fuzzy, random_fuzzy
from test_em import enumeration_posteriors
from test_fuzzy_map import assert_same_fit


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    num_states = draw(st.integers(1, 4))
    num_actions = draw(st.integers(1, 3))
    obs_dim = draw(st.integers(1, 3))
    means = draw(arrays(float, (num_states, obs_dim), elements=_floats(-1.5, 1.5)))
    factors = draw(arrays(float, (num_states, obs_dim, obs_dim), elements=_floats(-1.0, 1.0)))
    covs = factors @ factors.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1)) + 0.05 * np.eye(obs_dim)
    rows = draw(arrays(float, (num_states, num_actions, num_states),
                       elements=_floats(0.01, 1.0)))
    init = draw(arrays(float, num_states, elements=_floats(0.01, 1.0)))
    return PomdpModel(num_states, num_actions, obs_dim,
                      transitions=rows / rows.sum(axis=2, keepdims=True),
                      obs_means=means, obs_covs=covs, initial_dist=init / init.sum())


@st.composite
def cases(draw, max_len=5, max_count=6):
    """A model plus a dataset of ragged lengths in its spaces."""
    model = draw(models())
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=max_count))
    dataset = [
        Trajectory(
            observations=draw(arrays(float, (length, model.obs_dim),
                                     elements=_floats(-3.0, 3.0))),
            actions=draw(arrays(int, length - 1,
                                elements=st.integers(0, model.num_actions - 1))),
        )
        for length in lengths
    ]
    return model, dataset


@given(cases())
def test_e_step_equals_one_trajectory_at_a_time(case):
    model, dataset = case
    posts, total = e_step(model, dataset)
    assert len(posts) == len(dataset)
    for traj, post in zip(dataset, posts):
        alone = forward_backward(model, traj)
        np.testing.assert_allclose(post.gamma, alone.gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(post.xi, alone.xi, rtol=0, atol=1e-12)
        assert abs(post.log_likelihood - alone.log_likelihood) <= 1e-12
    assert total == sum(p.log_likelihood for p in posts)


@given(cases())
def test_forward_backward_on_a_ragged_dataset_is_its_length_groups_in_order(case):
    # each length group smoothed on its own, then placed in dataset order,
    # bit for bit; e_step is the same posteriors and their total
    model, dataset = case
    got = forward_backward(model, dataset)
    posts = [None] * len(dataset)
    for length in dict.fromkeys(len(traj) for traj in dataset):
        indices = [i for i, traj in enumerate(dataset) if len(traj) == length]
        for i, post in zip(indices, forward_backward(model, [dataset[i] for i in indices])):
            posts[i] = post
    want = {name: np.concatenate([getattr(post, name) for post in posts])
            for name in ("gamma", "xi", "log_likelihoods")}
    assert np.array_equal(got.starts, np.cumsum([0] + [len(traj) for traj in dataset]))
    again, total = e_step(model, dataset)
    for posteriors in (got, again):
        for name, array in want.items():
            assert getattr(posteriors, name).tobytes() == array.tobytes(), name
    assert total == sum(got.log_likelihoods.tolist())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(cases(max_count=8), st.data())
def test_a_non_finite_observation_fails_naming_its_dataset_index_and_step(case, data):
    # several lengths, interleaved: the corrupted trajectory may sit in any
    # length group, at any position in it; every other one scores. The
    # ForwardBackwardError is the only report: no numpy warning precedes it
    model, dataset = case
    assume(len({len(traj) for traj in dataset}) > 1)
    i = data.draw(st.integers(0, len(dataset) - 1), label="trajectory")
    t = data.draw(st.integers(0, len(dataset[i]) - 1), label="step")
    obs = dataset[i].observations.copy()
    obs[t, data.draw(st.integers(0, model.obs_dim - 1), label="dim")] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    dataset[i] = Trajectory(observations=obs, actions=dataset[i].actions)
    message = f"trajectory {i}: zero or NaN total observation likelihood at step {t}"
    for run, prefix in ((lambda: forward_backward(model, dataset), ""),
                        (lambda: e_step(model, dataset), ""),
                        (lambda: run_em(dataset, model), "iteration 0: ")):
        with pytest.raises(ForwardBackwardError) as info:
            run()
        assert str(info.value) == prefix + message
        assert info.value.trajectory == i


@given(cases(max_len=4))
def test_posteriors_match_brute_force_enumeration(case):
    model, dataset = case
    posts, _ = e_step(model, dataset)
    for traj, post in zip(dataset, posts):
        gamma, xi, loglik = enumeration_posteriors(model, traj)
        assert abs(post.log_likelihood - loglik) < 1e-9
        np.testing.assert_allclose(post.gamma, gamma, rtol=0, atol=1e-9)
        np.testing.assert_allclose(post.xi, xi, rtol=0, atol=1e-9)


@given(cases())
def test_accumulated_counts_conserve_mass(case):
    model, dataset = case
    posts, _ = e_step(model, dataset)
    counts = accumulate_counts(dataset, posts, model)
    steps = sum(len(traj) for traj in dataset)
    assert abs(counts.obs_weight.sum() - steps) < 1e-9
    assert abs(counts.trans.sum() - (steps - len(dataset))) < 1e-9
    assert counts.trans.shape == (model.num_states, model.num_actions, model.num_states)
    assert np.all(counts.trans >= 0.0) and np.all(counts.obs_weight >= 0.0)


def pooled_counts_oracle(model, dataset):
    """The E-step and count pooling written out: smoothing per length group,
    posteriors placed in dataset order, then joined along time and pooled
    as accumulate_counts pools them, one matmul per count: the transitions
    against the actions' one-hot rows, the outer products against each
    row's flattened observation outer product.

    Each group is smoothed as one batch, as e_step does: scoring a batch of
    one can differ in the last ulp from scoring the whole group, because
    the density solve runs over a different number of rows.
    """
    posts = [None] * len(dataset)
    for length in dict.fromkeys(len(traj) for traj in dataset):
        indices = [i for i, traj in enumerate(dataset) if len(traj) == length]
        for i, post in zip(indices, forward_backward(model, [dataset[i] for i in indices])):
            posts[i] = post
    gamma = np.concatenate([post.gamma for post in posts])
    xi = np.concatenate([post.xi for post in posts])
    obs = np.concatenate([traj.observations for traj in dataset])
    actions = np.concatenate([traj.actions for traj in dataset])
    num_states, num_actions = model.num_states, model.num_actions
    trans = np.eye(num_actions)[actions].T @ xi.reshape(len(xi), num_states * num_states)
    counts = SufficientCounts(
        trans=trans.reshape(num_actions, num_states, num_states).transpose(1, 0, 2),
        obs_weight=gamma.sum(axis=0),
        obs_sum=gamma.T @ obs,
        obs_outer=(gamma.T @ _outer_rows(obs)).reshape(-1, obs.shape[1], obs.shape[1]),
    )
    return posts, counts, sum(post.log_likelihood for post in posts)


def _outer_rows(obs):
    """(n, d*d): each row's observation outer product, flattened."""
    return np.stack([np.outer(row, row).ravel() for row in obs])


# up to 12 trajectories: from 8 values on, np.sum adds in a different
# order from the Python sum of the per-trajectory log-likelihoods
@given(cases(max_len=6, max_count=12))
def test_pooled_e_step_and_counts_equal_the_oracle_bit_for_bit(case):
    model, dataset = case
    posts, total = e_step(model, dataset)
    counts = accumulate_counts(dataset, posts, model)
    want_posts, want_counts, want_total = pooled_counts_oracle(model, dataset)
    assert total == want_total
    assert len(posts) == len(dataset)
    for post, want in zip(posts, want_posts):
        assert np.array_equal(post.gamma, want.gamma)
        assert np.array_equal(post.xi, want.xi)
        assert post.log_likelihood == want.log_likelihood
    for name in ("trans", "obs_weight", "obs_sum", "obs_outer"):
        assert np.array_equal(getattr(counts, name), getattr(want_counts, name)), name


@given(cases(max_len=6, max_count=12))
def test_matmul_pooled_counts_equal_the_einsums_they_replaced(case):
    # accumulate_counts pooled transitions with einsum("ma,msk->sak") and
    # outer products with einsum("ts,td,te->sde") until one matmul per count
    # replaced them; the two round differently, by a few ulps of the largest
    # term, so each count is held to 1e-14 of its sum of absolute terms
    model, dataset = case
    posts, _ = e_step(model, dataset)
    counts = accumulate_counts(dataset, posts, model)
    obs = np.concatenate([traj.observations for traj in dataset])
    actions = np.concatenate([traj.actions for traj in dataset])
    one_hot = np.eye(model.num_actions)[actions]
    trans = np.einsum("ma,msk->sak", one_hot, posts.xi)
    assert np.all(np.abs(counts.trans - trans) <= 1e-14 * trans)
    outer = np.einsum("ts,td,te->sde", posts.gamma, obs, obs)
    scale = np.einsum("ts,td,te->sde", posts.gamma, np.abs(obs), np.abs(obs))
    assert np.all(np.abs(counts.obs_outer - outer) <= 1e-14 * scale)


@st.composite
def sampled_cases(draw):
    """A model plus continuous data, at least three trajectories per state.

    Repeated observation values let a state's covariance collapse onto the
    ridge, where rounding alone moves the likelihood by ~1e-8 either way, so
    the observations come from a seeded normal draw instead.
    """
    model = draw(models())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 8), min_size=3 * model.num_states,
                            max_size=3 * model.num_states + 4))
    dataset = [
        Trajectory(observations=rng.normal(scale=1.5, size=(length, model.obs_dim)),
                   actions=rng.integers(model.num_actions, size=length - 1))
        for length in lengths
    ]
    return model, dataset


@given(sampled_cases())
def test_plain_em_loglik_never_decreases(case):
    model, dataset = case
    trace = np.asarray(run_em(dataset, model, EmConfig(max_iterations=15)).loglik_trace)
    assert np.diff(trace).min(initial=0.0) >= -1e-8, trace


@given(sampled_cases())
def test_zero_lambda_fuzzy_map_is_plain_em(case):
    model, dataset = case
    fuzzy = random_fuzzy(np.random.default_rng(0), obs_dim=model.obs_dim,
                         num_actions=model.num_actions)
    config = EmConfig(max_iterations=15)
    mapped = run_fuzzy_map_em(dataset, model, fuzzy, config, FuzzyMapConfig())
    assert_same_fit(mapped, run_em(dataset, model, config))
    assert mapped.final_matchant is None


@given(sampled_cases(), st.integers(1, 8), st.integers(0, 2),
       st.sampled_from(("gaussian", "minimum", "triangular")))
def test_a_fit_factors_each_model_it_scores_once(case, max_iterations, polish, rules):
    # k M-steps score k+1 models: the init, factored on first use through
    # cholesky_factor, and each M-step's result, which the M-step factors in
    # its covariance pass; both run the Cholesky kernel once. Each factor
    # serves its model's E-step, its matchant_matrix and its pseudo-counts,
    # and Monte-Carlo cells (the minimum t-norm, a triangular term) draw
    # from it too
    model, dataset = case
    base = random_fuzzy(np.random.default_rng(1), obs_dim=model.obs_dim,
                        num_actions=model.num_actions).rules
    if rules != "gaussian":
        term = (MembershipFunction("triangular", (-1.0, 0.0, 1.0)) if rules == "triangular"
                else MembershipFunction("gaussian", (0.0, 1.0)))
        base += (identity_rule(model.obs_dim, clauses=[FuzzyClause(0, term, "t")]),)
    fuzzy = make_fuzzy(base, model.obs_dim, model.num_actions,
                       tnorm="minimum" if rules == "minimum" else "product")
    assert bool(fuzzy.tables.mc_rules) == (rules != "gaussian")
    config = FuzzyMapConfig(lambda_t=0.5, lambda_o=0.5, matchant_samples=16,
                            final_standard_em_iterations=polish)
    with mock.patch.object(model_module, "_cholesky", wraps=model_module._cholesky) as factor:
        fit = run_fuzzy_map_em(dataset, model, fuzzy, EmConfig(max_iterations=max_iterations),
                               config)
    assert factor.call_count == fit.iterations + 1


@st.composite
def factored_fits(draw, kind, algorithm):
    """(init, dataset, fit, frozen state): a fit to run from init.

    algorithm "em" is plain EM; "fuzzy-map" fuzzy-MAP EM on data, with or
    without polish; "prior-only" fuzzy-MAP EM on no data. kind "sampled"
    keeps sampled_cases' data; "frozen" makes one state of init
    unreachable (no initial mass, no transition into it), so the first
    M-step keeps its covariance; "ridge" makes every observation the same
    value, so plain EM lifts every covariance onto the ridge."""
    model, dataset = draw(sampled_cases())
    frozen = None
    if kind == "frozen":
        assume(model.num_states > 1)
        frozen = draw(st.integers(0, model.num_states - 1))
        transitions = model.transitions.copy()
        transitions[:, :, frozen] = 0.0
        init_dist = model.initial_dist.copy()
        init_dist[frozen] = 0.0
        model = replace(model, transitions=transitions / transitions.sum(axis=2, keepdims=True),
                        initial_dist=init_dist / init_dist.sum())
    elif kind == "ridge":
        value = draw(_floats(-1.0, 1.0))
        dataset = [Trajectory(observations=np.full_like(traj.observations, value),
                              actions=traj.actions) for traj in dataset]
    config = EmConfig(max_iterations=draw(st.integers(1, 6)))
    if algorithm == "em":
        return model, dataset, lambda: run_em(dataset, model, config), frozen
    fuzzy = random_fuzzy(np.random.default_rng(draw(st.integers(0, 3))), obs_dim=model.obs_dim,
                         num_actions=model.num_actions)
    data = dataset if algorithm == "fuzzy-map" else []
    polish = draw(st.integers(0, 2)) if data else 0  # a polish needs data
    map_config = FuzzyMapConfig(lambda_t=0.5, lambda_o=0.5, matchant_samples=8,
                                final_standard_em_iterations=polish)
    return model, data, lambda: run_fuzzy_map_em(data, model, fuzzy, config, map_config), frozen


@pytest.mark.parametrize("algorithm", ["em", "fuzzy-map", "prior-only"])
@pytest.mark.parametrize("kind", ["sampled", "frozen", "ridge"])
@settings(max_examples=15)
@given(data=st.data())
def test_every_model_a_fit_scores_or_returns_carries_its_factor(kind, algorithm, data):
    # the init is factored on first use, each M-step's model by the M-step
    # itself; either way the factor is _emission_factor's, bit for bit
    init, dataset, fit, frozen = data.draw(factored_fits(kind, algorithm))
    scored, stepped = [], []

    def scoring(model, fit_data):
        scored.append(model)
        return e_step(model, fit_data)

    def stepping(counts, prev, config):
        model = m_step_standard(counts, prev, config)
        assert "emission_factor" in vars(model)  # built by the M-step, not on a read
        stepped.append((prev, model))
        return model

    with mock.patch.object(em_module, "e_step", scoring), \
            mock.patch.object(em_module, "m_step_standard", stepping), \
            mock.patch.object(model_module, "regularize_cov", wraps=regularize_cov) as lifts:
        result = fit()
    assert len(stepped) == result.iterations
    assert len(scored) == (result.iterations + 1 if dataset else 0)
    assert result.model is (stepped[-1][1] if stepped else init)
    for model in scored + [model for _, model in stepped]:
        factor = model.emission_factor
        assert model.emission_factor is factor
        for got, want in zip(factor, _emission_factor(model.obs_covs)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    if frozen is not None:
        prev, first = stepped[0]
        assert first.obs_covs[frozen].tobytes() == prev.obs_covs[frozen].tobytes()
    if kind == "ridge" and algorithm == "em":
        assert lifts.call_count > 0


def mstep_oracle(counts, prev, ridge):
    """The closed-form M-step written one (state, action) pair at a time."""
    num_states = prev.num_states
    transitions = np.empty_like(prev.transitions)
    row_mass = counts.trans.sum(axis=2)
    for s in range(num_states):
        for a in range(prev.num_actions):
            if row_mass[s, a] > 0.0:
                transitions[s, a] = counts.trans[s, a] / row_mass[s, a]
            else:
                transitions[s, a] = 1.0 / num_states
    means = prev.obs_means.copy()
    covs = prev.obs_covs.copy()
    for s in range(num_states):
        weight = counts.obs_weight[s]
        if weight > 0.0:
            mu = counts.obs_sum[s] / weight
            means[s] = mu
            covs[s] = regularize_cov(counts.obs_outer[s] / weight - np.outer(mu, mu), ridge)
    return transitions, means, covs


@st.composite
def sparse_counts(draw):
    """Counts for a model, with some transition rows and some states empty."""
    model = draw(models())
    s, a, d = model.num_states, model.num_actions, model.obs_dim
    trans = draw(arrays(float, (s, a, s), elements=_floats(0.0, 5.0)))
    trans[draw(arrays(bool, (s, a)))] = 0.0
    weight = draw(arrays(float, s, elements=_floats(0.01, 10.0)))
    weight[draw(arrays(bool, s))] = 0.0
    means = draw(arrays(float, (s, d), elements=_floats(-2.0, 2.0)))
    factors = draw(arrays(float, (s, d, d), elements=_floats(-1.0, 1.0)))
    scatter = factors @ factors.transpose(0, 2, 1)
    counts = SufficientCounts(
        trans=trans,
        obs_weight=weight,
        obs_sum=weight[:, None] * means,
        obs_outer=weight[:, None, None] * (scatter + means[:, :, None] * means[:, None, :]),
    )
    return model, counts


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_counts())
def test_mstep_equals_per_pair_oracle_and_logs_each_fallback_once(caplog, case):
    model, counts = case
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fuzzy_pomdp.em"):
        got = _mstep_from_counts(counts, model)
    transitions, means, covs = mstep_oracle(counts, model, DEFAULT_COV_RIDGE)
    assert np.array_equal(got.transitions, transitions)
    assert np.array_equal(got.obs_means, means)
    assert np.array_equal(got.obs_covs, covs)
    rows = [r.args for r in caplog.records if r.msg.startswith("no transition mass for state")]
    frozen = [r.args for r in caplog.records
              if r.msg.startswith("no observation mass for state")]
    assert rows == [tuple(i) for i in np.argwhere(counts.trans.sum(axis=2) == 0.0)]
    assert frozen == [(i,) for i in np.flatnonzero(counts.obs_weight == 0.0)]
    assert len(caplog.records) == len(rows) + len(frozen)


# kinds of state for the covariance gate; "random" is drawn most often
GATE_KINDS = ("random", "random", "at_ridge", "under_ridge", "massless", "nonfinite",
              "indefinite")


def gate_counts(kinds, obs_dim, scale, rng):
    """Counts with one state of each kind in `kinds`, and a model to update.

    random: a random covariance of size `scale` about a random mean, so a
    small one lands on the ridge through rounding; at_ridge and under_ridge:
    smallest eigenvalue the M-step's ridge, DEFAULT_COV_RIDGE, or the float
    just below it; indefinite: one
    still below -1e-12 after the lift; massless: zero weight; nonfinite: a
    NaN or infinite second moment. The last four have zero mean and unit
    weight, so the M-step's covariance is their second moment exactly, up
    to an optional rotation.
    """
    num_states = len(kinds)
    weight = np.ones(num_states)
    sums = np.zeros((num_states, obs_dim))
    outer = np.zeros((num_states, obs_dim, obs_dim))
    ridge = DEFAULT_COV_RIDGE
    lowest = {"at_ridge": ridge, "under_ridge": np.nextafter(ridge, -1.0),
              "indefinite": -(ridge + scale) - 1e-11}
    for s, kind in enumerate(kinds):
        if kind == "random":
            weight[s] = rng.uniform(0.01, 10.0)
            mu = rng.uniform(-1.0, 1.0, obs_dim)
            factor = rng.uniform(-1.0, 1.0, (obs_dim, obs_dim))
            sums[s] = weight[s] * mu
            outer[s] = weight[s] * (scale * factor @ factor.T + np.outer(mu, mu))
        elif kind == "massless":
            weight[s] = 0.0
        elif kind == "nonfinite":
            outer[s] = np.eye(obs_dim)
            outer[s].flat[rng.integers(obs_dim * obs_dim)] = rng.choice([np.nan, np.inf, -np.inf])
        else:
            low = lowest[kind]
            eigs = rng.permutation(np.r_[low, low + scale * rng.uniform(0.0, 1.0, obs_dim - 1)])
            q = np.linalg.qr(rng.normal(size=(obs_dim, obs_dim)))[0]
            outer[s] = (q * eigs) @ q.T if rng.random() < 0.5 else np.diag(eigs)
    counts = SufficientCounts(trans=np.ones((num_states, 1, num_states)), obs_weight=weight,
                              obs_sum=sums, obs_outer=outer)
    prev = PomdpModel(num_states, 1, obs_dim,
                      transitions=np.full((num_states, 1, num_states), 1.0 / num_states),
                      obs_means=rng.normal(size=(num_states, obs_dim)),
                      obs_covs=np.tile(np.eye(obs_dim), (num_states, 1, 1)))
    return counts, prev


def gate_reference(counts, prev):
    """(covariances, lifted states) from regularize_cov run on each state
    with mass, in state order, or the text of the first CovarianceError."""
    covs, lifted = prev.obs_covs.copy(), []
    for s, weight in enumerate(counts.obs_weight.tolist()):
        if weight > 0.0:
            mu = counts.obs_sum[s] / weight
            raw = counts.obs_outer[s] / weight - np.outer(mu, mu)
            try:
                covs[s] = regularize_cov(raw, DEFAULT_COV_RIDGE)
            except CovarianceError as err:
                return f"state {s}: {err}"
            half = 0.5 * raw
            if not np.array_equal(covs[s], half + half.T):
                lifted.append(s)
    return covs, lifted


def assert_gate_is_reference(counts, prev):
    want = gate_reference(counts, prev)
    with mock.patch.object(model_module, "regularize_cov", wraps=regularize_cov) as calls:
        try:
            got = _mstep_from_counts(counts, prev).obs_covs
        except CovarianceError as err:
            got = str(err)
    if isinstance(want, str):
        assert got == want
        return
    covs, lifted = want
    assert isinstance(got, np.ndarray) and np.array_equal(got, covs)
    # regularize_cov runs on the lifted states alone, once each
    assert [call.args[0].shape for call in calls.call_args_list] == [covs[0].shape] * len(lifted)


@st.composite
def gate_cases(draw):
    kinds = draw(st.lists(st.sampled_from(GATE_KINDS), min_size=1, max_size=4))
    obs_dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-8, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gate_counts(kinds, obs_dim, scale, rng)


@given(gate_cases())
def test_stacked_covariance_gate_is_regularize_cov_state_by_state(case):
    assert_gate_is_reference(*case)


@pytest.mark.parametrize("kinds, problem", [
    (("random", "nonfinite", "massless", "indefinite"), "finite"),
    (("random", "indefinite", "massless", "nonfinite"), "positive semidefinite"),
], ids=["finite", "positive semidefinite"])
def test_the_first_failing_state_in_order_raises(kinds, problem):
    counts, prev = gate_counts(kinds, 2, 1e-3, np.random.default_rng(5))
    with pytest.raises(CovarianceError, match=rf"^state 1: covariance is not {problem}"):
        _mstep_from_counts(counts, prev)
    assert_gate_is_reference(counts, prev)


def _second_moment_counts(second_moment):
    """(counts, prev) for two states with zero means and unit weight:
    state 0's covariance is the identity, state 1's is second_moment."""
    outer = np.stack([np.eye(2), second_moment])
    counts = SufficientCounts(trans=np.ones((2, 1, 2)), obs_weight=np.ones(2),
                              obs_sum=np.zeros((2, 2)), obs_outer=outer)
    prev = PomdpModel(2, 1, 2, transitions=np.full((2, 1, 2), 0.5), obs_means=np.zeros((2, 2)),
                      obs_covs=np.tile(np.eye(2), (2, 1, 1)))
    return counts, prev


@pytest.mark.parametrize("second_moment, problem", [
    # eigvalsh finds a smallest eigenvalue of 0.0078 > 1e-6, but at this
    # condition number the Cholesky factorization fails
    ([[268638987563050.4, 132316247527812.94], [132316247527812.94, 65171438884061.39]],
     "positive definite"),
], ids=["not positive definite"])
def test_a_stack_the_mstep_cannot_factor_raises_on_first_use_as_before(second_moment, problem):
    # the M-step itself does not raise; its model has no factor, and its
    # first use raises what cholesky_factor raises on its covariances
    model = _mstep_from_counts(*_second_moment_counts(second_moment))
    assert "emission_factor" not in vars(model)
    with pytest.raises(CovarianceError) as want:
        model_module.cholesky_factor(model.obs_covs)
    assert str(want.value).startswith(f"state 1: covariance is not {problem}: ")
    for _ in range(2):
        with pytest.raises(CovarianceError) as got:
            model.emission_factor
        assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error")
def test_a_covariance_above_half_the_float_range_is_kept_with_its_factor():
    # symmetrizing halves before it adds, so a finite covariance whose
    # doubled entries would overflow stays finite: the M-step keeps it as
    # it is (well above the ridge) and factors it, without a warning
    second_moment = [[1.0, 0.0], [0.0, 1.5e308]]
    model = _mstep_from_counts(*_second_moment_counts(second_moment))
    assert model.obs_covs.tolist() == [np.eye(2).tolist(), second_moment]
    for got, want in zip(vars(model)["emission_factor"], _emission_factor(model.obs_covs)):
        assert got.tobytes() == want.tobytes()
    assert regularize_cov(np.array(second_moment)).tolist() == second_moment


def _without_state_1(counts):
    """counts with no transition and no observation mass in state 1."""
    trans = counts.trans.copy()
    trans[1] = 0.0
    return replace(counts, trans=trans, obs_weight=np.array([1.0, 0.0]),
                   obs_sum=np.zeros((2, 2)), obs_outer=np.stack([np.eye(2), np.zeros((2, 2))]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kept", [False, True], ids=["all live", "state 1 kept"])
def test_an_mstep_enters_one_errstate_and_checks_finiteness_once(kept, monkeypatch):
    # the stacked eigvalsh, the Cholesky factor and its inverse share one
    # np.errstate, and one finiteness check covers the whole stack; a state
    # without mass (no transition and no observation mass) keeps its
    # covariance without a division by zero, so without an errstate of its own
    counts, prev = _second_moment_counts(np.array([[2.0, 0.5], [0.5, 1.0]]))
    if kept:
        counts = _without_state_1(counts)
    entries, checks = [], []
    errstate, all_finite = np.errstate, model_module._all_finite
    monkeypatch.setattr(np, "errstate", lambda **kw: entries.append(kw) or errstate(**kw))
    monkeypatch.setattr(model_module, "_all_finite",
                        lambda values: checks.append(values.shape) or all_finite(values))
    model = _mstep_from_counts(counts, prev)
    assert entries == [dict(invalid="raise", over="ignore", divide="ignore", under="ignore")]
    assert checks == [(2, 2, 2)]
    assert "emission_factor" in vars(model)
    if kept:
        assert model.obs_covs[1].tobytes() == prev.obs_covs[1].tobytes()
        assert model.transitions[1].tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_kept_covariance_that_is_not_finite_leaves_the_model_without_a_factor(value):
    # the one finiteness check covers the kept state too: the Cholesky
    # kernel reads only the lower triangle, and would factor this stack
    counts, prev = _second_moment_counts(np.eye(2))
    covs = prev.obs_covs.copy()
    covs[1, 0, 1] = value
    model = _mstep_from_counts(_without_state_1(counts), replace(prev, obs_covs=covs))
    assert "emission_factor" not in vars(model)
    with pytest.raises(CovarianceError, match=r"^state 1: covariance is not finite: "):
        model.emission_factor
