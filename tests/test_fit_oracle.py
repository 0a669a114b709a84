"""Whole fits against a slow reference built from the per-piece oracles.

reference_fit runs the EM loop as run_em and run_fuzzy_map_em document it,
from pieces each checked on its own elsewhere: E-steps by enumerating every
latent state sequence (test_em), counts pooled one observation at a time,
matching one (state, action, rule) cell at a time, in closed form for
Gaussian clauses under the product t-norm (test_matchant_properties) and
otherwise by Monte Carlo from the cell's keyed stream, pseudo-counts by
the flat loop (test_fuzzy_map), and the M-step one (state, action) pair at
a time (test_estep_properties). It imports nothing from em or fuzzy_map
but their config and result types, so it checks how the fit composes the
pieces: its iteration count, the polish phase, the prior/data ratios and
the Monte-Carlo keys.
"""
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fuzzy_pomdp.em import EmConfig, EmResult, run_em
from fuzzy_pomdp.fuzzy import FuzzyClause, MembershipFunction, antecedent_strengths
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from fuzzy_pomdp.model import DEFAULT_COV_RIDGE, Trajectory
from fuzzy_pomdp.rngs import derive_rng

from conftest import identity_rule, make_fuzzy, random_fuzzy, random_model
from test_em import enumeration_posteriors
from test_estep_properties import models, mstep_oracle
from test_fuzzy_map import pseudocounts_oracle
from test_matchant_properties import _moment

# a tolerance that only a change of exactly 0 reaches
UNREACHED = 1e-300
COUNT_NAMES = ("trans", "obs_weight", "obs_sum", "obs_outer")


def _zero_counts(model):
    s, a, d = model.num_states, model.num_actions, model.obs_dim
    return SimpleNamespace(trans=np.zeros((s, a, s)), obs_weight=np.zeros(s),
                           obs_sum=np.zeros((s, d)), obs_outer=np.zeros((s, d, d)))


def _scored(model, dataset):
    """Expected counts pooled one observation at a time, and the total
    log-likelihood, from enumeration posteriors."""
    counts, total = _zero_counts(model), 0.0
    for traj in dataset:
        gamma, xi, loglik = enumeration_posteriors(model, traj)
        total += loglik
        for t, obs in enumerate(traj.observations):
            counts.obs_weight += gamma[t]
            counts.obs_sum += gamma[t][:, None] * obs
            counts.obs_outer += gamma[t][:, None, None] * np.outer(obs, obs)
        for t, action in enumerate(traj.actions):
            counts.trans[:, action] += xi[t]
    return counts, total


def _matchant(model, fuzzy, config, iteration):
    """Each rule's expected firing strength per (state, action): 0 when its
    action gate shuts, 1 for an empty antecedent, the closed form for
    Gaussian clauses under the product t-norm, else the mean strength over
    config.matchant_samples draws from derive_rng(seed, "matchant", s, a, r,
    iteration)."""
    out = np.zeros((model.num_states, model.num_actions, len(fuzzy.rules)))
    for s, a, r in np.ndindex(out.shape):
        rule = fuzzy.rules[r]
        if rule.action is not None and rule.action != a:
            continue
        if not rule.clauses:
            out[s, a, r] = 1.0
        elif fuzzy.tnorm == "product" and all(c.term.shape == "gaussian" for c in rule.clauses):
            out[s, a, r] = _moment(rule, model, s, 1)
        else:
            rng = derive_rng(config.seed, "matchant", s, a, r, iteration)
            z = rng.standard_normal((config.matchant_samples, model.obs_dim))
            draws = model.obs_means[s] + z @ np.linalg.cholesky(model.obs_covs[s]).T
            out[s, a, r] = antecedent_strengths(rule, draws, fuzzy.tnorm).mean()
    return out


def _ratio(prior, data):
    return prior / data if data > 0 else math.inf


def reference_fit(dataset, init, config, fuzzy=None, map_config=None) -> EmResult:
    """run_em (fuzzy None) or run_fuzzy_map_em, written out, each phase run
    to its budget.

    One scoring of the init, then config.max_iterations M-steps (fuzzy-MAP's
    on counts blended with lambda-weighted pseudo-counts, matched with the
    number of M-steps so far as the Monte-Carlo iteration key), then
    final_standard_em_iterations plain ones, each new model scored.
    """
    polish = map_config.final_standard_em_iterations if map_config else 0
    model, trace, ratios, matchant, iterations = init, [], [], None, 0
    if dataset:
        counts, loglik = _scored(model, dataset)
        trace.append(loglik)
    for prior, budget in ((fuzzy is not None, config.max_iterations), (False, polish)):
        for _ in range(budget):
            if not dataset:
                counts = _zero_counts(model)
            blended = counts
            if prior:
                lam_t, lam_o = map_config.lambda_t, map_config.lambda_o
                pseudo = _zero_counts(model)
                if lam_t or lam_o:
                    matchant = _matchant(model, fuzzy, map_config, iterations)
                    pseudo = pseudocounts_oracle(model, fuzzy, matchant)
                ratios.append((_ratio(lam_t * pseudo.trans.sum(), counts.trans.sum()),
                               _ratio(lam_o * pseudo.obs_weight.sum(), counts.obs_weight.sum())))
                blended = SimpleNamespace(**{
                    name: getattr(counts, name) + (lam_t if name == "trans" else lam_o)
                    * getattr(pseudo, name) for name in COUNT_NAMES})
            transitions, means, covs = mstep_oracle(blended, model, DEFAULT_COV_RIDGE)
            model = dataclasses.replace(model, transitions=transitions, obs_means=means,
                                        obs_covs=covs)
            iterations += 1
            if dataset:
                counts, loglik = _scored(model, dataset)
                trace.append(loglik)
    return EmResult(model=model, loglik_trace=trace, iterations=iterations,
                    prior_data_ratios=ratios, final_matchant=matchant)


def assert_close_fits(got, want, tol=1e-9):
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.loglik_trace, want.loglik_trace, rtol=tol, atol=tol)
    for name in ("transitions", "obs_means", "obs_covs", "initial_dist"):
        np.testing.assert_allclose(getattr(got.model, name), getattr(want.model, name),
                                   rtol=tol, atol=tol, err_msg=name)
    assert len(got.prior_data_ratios) == len(want.prior_data_ratios)
    np.testing.assert_allclose(np.reshape(got.prior_data_ratios, (-1, 2)),
                               np.reshape(want.prior_data_ratios, (-1, 2)), rtol=tol, atol=tol)
    assert (got.final_matchant is None) == (want.final_matchant is None)
    if want.final_matchant is not None:
        np.testing.assert_allclose(got.final_matchant, want.final_matchant, rtol=tol, atol=tol)


@st.composite
def fits(draw):
    """A small fit of either kind: a model of up to 3 states, ragged data of
    at least three trajectories per state (empty for some prior-only
    fuzzy-MAP fits), a rule base under either t-norm that has a Monte-Carlo
    rule, lambdas 0 or above, polish 0, 1 or 3."""
    model = draw(models().filter(lambda m: m.num_states <= 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    algorithm = draw(st.sampled_from(["em", "fuzzy_map"]))
    lam_t, lam_o = draw(st.sampled_from([0.0, 0.4])), draw(st.sampled_from([0.0, 0.25]))
    polish = draw(st.sampled_from([0, 1, 3]))
    empty = algorithm == "fuzzy_map" and lam_t > 0 and lam_o > 0 and draw(st.booleans())
    lengths = [] if empty else draw(st.lists(st.integers(1, 4), min_size=3 * model.num_states,
                                             max_size=3 * model.num_states + 2))
    dataset = [Trajectory(observations=rng.normal(scale=1.5, size=(n, model.obs_dim)),
                          actions=rng.integers(model.num_actions, size=n - 1))
               for n in lengths]
    config = EmConfig(max_iterations=draw(st.integers(1, 4)), loglik_tolerance=UNREACHED)
    if algorithm == "em":
        return dataset, model, config, None, None
    rules = random_fuzzy(rng, obs_dim=model.obs_dim, num_actions=model.num_actions,
                         num_rules=draw(st.integers(1, 3))).rules
    term = MembershipFunction("triangular", (-1.5, 0.0, 1.5))
    rules += (identity_rule(model.obs_dim, clauses=[FuzzyClause(0, term, "tri")]),)
    fuzzy = make_fuzzy(rules, model.obs_dim, model.num_actions,
                       tnorm=draw(st.sampled_from(["product", "minimum"])))
    map_config = FuzzyMapConfig(lambda_t=lam_t, lambda_o=lam_o, matchant_samples=16,
                                seed=draw(st.integers(0, 99)),
                                final_standard_em_iterations=0 if empty else polish)
    return dataset, model, config, fuzzy, map_config


def _run(dataset, init, config, fuzzy, map_config):
    if fuzzy is None:
        return run_em(dataset, init, config)
    return run_fuzzy_map_em(dataset, init, fuzzy, config, map_config)


@settings(deadline=None)
@given(fits())
def test_a_fit_equals_the_reference_fit(case):
    # only fits that ran every phase to its budget, and not their verdict: a
    # change of exactly 0 (one state, or states that start equal) stops a fit
    # at a fixed point that the reference reaches only to rounding; the stop
    # rule and `converged` are tested on their own below
    fit = _run(*case)
    _, _, config, _, map_config = case
    assume(fit.iterations == config.max_iterations + (
        map_config.final_standard_em_iterations if map_config else 0))
    assert_close_fits(fit, reference_fit(*case))


@settings(deadline=None)
@given(fits(), st.data())
def test_each_phase_stops_at_the_first_change_below_the_tolerance(case, data):
    # against the same fit run to its budget: the first phase's trace is
    # cut after the first change below the tolerance, and the polish is
    # plain EM from where that phase stopped, its first scoring not repeated
    dataset, init, config, fuzzy, map_config = case
    if not dataset:  # prior-only: the stop rule on parameters is tested below
        return
    full = _run(dataset, init, config, fuzzy, map_config and dataclasses.replace(
        map_config, final_standard_em_iterations=0))
    changes = np.abs(np.diff(full.loglik_trace))
    tol = data.draw(st.sampled_from([*changes.tolist(), 1e3]).filter(lambda v: v > 0))
    config = dataclasses.replace(config, loglik_tolerance=tol)
    polish = map_config.final_standard_em_iterations if map_config else 0
    fit = _run(dataset, init, config, fuzzy, map_config)
    first = _run(dataset, init, config, fuzzy, map_config and dataclasses.replace(
        map_config, final_standard_em_iterations=0))
    below = np.flatnonzero(changes < tol)
    stop = int(below[0]) + 1 if len(below) else config.max_iterations
    assert first.loglik_trace == full.loglik_trace[:stop + 1]
    assert (first.iterations, first.converged) == (stop, len(below) > 0)
    if polish:
        plain = run_em(dataset, first.model, dataclasses.replace(config, max_iterations=polish))
        assert fit.loglik_trace == first.loglik_trace + plain.loglik_trace[1:]
        assert fit.iterations == first.iterations + plain.iterations
        assert np.array_equal(fit.model.obs_covs, plain.model.obs_covs)
    else:
        assert fit.loglik_trace == first.loglik_trace
    assert fit.converged == first.converged
    assert fit.prior_data_ratios == first.prior_data_ratios


def test_a_prior_only_fit_stops_once_no_parameter_moves_by_the_tolerance():
    rng = np.random.default_rng(5)
    init = random_model(rng)
    fuzzy = random_fuzzy(rng, num_rules=3)
    map_config = FuzzyMapConfig(lambda_t=0.4, lambda_o=0.25)
    budget = 8
    # the model after k M-steps, k = 1..budget, and each M-step's largest move
    steps = [run_fuzzy_map_em([], init, fuzzy, EmConfig(max_iterations=k,
                                                        loglik_tolerance=UNREACHED),
                              map_config).model for k in range(1, budget + 1)]
    moves = [max(np.abs(getattr(b, n) - getattr(a, n)).max()
                 for n in ("transitions", "obs_means", "obs_covs"))
             for a, b in zip([init] + steps, steps)]
    for tol in moves:
        fit = run_fuzzy_map_em([], init, fuzzy, EmConfig(max_iterations=budget,
                                                         loglik_tolerance=tol), map_config)
        below = [i for i, move in enumerate(moves) if move < tol]
        stop = below[0] + 1 if below else budget
        assert (fit.iterations, fit.converged, fit.loglik_trace) == (stop, bool(below), [])
        assert np.array_equal(fit.model.obs_covs, steps[stop - 1].obs_covs)
