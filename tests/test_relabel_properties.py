"""State relabelling as a contract: a fit, its antecedent matching and its
pseudo-counts do not depend on the order of the model's states.

Relabelling the init's states (initial_dist included) must relabel the fit
and change nothing else. Every rule base here is matched in closed form
(Gaussian clauses under the product t-norm, or no clause at all): a
Monte-Carlo match draws from a stream keyed by the state's index, so a
fit that matches by Monte Carlo is equivariant only in distribution.
"""
import numpy as np
from hypothesis import assume, given, strategies as st

from fuzzy_pomdp.em import EmConfig, run_em
from fuzzy_pomdp.fuzzy_map import (FuzzyMapConfig, compute_from_matchant, matchant_matrix,
                                   run_fuzzy_map_em)
from fuzzy_pomdp.model import Trajectory

from conftest import random_fuzzy, relabel_states
from test_estep_properties import models
from test_fit_oracle import COUNT_NAMES
from test_matchant_properties import cases

PARAMS = ("transitions", "obs_means", "obs_covs", "initial_dist")


def _old_of_new(new_index) -> np.ndarray:
    """For each new slot, the state that relabel_states(model, new_index)
    moves there."""
    return np.argsort(new_index)


def _relabelled_counts(counts, old_of_new):
    """Sufficient counts with their state axes reordered, as a dict."""
    out = {name: getattr(counts, name)[old_of_new] for name in COUNT_NAMES}
    out["trans"] = out["trans"][:, :, old_of_new]
    return out


@st.composite
def fits(draw):
    """A model of up to 3 states, a permutation of its states, at least
    three trajectories per state, and either plain EM or fuzzy-MAP EM with
    a closed-form rule base, lambdas 0 or above and polish 0 or 2."""
    model = draw(models().filter(lambda m: m.num_states <= 3))
    new_index = draw(st.permutations(range(model.num_states)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 5), min_size=3 * model.num_states,
                            max_size=3 * model.num_states + 2))
    dataset = [Trajectory(observations=rng.normal(scale=1.5, size=(n, model.obs_dim)),
                          actions=rng.integers(model.num_actions, size=n - 1))
               for n in lengths]
    config = EmConfig(max_iterations=draw(st.integers(1, 12)))
    if not draw(st.booleans()):
        return model, new_index, dataset, config, None, None
    fuzzy = random_fuzzy(rng, obs_dim=model.obs_dim, num_actions=model.num_actions,
                         num_rules=draw(st.integers(1, 4)))
    map_config = FuzzyMapConfig(lambda_t=draw(st.sampled_from([0.0, 0.4])),
                                lambda_o=draw(st.sampled_from([0.0, 0.25])),
                                seed=draw(st.integers(0, 99)),
                                final_standard_em_iterations=draw(st.sampled_from([0, 2])))
    return model, new_index, dataset, config, fuzzy, map_config


def _run(init, dataset, config, fuzzy, map_config):
    if fuzzy is None:
        return run_em(dataset, init, config)
    return run_fuzzy_map_em(dataset, init, fuzzy, config, map_config)


@given(fits())
def test_a_fit_from_a_relabelled_init_is_the_relabelled_fit(case):
    model, new_index, dataset, config, fuzzy, map_config = case
    fit = _run(model, dataset, config, fuzzy, map_config)
    moved = _run(relabel_states(model, new_index), dataset, config, fuzzy, map_config)
    # a step whose likelihood change sits within rounding of the tolerance
    # may stop one fit and not the other
    trace = np.asarray(fit.loglik_trace)
    margin = 1e-9 * (1.0 + np.abs(trace[1:]))
    assume(np.all(np.abs(np.abs(np.diff(trace)) - config.loglik_tolerance) > margin))
    assert moved.iterations == fit.iterations
    assert moved.converged == fit.converged
    np.testing.assert_allclose(moved.loglik_trace, fit.loglik_trace, rtol=1e-9, atol=0)
    want = relabel_states(fit.model, new_index)
    for name in PARAMS:
        np.testing.assert_allclose(getattr(moved.model, name), getattr(want, name),
                                   rtol=1e-12, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(np.reshape(moved.prior_data_ratios, (-1, 2)),
                               np.reshape(fit.prior_data_ratios, (-1, 2)), rtol=1e-9)
    assert (moved.final_matchant is None) == (fit.final_matchant is None)
    if fit.final_matchant is not None:
        np.testing.assert_allclose(moved.final_matchant,
                                   fit.final_matchant[_old_of_new(new_index)],
                                   rtol=1e-12, atol=1e-12)


@given(cases(), st.data())
def test_matching_and_pseudo_counts_relabel_with_the_states(case, data):
    model, fuzzy = case
    new_index = data.draw(st.permutations(range(model.num_states)))
    old_of_new = _old_of_new(new_index)
    moved = relabel_states(model, new_index)
    config = FuzzyMapConfig()
    matchant = matchant_matrix(model, fuzzy, config)
    moved_matchant = matchant_matrix(moved, fuzzy, config)
    np.testing.assert_allclose(moved_matchant, matchant[old_of_new], rtol=1e-12, atol=1e-12)
    want = _relabelled_counts(compute_from_matchant(model, fuzzy, matchant), old_of_new)
    got = compute_from_matchant(moved, fuzzy, moved_matchant)
    for name in COUNT_NAMES:
        np.testing.assert_allclose(getattr(got, name), want[name],
                                   rtol=1e-12, atol=1e-12, err_msg=name)
