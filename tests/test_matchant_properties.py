"""Property tests for antecedent matching and the consequent table.

Random models carry full SPD covariances; random rule bases mix action
gates, empty antecedents and clauses on any subset of the observation
dims. The Monte-Carlo match_antecedent is the reference throughout.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fuzzy_pomdp.fuzzy import FuzzyClause, FuzzyRule, MembershipFunction
from fuzzy_pomdp.fuzzy_map import (
    FuzzyMapConfig,
    _expectation_table,
    match_antecedent,
    matchant_matrix,
)
from fuzzy_pomdp.model import PomdpModel

from conftest import make_fuzzy

# derandomized so that the Monte-Carlo comparisons see the same draws on
# every run; no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    num_states = draw(st.integers(1, 3))
    num_actions = draw(st.integers(1, 3))
    obs_dim = draw(st.integers(1, 3))
    means = draw(arrays(float, (num_states, obs_dim), elements=_floats(-1.5, 1.5)))
    factors = draw(arrays(float, (num_states, obs_dim, obs_dim), elements=_floats(-1.0, 1.0)))
    covs = factors @ factors.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1)) + 0.05 * np.eye(obs_dim)
    rows = draw(arrays(float, (num_states, num_actions, num_states),
                       elements=_floats(0.01, 1.0)))
    return PomdpModel(num_states, num_actions, obs_dim,
                      transitions=rows / rows.sum(axis=2, keepdims=True),
                      obs_means=means, obs_covs=covs)


@st.composite
def terms(draw, shapes):
    shape = draw(st.sampled_from(shapes))
    if shape == "gaussian":
        return MembershipFunction("gaussian", (draw(_floats(-2.0, 2.0)), draw(_floats(0.1, 1.5))))
    # breakpoints on a 0.1 grid: coincident ones make vertical edges, and no
    # edge is so narrow that its slope overflows
    points = sorted(draw(st.lists(st.integers(-20, 20), min_size=3, max_size=3)))
    return MembershipFunction("triangular", tuple(p / 10 for p in points))


@st.composite
def cases(draw, shapes=("gaussian",), tnorms=("product",)):
    """A model plus a rule base over the same observation and action spaces."""
    model = draw(models())
    rules = []
    for _ in range(draw(st.integers(1, 5))):
        dims = draw(st.lists(st.integers(0, model.obs_dim - 1), unique=True,
                             max_size=model.obs_dim))
        clauses = [FuzzyClause(dim=d, term=draw(terms(shapes)), var_name=f"x{d}",
                               term_label=f"t{i}_{d}")
                   for i, d in enumerate(dims)]
        consequent = draw(arrays(float, (model.obs_dim, model.obs_dim + 1),
                                 elements=_floats(-2.0, 2.0)))
        action = draw(st.none() | st.integers(0, model.num_actions - 1))
        rules.append(FuzzyRule(clauses=tuple(clauses), consequent=consequent, action=action))
    fuzzy = make_fuzzy(rules, model.obs_dim, model.num_actions,
                       tnorm=draw(st.sampled_from(tnorms)))
    return model, fuzzy


def _moment(rule, model, state, power):
    """E[firing^power] for gaussian clauses under the product t-norm, one cell.

    firing^power is again a product of gaussian memberships, with each
    variance divided by power.
    """
    dims = [c.dim for c in rule.clauses]
    centers = np.array([c.term.params[0] for c in rule.clauses])
    var = np.array([c.term.params[1] ** 2 for c in rule.clauses]) / power
    total = np.diag(var) + model.obs_covs[state][np.ix_(dims, dims)]
    diff = model.obs_means[state][dims] - centers
    return math.sqrt(var.prod() / np.linalg.det(total)) * math.exp(
        -0.5 * diff @ np.linalg.inv(total) @ diff)


def _cells(model, fuzzy):
    for s in range(model.num_states):
        for a in range(model.num_actions):
            for r, rule in enumerate(fuzzy.rules):
                yield s, a, r, rule


@PROPERTY
@given(cases())
def test_closed_form_agrees_with_monte_carlo(case):
    model, fuzzy = case
    cfg = FuzzyMapConfig(matchant_samples=20_000, seed=3)
    mat = matchant_matrix(model, fuzzy, cfg)
    for s, a, r, rule in _cells(model, fuzzy):
        if not rule.clauses or (rule.action is not None and rule.action != a):
            continue
        mean = _moment(rule, model, s, 1)
        se = math.sqrt(max(_moment(rule, model, s, 2) - mean ** 2, 0.0)
                       / cfg.matchant_samples)
        got = match_antecedent(s, a, r, fuzzy, model, cfg)
        assert abs(mat[s, a, r] - got) < 5.0 * se + 1e-12, (s, a, r, mat[s, a, r], got, se)


@PROPERTY
@given(cases(shapes=("gaussian", "triangular"), tnorms=("product", "minimum")))
def test_gated_cells_are_zero_and_empty_antecedents_one(case):
    model, fuzzy = case
    mat = matchant_matrix(model, fuzzy, FuzzyMapConfig(matchant_samples=16))
    for s, a, r, rule in _cells(model, fuzzy):
        if rule.action is not None and rule.action != a:
            assert mat[s, a, r] == 0.0
        elif not rule.clauses:
            assert mat[s, a, r] == 1.0
        else:
            assert 0.0 <= mat[s, a, r] <= 1.0


@PROPERTY
@given(cases(shapes=("gaussian", "triangular"), tnorms=("product", "minimum")),
       st.integers(0, 2**31 - 1), st.integers(0, 50))
def test_monte_carlo_cells_are_bit_identical(case, seed, iteration):
    model, fuzzy = case
    cfg = FuzzyMapConfig(matchant_samples=64, seed=seed)
    mat = matchant_matrix(model, fuzzy, cfg, iteration)
    for s, a, r, rule in _cells(model, fuzzy):
        if fuzzy.tnorm == "product" and all(c.term.shape == "gaussian" for c in rule.clauses):
            continue
        assert mat[s, a, r] == match_antecedent(s, a, r, fuzzy, model, cfg, iteration)


@PROPERTY
@given(cases())
def test_expectation_table_matches_per_rule_predict(case):
    model, fuzzy = case
    table = _expectation_table(model, fuzzy)
    want = np.array([[rule.predict(model.obs_means[s]) for rule in fuzzy.rules]
                     for s in range(model.num_states)])
    assert table.shape == want.shape
    assert np.abs(table - want).max() <= 1e-12
