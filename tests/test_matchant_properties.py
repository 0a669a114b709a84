"""Property tests for antecedent matching, the consequent table and the
rule pseudo-counts.

Random models carry full SPD covariances; random rule bases mix action
gates, empty antecedents and clauses on any subset of the observation
dims. The Monte-Carlo match_antecedent is the reference throughout.
"""
import math

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from fuzzy_pomdp.fuzzy import FuzzyClause, FuzzyRule, MembershipFunction
from fuzzy_pomdp.fuzzy_map import (
    FuzzyMapConfig,
    _expectation_table,
    compute_from_matchant,
    match_antecedent,
    matchant_matrix,
)
from fuzzy_pomdp.model import PomdpModel

from conftest import make_fuzzy


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
    for r in range(draw(st.integers(1, 5))):
        dims = draw(st.lists(st.integers(0, model.obs_dim - 1), unique=True,
                             max_size=model.obs_dim))
        clauses = [FuzzyClause(dim=d, term=draw(terms(shapes)), term_label=f"r{r}_{d}")
                   for d in dims]
        consequent = draw(arrays(float, (model.obs_dim, model.obs_dim + 1),
                                 elements=_floats(-2.0, 2.0)))
        action = draw(st.none() | st.integers(0, model.num_actions - 1))
        rules.append(FuzzyRule(clauses=tuple(clauses), consequent=consequent, action=action))
    fuzzy = make_fuzzy(rules, model.obs_dim, model.num_actions,
                       tnorm=draw(st.sampled_from(tnorms)))
    return model, fuzzy


@st.composite
def shared_cases(draw, shapes=("gaussian",), tnorms=("product",)):
    """Like cases(), but every rule takes its clause dims from a pool of one
    to three tuples, a tuple and its reverse among them at times, and each
    clause its term from a pool of one or two per dim, so that rules share
    antecedents, and groups share dims in another order."""
    model = draw(models())
    dim_tuples = draw(st.lists(
        st.lists(st.integers(0, model.obs_dim - 1), unique=True, max_size=model.obs_dim),
        min_size=1, max_size=3))
    if draw(st.booleans()):
        dim_tuples.append(dim_tuples[0][::-1])
    pool = [draw(st.lists(terms(shapes), min_size=1, max_size=2)) for _ in range(model.obs_dim)]
    rules = []
    for _ in range(draw(st.integers(1, 8))):
        clauses = []
        for d in draw(st.sampled_from(dim_tuples)):
            j = draw(st.integers(0, len(pool[d]) - 1))
            clauses.append(FuzzyClause(dim=d, term=pool[d][j], term_label=f"t{j}"))
        consequent = draw(arrays(float, (model.obs_dim, model.obs_dim + 1),
                                 elements=_floats(-2.0, 2.0)))
        action = draw(st.none() | st.integers(0, model.num_actions - 1))
        rules.append(FuzzyRule(clauses=tuple(clauses), consequent=consequent, action=action))
    fuzzy = make_fuzzy(rules, model.obs_dim, model.num_actions,
                       tnorm=draw(st.sampled_from(tnorms)))
    return model, fuzzy


@given(shared_cases(shapes=("gaussian", "triangular"), tnorms=("product", "minimum")))
def test_rule_tables_equal_the_expressions_they_replace(case):
    _, fuzzy = case
    tables = fuzzy.tables
    columns = tables.antecedent_columns.tolist()
    closed_form = [r for r, rule in enumerate(fuzzy.rules) if rule.clauses
                   and fuzzy.tnorm == "product"
                   and all(c.term.shape == "gaussian" for c in rule.clauses)]
    # each group's (rules, antecedent rows), read from antecedent_columns
    members, start = [], 0
    for group in tables.gaussian_groups:
        stop = start + len(group.centers)
        rules = [r for r, col in enumerate(columns) if start <= col < stop]
        rows = [columns[r] - start for r in rules]
        members.append((rules, rows))
        start = stop
        # the group holds the closed-form rules on its dims, and each rule's
        # antecedent row its own clauses' centers and widths
        assert rules == [r for r in closed_form
                         if [c.dim for c in fuzzy.rules[r].clauses] == group.dims.tolist()]
        var = np.diagonal(group.variance_diagonals, axis1=1, axis2=2)
        for r, row in zip(rules, rows):
            clauses = fuzzy.rules[r].clauses
            assert group.centers[row].tolist() == [c.term.params[0] for c in clauses]
            assert var[row].tolist() == [c.term.params[1] ** 2 for c in clauses]
        distinct = {(c.tobytes(), v.tobytes()) for c, v in zip(group.centers, var)}
        assert len(distinct) == len(group.centers) == len(set(rows))
        assert np.array_equal(group.variance_diagonals[None],
                              var[None, :, :, None] * np.eye(len(group.dims)))
        assert np.array_equal(group.variance_products, var.prod(axis=1))
        for array in (group.dims, group.centers, group.variance_diagonals,
                      group.variance_products):
            assert not array.flags.writeable
    assert sorted(r for rules, _ in members for r in rules) == closed_form
    # the flattened consequents: the matrix _expectation_table multiplied by
    obs_dim = fuzzy.obs_dim
    matrix = tables.consequent_matrix
    assert matrix.tobytes("A") == tables.consequents.reshape(-1, obs_dim + 1).T.tobytes("A")
    assert matrix.strides == tables.consequents.reshape(-1, obs_dim + 1).T.strides
    assert np.array_equal(matrix.T.reshape(-1, obs_dim, obs_dim + 1),
                          [rule.consequent for rule in fuzzy.rules])
    # the strength table's columns: gathering a table of made-up group
    # strengths through them gives what the ones fill, the per-group
    # scatter and the action gate gave
    num_states = 2
    widths = [len(group.centers) for group in tables.gaussian_groups]
    assert tables.strength_width == sum(widths)
    # (no made-up strength is 0 or 1, so no column passes for a constant one)
    parts = [np.arange(num_states * w, dtype=float).reshape(num_states, w) + 2 + 100 * g
             for g, w in enumerate(widths)]
    table = np.concatenate(parts + [np.tile([1.0, 0.0], (num_states, 1))], axis=1)
    strength = np.ones((num_states, len(fuzzy.rules)))
    for (rules, rows), part in zip(members, parts):
        strength[:, rules] = part[:, rows]
    assert np.array_equal(table[:, tables.antecedent_columns], strength)
    # a rule outside every group, Monte-Carlo or empty, reads the ones column
    assert [r for r, col in enumerate(columns) if col == tables.strength_width] == [
        r for r in range(len(fuzzy.rules)) if r not in closed_form]
    assert not tables.antecedent_columns.flags.writeable
    assert not matrix.flags.writeable
    # the model's action count may exceed the rule base's (1 to 3 here)
    actions = tables.actions
    for num_actions in (1, 2, 3):
        gate = (actions < 0) | (actions == np.arange(num_actions)[:, None])
        columns = tables.cell_columns(num_actions)
        assert np.array_equal(table.take(columns, 1),
                              np.where(gate[None], strength[:, None, :], 0.0))
        assert columns is tables.cell_columns(num_actions)
        assert not columns.flags.writeable


def per_rule_matchant(model, fuzzy):
    """matchant_matrix for a rule base of Gaussian clauses under the product
    t-norm, computed as it was before rules shared antecedents: one (S, G,
    k, k) solve and det per clause-dim tuple, one matrix per rule."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for r, rule in enumerate(fuzzy.rules):
        if rule.clauses:
            groups.setdefault(tuple(c.dim for c in rule.clauses), []).append(r)
    strength = np.ones((model.num_states, len(fuzzy.rules)))
    for dims, rules in groups.items():
        dims = np.array(dims)
        params = np.array([[c.term.params for c in fuzzy.rules[r].clauses] for r in rules])
        variances = params[..., 1] ** 2
        cov = model.obs_covs[:, dims][:, :, dims]
        mat = cov[:, None] + (variances[:, :, None] * np.eye(len(dims)))[None]
        diff = model.obs_means[:, None, dims] - params[..., 0][None]
        quad = np.einsum("sgk,sgk->sg", diff, np.linalg.solve(mat, diff[..., None])[..., 0])
        strength[:, rules] = (np.sqrt(variances.prod(axis=1) / np.linalg.det(mat))
                              * np.exp(-0.5 * quad))
    actions = np.array([-1 if rule.action is None else rule.action for rule in fuzzy.rules])
    gate = (actions < 0) | (actions == np.arange(model.num_actions)[:, None])
    return np.where(gate[None], strength[:, None, :], 0.0)


@given(shared_cases())
def test_shared_antecedents_match_bit_for_bit_as_one_matrix_per_rule(case):
    model, fuzzy = case
    got = matchant_matrix(model, fuzzy, FuzzyMapConfig())
    want = per_rule_matchant(model, fuzzy)
    assert got.tobytes() == want.tobytes()


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


@given(cases())
def test_expectation_table_matches_per_rule_predict(case):
    # each rule's affine consequent, c0 + C @ mean, applied to each state's mean
    model, fuzzy = case
    table = _expectation_table(model, fuzzy)
    want = np.array([[rule.consequent[:, 0] + rule.consequent[:, 1:] @ model.obs_means[s]
                      for rule in fuzzy.rules] for s in range(model.num_states)])
    assert table.shape == want.shape
    assert np.abs(table - want).max() <= 1e-12


@given(cases(shapes=("gaussian", "triangular"), tnorms=("product", "minimum")))
def test_pseudo_counts_conserve_match_mass_and_are_non_negative(case):
    # each source state's transition row sums to 1, so the observation
    # weight credited to landing states adds up to the total match mass
    model, fuzzy = case
    matchant = matchant_matrix(model, fuzzy, FuzzyMapConfig(matchant_samples=64, seed=5))
    counts = compute_from_matchant(model, fuzzy, matchant)
    assert abs(counts.obs_weight.sum() - matchant.sum()) <= 1e-9
    assert np.all(counts.trans >= 0.0) and np.all(counts.obs_weight >= 0.0)
    assert np.all(np.diagonal(counts.obs_outer, axis1=1, axis2=2) >= 0.0)
