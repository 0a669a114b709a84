"""Membership functions, rule firing, and weighted-average inference."""
import math
import re

import numpy as np
import pytest

from fuzzy_pomdp.fuzzy import (
    FuzzyClause,
    FuzzyModel,
    FuzzyRule,
    FuzzyVariable,
    MembershipFunction,
    antecedent_strengths,
    fuzzy_model_from_dict,
    fuzzy_model_to_dict,
    infer,
    load_fuzzy_model,
    membership,
    save_fuzzy_model,
    validate_fuzzy_dict,
)
from fuzzy_pomdp.harness import asset_path

from conftest import (
    affine_rule,
    constant_rule,
    gauss_clause,
    gauss_mf,
    identity_rule,
    make_fuzzy,
    random_fuzzy,
)


# -------------------------------------------------------------- memberships

def test_triangular_membership():
    tri = MembershipFunction("triangular", (0.0, 0.5, 1.0))
    assert membership(tri, 0.5) == 1.0
    assert abs(membership(tri, 0.25) - 0.5) < 1e-12
    assert membership(tri, -0.1) == 0.0
    assert membership(tri, 1.1) == 0.0


def test_gaussian_membership():
    g = gauss_mf(0.5, 0.2)
    assert membership(g, 0.5) == 1.0
    assert abs(membership(g, 0.7) - math.exp(-0.5)) < 1e-12
    assert abs(membership(g, 0.3) - math.exp(-0.5)) < 1e-12


def test_trapezoid_membership():
    trap = MembershipFunction("trapezoidal", (0.0, 0.2, 0.6, 1.0))
    assert membership(trap, 0.4) == 1.0
    assert abs(membership(trap, 0.1) - 0.5) < 1e-12
    assert abs(membership(trap, 0.8) - 0.5) < 1e-12
    assert membership(trap, -0.5) == 0.0


def test_degenerate_triangular_is_crisp_indicator():
    crisp = MembershipFunction("triangular", (2.0, 2.0, 2.0))
    assert membership(crisp, 2.0) == 1.0
    assert membership(crisp, 1.0) == 0.0
    assert membership(crisp, 2.5) == 0.0


def test_a_triangle_is_the_trapezoid_with_its_peak_as_both_shoulders():
    x = np.concatenate([np.linspace(-1.5, 2.5, 401), [0.0, 1e-310, 0.3, 1.0]])
    for a, b, c in [(0.0, 0.5, 1.0), (-1.0, 0.3, 0.4), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0),
                    (2.0, 2.0, 2.0), (0.0, 1e-310, 1.0)]:
        tri = MembershipFunction("triangular", (a, b, c))
        trap = MembershipFunction("trapezoidal", (a, b, b, c))
        assert np.array_equal(membership(tri, x), membership(trap, x))
        assert [membership(tri, v) for v in x[::40]] == [membership(trap, v) for v in x[::40]]


def test_subnormal_width_edges_do_not_overflow():
    # an edge narrower than ~1e-308 once overflowed the slope (x - lo) / width
    x = np.array([-1.0, 0.0, 5e-311, 1e-310, 0.5, 1.0, 2.0])
    with np.errstate(all="raise"):
        up = membership(MembershipFunction("triangular", (0.0, 1e-310, 1.0)), x)
        down = membership(MembershipFunction("triangular", (-1.0, 0.0, 1e-310)), x)
        trap = membership(MembershipFunction("trapezoidal", (0.0, 1e-310, 0.5, 1.0)), x)
    assert np.allclose(up, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0])
    assert np.allclose(down, [0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(trap, [0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0])


def test_membership_rejects_unknown_shape():
    with pytest.raises(ValueError):
        membership(MembershipFunction("sigmoid", (0.0, 1.0)), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_terms_consequents_and_ranges_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="must be finite"):
        MembershipFunction("gaussian", (0.5, bad))
    with pytest.raises(ValueError, match="must be finite"):
        MembershipFunction("triangular", (0.0, bad, 1.0))
    with pytest.raises(ValueError, match="must be finite"):
        constant_rule((bad, 0.0), 2)
    with pytest.raises(ValueError, match="must be finite"):
        FuzzyVariable(name="x", range=(0.0, bad))


def test_fuzzy_model_from_dict_names_every_non_finite_entry():
    data = fuzzy_model_to_dict(load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json")))
    data["variables"][0]["terms"][1]["params"][1] = math.nan
    data["variables"][1]["range"][0] = -math.inf
    data["rules"][2]["consequent"][1][0] = math.inf
    name0, term = data["variables"][0]["name"], data["variables"][0]["terms"][1]["label"]
    name1 = data["variables"][1]["name"]
    want = [
        f"variable {name0!r} term {term!r}: params[i=1] is not finite (nan)",
        f"variable {name1!r}: range[i=0] is not finite (-inf)",
        "rule 2: consequent[out=1, coef=0] is not finite (inf)",
    ]
    assert validate_fuzzy_dict(data) == want
    with pytest.raises(ValueError) as info:
        fuzzy_model_from_dict(data)
    assert str(info.value) == "; ".join(want)


# ------------------------------------------------------------- rule firing

def _two_clause_rule(m0: float, m1: float, action=None):
    # gaussian memberships hit exactly m at one sigma offsets; easier to pin
    # exact values with crisp-free analytic placement
    c0 = gauss_clause(0, 0.0, 1.0)
    c1 = gauss_clause(1, 0.0, 1.0)
    x0 = math.sqrt(-2.0 * math.log(m0))
    x1 = math.sqrt(-2.0 * math.log(m1))
    rule = constant_rule((0.0, 0.0), 2, action=action, clauses=(c0, c1))
    return rule, np.array([x0, x1])


def test_firing_strength_product_and_min():
    rule, obs = _two_clause_rule(0.8, 0.5)
    assert abs(antecedent_strengths(rule, obs, "product")[0] - 0.4) < 1e-12
    assert abs(antecedent_strengths(rule, obs, "min")[0] - 0.5) < 1e-12


def test_firing_strength_action_gate():
    # the rule's antecedent fires at 0.4, but only under action 1; under
    # action 0 no rule fires and inference returns the observation
    rule, obs = _two_clause_rule(0.8, 0.5, action=1)
    fz = make_fuzzy([rule], obs_dim=2)
    assert np.array_equal(infer(fz, obs, 0), obs)
    assert np.array_equal(infer(fz, obs, 1), [0.0, 0.0])


def test_firing_strength_empty_antecedent_is_one():
    rule = constant_rule((0.0,), 1)
    assert np.array_equal(antecedent_strengths(rule, np.array([123.0]), "product"), [1.0])


def test_clause_memberships_and_batch():
    rule, obs = _two_clause_rule(0.8, 0.5)
    ms = [membership(c.term, obs[c.dim]) for c in rule.clauses]
    assert np.allclose(ms, [0.8, 0.5])
    batch = antecedent_strengths(rule, np.stack([obs, obs * 0.0]), "product")
    assert batch.shape == (2,)
    assert abs(batch[0] - 0.4) < 1e-12
    assert batch[1] == 1.0  # both clauses at their centers
    free = constant_rule((0.0, 0.0), 2)
    assert np.all(antecedent_strengths(free, np.zeros((3, 2)), "product") == 1.0)


# ---------------------------------------------------------------- inference

def test_infer_single_constant_rule_passthrough():
    fz = make_fuzzy([constant_rule((0.3, 0.7), 2)], obs_dim=2)
    out = infer(fz, np.array([10.0, -4.0]), 0)
    assert np.allclose(out, [0.3, 0.7])


def test_infer_symmetric_rules_average():
    # two rules equally activated at the midpoint: output is the plain mean
    r_lo = constant_rule((0.0,), 1, clauses=(gauss_clause(0, 0.2, 0.1),))
    r_hi = constant_rule((1.0,), 1, clauses=(gauss_clause(0, 0.8, 0.1),))
    fz = make_fuzzy([r_lo, r_hi], obs_dim=1)
    out = infer(fz, np.array([0.5]), 0)
    assert abs(out[0] - 0.5) < 1e-12


def test_infer_hand_unrolled_three_rules():
    obs = np.array([0.4, 0.6])
    r1 = affine_rule([0.1, 0.0], [[0.5, 0.0], [0.0, 0.5]],
                     clauses=(gauss_clause(0, 0.3, 0.2),))
    r2 = constant_rule((1.0, 0.0), 2,
                       clauses=(gauss_clause(1, 0.5, 0.4),))
    r3 = identity_rule(2)
    fz = make_fuzzy([r1, r2, r3], obs_dim=2)

    w1 = math.exp(-0.5 * ((0.4 - 0.3) / 0.2) ** 2)
    w2 = math.exp(-0.5 * ((0.6 - 0.5) / 0.4) ** 2)
    w3 = 1.0
    y1 = np.array([0.1 + 0.5 * 0.4, 0.5 * 0.6])
    y2 = np.array([1.0, 0.0])
    y3 = obs
    expect = (w1 * y1 + w2 * y2 + w3 * y3) / (w1 + w2 + w3)
    assert np.allclose(infer(fz, obs, 0), expect, atol=1e-12)


def test_infer_output_is_convex_combination():
    # weighted-average inference can never leave the hull of the rule outputs
    rng = np.random.default_rng(31)
    for _ in range(300):
        fz = random_fuzzy(rng, obs_dim=2, num_rules=int(rng.integers(1, 5)))
        obs = rng.normal(size=2)
        a = int(rng.integers(2))
        outs = []
        for rule in fz.rules:
            if rule.action is not None and rule.action != a:
                continue
            if antecedent_strengths(rule, obs, fz.tnorm)[0] == 0.0:
                continue
            bias = np.array([row[0] for row in rule.consequent])
            mat = np.array([row[1:] for row in rule.consequent])
            outs.append(bias + mat @ obs)
        got = infer(fz, obs, a)
        if not outs:
            assert np.allclose(got, obs)  # identity fallback
            continue
        lo = np.min(outs, axis=0) - 1e-9
        hi = np.max(outs, axis=0) + 1e-9
        assert np.all(got >= lo) and np.all(got <= hi)


def test_infer_invariant_to_rule_duplication():
    # duplicating every rule rescales all weights by 2; the average is unmoved
    rng = np.random.default_rng(32)
    for _ in range(50):
        fz = random_fuzzy(rng, obs_dim=2, num_rules=3)
        doubled = FuzzyModel(obs_dim=2, num_actions=fz.num_actions,
                             rules=fz.rules + fz.rules, tnorm=fz.tnorm,
                             variables=fz.variables)
        obs = rng.normal(size=2)
        a = int(rng.integers(2))
        assert np.allclose(infer(fz, obs, a), infer(doubled, obs, a),
                           atol=1e-12)


def test_infer_zero_firing_modes():
    dead = constant_rule((9.0,), 1, action=1)  # never fires under action 0
    fz = make_fuzzy([dead], obs_dim=1)
    obs = np.array([0.25])
    assert np.allclose(infer(fz, obs, 0), obs)


def test_infer_zero_firing_is_per_row_in_a_batch():
    dead = constant_rule((9.0,), 1, action=1)  # fires under action 1 only
    fz = make_fuzzy([dead], obs_dim=1)
    obs = np.array([[0.25], [0.5], [0.75]])
    got = infer(fz, obs, np.array([1, 0, 0]))
    assert np.array_equal(got, [[9.0], [0.5], [0.75]])
    with pytest.raises(ValueError, match="one action per observation"):
        infer(fz, obs, 0)


def scalar_infer(model, obs, action):
    """The weighted average computed one rule at a time, for one point."""
    def strength(rule):
        if rule.action is not None and rule.action != action:
            return 0.0
        if not rule.clauses:
            return 1.0
        # a one-element array, as in a batch: a scalar can differ in the last ulp
        values = [membership(c.term, obs[c.dim:c.dim + 1])[0] for c in rule.clauses]
        return float(np.prod(values) if model.tnorm == "product" else np.min(values))

    weights = np.array([strength(rule) for rule in model.rules])
    if weights.sum() <= 0.0:
        return obs.copy()
    outputs = np.array([rule.consequent[:, 0] + rule.consequent[:, 1:] @ obs
                        for rule in model.rules])
    return weights @ outputs / weights.sum()


@pytest.mark.parametrize("name", ["expert_fuzzy_synthetic.json", "mg_fuzzy_placeholder.json",
                                  "random-minimum"])
def test_batched_infer_equals_the_scalar_loop_bit_for_bit(name):
    rng = np.random.default_rng(33)
    if name == "random-minimum":
        fz = random_fuzzy(rng, obs_dim=2, num_rules=5, tnorm="minimum")
    else:
        fz = load_fuzzy_model(asset_path(name))
    for size in (1, 2, 17, 450):
        obs = rng.uniform(-0.2, 1.2, size=(size, fz.obs_dim))
        actions = rng.integers(fz.num_actions, size=size)
        want = np.array([scalar_infer(fz, o, int(a)) for o, a in zip(obs, actions)])
        assert np.array_equal(infer(fz, obs, actions), want)
        assert np.array_equal(np.array([infer(fz, o, int(a)) for o, a in zip(obs, actions)]),
                              want)


# ------------------------------------------------------------ serialization

def test_rule_tables_are_built_once_and_split_the_rules():
    tri = FuzzyClause(dim=1, term=MembershipFunction("triangular", (0.0, 0.5, 1.0)),
                      term_label="mid")
    rules = [
        affine_rule([0.1, 0.2], np.eye(2), action=1,
                    clauses=[gauss_clause(0, 0.2, 0.3), gauss_clause(1, 0.4, 0.5)]),
        constant_rule((0.3, 0.4), 2),
        constant_rule((0.5, 0.6), 2, action=0, clauses=[tri]),
        identity_rule(2, clauses=[gauss_clause(0, 0.7, 0.2), gauss_clause(1, 0.1, 0.6)]),
        identity_rule(2, clauses=[gauss_clause(1, 0.9, 0.4)]),
    ]
    fz = make_fuzzy(rules, obs_dim=2)
    tables = fz.tables
    assert fz.tables is tables
    assert [g.dims.tolist() for g in tables.gaussian_groups] == [[0, 1], [1]]
    # rules 0 and 3 have the first group's two antecedents, rule 4 the
    # second's; the empty rule 1 and the Monte-Carlo rule 2 read the ones column
    assert tables.antecedent_columns.tolist() == [0, 3, 3, 1, 2]
    first = tables.gaussian_groups[0]
    assert np.array_equal(first.centers, [[0.2, 0.4], [0.7, 0.1]])
    assert np.array_equal(np.diagonal(first.variance_diagonals, axis1=1, axis2=2),
                          np.array([[0.3, 0.5], [0.2, 0.6]]) ** 2)
    assert tables.mc_rules == (2,)
    assert tables.actions.tolist() == [1, -1, 0, -1, -1]
    assert np.array_equal(tables.consequents, np.stack([r.consequent for r in rules]))
    assert not tables.consequents.flags.writeable
    # under the minimum t-norm no rule has the closed form
    assert make_fuzzy(rules, obs_dim=2, tnorm="minimum").tables.mc_rules == (0, 2, 3, 4)


def test_fuzzy_model_round_trip(tmp_path, rng0):
    fz = random_fuzzy(rng0, obs_dim=3, num_rules=4)
    p = tmp_path / "fz.json"
    save_fuzzy_model(fz, p)
    back = load_fuzzy_model(p)
    assert back.obs_dim == fz.obs_dim
    assert back.tnorm == fz.tnorm
    assert len(back.rules) == len(fz.rules)
    rng = np.random.default_rng(7)
    for _ in range(20):
        obs = rng.normal(size=3)
        a = int(rng.integers(2))
        assert np.allclose(infer(back, obs, a), infer(fz, obs, a))
    again = fuzzy_model_from_dict(fuzzy_model_to_dict(fz))
    assert len(again.rules) == len(fz.rules)


MID = gauss_mf(0.5, 0.2)
# the variables, rule 1's clause (if any) and the problem of each refused model
REFUSED = {
    "no variables": ((), None, "need one variable entry per observation dimension"),
    "repeated name": ((FuzzyVariable("x", {"mid": MID}), FuzzyVariable("x")), None,
                      "variable names must be distinct, got ['x', 'x']"),
    "missing label": ((FuzzyVariable("x0", {"mid": MID}), FuzzyVariable("x1")),
                      FuzzyClause(0, MID, "high"),
                      "rule 1: variable 'x0' has no term 'high' equal to the clause's term"),
    "label of another term": ((FuzzyVariable("x0", {"mid": MID}), FuzzyVariable("x1")),
                              FuzzyClause(0, gauss_mf(0.5, 0.3), "mid"),
                              "rule 1: variable 'x0' has no term 'mid' equal to the clause's "
                              "term"),
}


@pytest.mark.parametrize("variables, clause, problem", REFUSED.values(), ids=REFUSED)
def test_a_rule_base_names_its_terms_in_one_variable_table(variables, clause, problem):
    # such models used to build, and writing one synthesized a variable
    # table, searched the table for an equal term, or raised only then
    rules = (constant_rule((0.0, 0.0), 2, clauses=(FuzzyClause(0, MID, "mid"),)),
             constant_rule((1.0, 1.0), 2, clauses=(clause,) if clause else ()))
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        FuzzyModel(obs_dim=2, num_actions=1, rules=rules, variables=variables)


def test_a_variable_keeps_the_terms_its_model_checked():
    # a term added, dropped or replaced after a model is built used to
    # break its clause-label check, and then its written file did not load
    terms = {"mid": MID}
    fz = FuzzyModel(obs_dim=1, num_actions=1,
                    rules=(constant_rule((0.0,), 1, clauses=(FuzzyClause(0, MID, "mid"),)),),
                    variables=(FuzzyVariable("x0", terms),))
    written = fuzzy_model_to_dict(fz)
    with pytest.raises(TypeError):
        fz.variables[0].terms["mid"] = gauss_mf(0.5, 0.3)
    with pytest.raises(TypeError):
        del fz.variables[0].terms["mid"]
    terms["mid"] = gauss_mf(0.5, 0.3)
    terms["high"] = gauss_mf(0.9, 0.1)
    assert dict(fz.variables[0].terms) == {"mid": MID}
    assert fuzzy_model_to_dict(fz) == written
    assert fuzzy_model_to_dict(fuzzy_model_from_dict(written)) == written


def test_bundled_assets_load_and_infer():
    for name in ("expert_fuzzy_synthetic.json", "mg_fuzzy_placeholder.json"):
        fz = load_fuzzy_model(asset_path(name))
        out = infer(fz, np.full(fz.obs_dim, 0.5), 0)
        assert out.shape == (fz.obs_dim,)
        assert np.all(np.isfinite(out))
