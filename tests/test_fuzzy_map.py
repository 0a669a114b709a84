"""Rule-conditioned pseudo-counts and the prior-blended EM variant.

match_antecedent is the Monte-Carlo estimator of a rule's expected firing
strength; matchant_matrix uses the exact integral for gaussian memberships
under the product t-norm and the estimator otherwise. With diagonal state
covariances the integral factors per clause (gaussian_match_closed_form),
and those cases anchor the numeric checks here.
"""
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from fuzzy_pomdp.model import (CovarianceError, PomdpModel, Trajectory, gaussian_log_density,
                               model_from_dict, model_to_dict)
from fuzzy_pomdp import em, model as model_module
from fuzzy_pomdp.em import (EmConfig, ForwardBackwardError, SufficientCounts, accumulate_counts,
                            e_step, m_step_standard, run_em)
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.fuzzy_map import (
    FuzzyMapConfig,
    _expectation_table,
    compute_from_matchant,
    m_step_fuzzy_map,
    match_antecedent,
    matchant_matrix,
    run_fuzzy_map_em,
)

from conftest import (
    affine_rule,
    constant_rule,
    gauss_clause,
    identity_rule,
    make_fuzzy,
    random_dataset,
    random_fuzzy,
    random_model,
)


def diag_model(rng, num_states=2, num_actions=2, obs_dim=2) -> PomdpModel:
    """Random model with diagonal covariances (closed-form match integrals)."""
    m = random_model(rng, num_states, num_actions, obs_dim)
    covs = np.stack([np.diag(rng.uniform(0.05, 0.8, size=obs_dim))
                     for _ in range(num_states)])
    return PomdpModel(num_states, num_actions, obs_dim, m.transitions,
                      m.obs_means, covs, m.initial_dist)


def gaussian_match_closed_form(rule, model, state) -> float:
    """E[firing] for gaussian clauses under a diagonal state gaussian.

    Per clause: integral of exp(-(x-c)^2 / (2 s_m^2)) against N(mu, v) is
    s_m / sqrt(s_m^2 + v) * exp(-(c - mu)^2 / (2 (s_m^2 + v))).
    """
    val = 1.0
    for cl in rule.clauses:
        c, sm = cl.term.params
        mu = model.obs_means[state][cl.dim]
        v = model.obs_covs[state][cl.dim, cl.dim]
        val *= sm / math.sqrt(sm ** 2 + v) * math.exp(
            -((c - mu) ** 2) / (2.0 * (sm ** 2 + v)))
    return val


def gaussian_match_se(rule, model, state, n_samples) -> float:
    """Exact standard error of the MC estimator for the same setting."""
    mean = gaussian_match_closed_form(rule, model, state)
    second = 1.0
    for cl in rule.clauses:
        c, sm = cl.term.params
        mu = model.obs_means[state][cl.dim]
        v = model.obs_covs[state][cl.dim, cl.dim]
        second *= sm / math.sqrt(sm ** 2 + 2.0 * v) * math.exp(
            -((c - mu) ** 2) / (sm ** 2 + 2.0 * v))
    var = max(second - mean ** 2, 0.0)
    return math.sqrt(var / n_samples)


# ----------------------------------------------------------- match degree

def test_match_antecedent_empty_clauses_is_exactly_one():
    rng = np.random.default_rng(1)
    m = diag_model(rng)
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2)], obs_dim=2)
    for s in range(2):
        for a in range(2):
            assert match_antecedent(s, a, 0, fz, m, FuzzyMapConfig()) == 1.0


def test_match_antecedent_action_gate_is_exactly_zero():
    rng = np.random.default_rng(2)
    m = diag_model(rng)
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2, action=1)], obs_dim=2)
    assert match_antecedent(0, 0, 0, fz, m, FuzzyMapConfig()) == 0.0
    assert match_antecedent(0, 1, 0, fz, m, FuzzyMapConfig()) > 0.0


def test_match_antecedent_crisp_off_support_is_exactly_zero():
    # degenerate triangular membership is nonzero only at a single point;
    # no sample ever lands there, so the average is exactly zero
    rng = np.random.default_rng(3)
    m = diag_model(rng)
    from fuzzy_pomdp.fuzzy import FuzzyClause, MembershipFunction
    crisp = FuzzyClause(dim=0, term=MembershipFunction(
        "triangular", (99.0, 99.0, 99.0)), term_label="pin")
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2, clauses=(crisp,))],
                    obs_dim=2)
    assert match_antecedent(0, 0, 0, fz, m, FuzzyMapConfig()) == 0.0


def test_match_antecedent_against_closed_form():
    rng = np.random.default_rng(4)
    cfg = FuzzyMapConfig(matchant_samples=20_000, seed=77)
    worst = 0.0
    for trial in range(30):
        m = diag_model(rng, num_states=2, obs_dim=2)
        n_clauses = int(rng.integers(1, 3))
        dims = rng.choice(2, size=n_clauses, replace=False)
        clauses = [gauss_clause(int(d), float(rng.normal(scale=0.7)),
                                float(rng.uniform(0.2, 1.0))) for d in dims]
        fz = make_fuzzy([constant_rule((0.0, 0.0), 2, clauses=clauses)],
                        obs_dim=2)
        s = int(rng.integers(2))
        got = match_antecedent(s, 0, 0, fz, m, cfg)
        want = gaussian_match_closed_form(fz.rules[0], m, s)
        se = gaussian_match_se(fz.rules[0], m, s, cfg.matchant_samples)
        worst = max(worst, abs(got - want) / max(se, 1e-15))
        assert abs(got - want) < 5.0 * se + 1e-12, (trial, got, want, se)
    assert worst > 0.0  # the estimator is random, not secretly closed-form


def test_match_antecedent_error_shrinks_with_sample_count():
    rng = np.random.default_rng(5)
    m = diag_model(rng)
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2,
                                   clauses=(gauss_clause(0, 0.3, 0.3),))],
                    obs_dim=2)
    want = gaussian_match_closed_form(fz.rules[0], m, 0)
    errs = {}
    for n in (250, 16_000):
        sq = []
        for seed in range(40):
            got = match_antecedent(
                0, 0, 0, fz, m, FuzzyMapConfig(matchant_samples=n, seed=seed))
            sq.append((got - want) ** 2)
        errs[n] = math.sqrt(np.mean(sq))
    # 64x the samples cuts RMS error about 8x; demand at least 4x
    assert errs[16_000] < errs[250] / 4.0, errs


def test_match_antecedent_deterministic_and_iteration_keyed():
    rng = np.random.default_rng(6)
    m = diag_model(rng)
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2,
                                   clauses=(gauss_clause(0, 0.1, 0.4),))],
                    obs_dim=2)
    cfg = FuzzyMapConfig(matchant_samples=500, seed=9)
    a = match_antecedent(0, 0, 0, fz, m, cfg, iteration=3)
    b = match_antecedent(0, 0, 0, fz, m, cfg, iteration=3)
    c = match_antecedent(0, 0, 0, fz, m, cfg, iteration=4)
    assert a == b
    assert a != c  # fresh draws each iteration


def test_matchant_matrix_agrees_with_elementwise_calls():
    # gaussian clauses under the product t-norm are matched in closed form:
    # exact against the per-clause formula, and within 5 SE of the
    # Monte-Carlo match_antecedent at a large sample count
    rng = np.random.default_rng(7)
    m = diag_model(rng, num_states=3)
    fz = random_fuzzy(rng, obs_dim=2, num_rules=4)
    cfg = FuzzyMapConfig(matchant_samples=100_000, seed=5)
    mat = matchant_matrix(m, fz, cfg, iteration=2)
    assert mat.shape == (3, 2, 4)
    for s in range(3):
        for a in range(2):
            for r, rule in enumerate(fz.rules):
                if rule.action is not None and rule.action != a:
                    assert mat[s, a, r] == 0.0
                    continue
                want = gaussian_match_closed_form(rule, m, s)
                assert abs(mat[s, a, r] - want) < 1e-12
                se = gaussian_match_se(rule, m, s, cfg.matchant_samples)
                got = match_antecedent(s, a, r, fz, m, cfg, iteration=2)
                assert abs(mat[s, a, r] - got) < 5.0 * se + 1e-12

    # triangular terms and the minimum t-norm keep the Monte-Carlo cells,
    # draw for draw
    from fuzzy_pomdp.fuzzy import FuzzyClause, MembershipFunction
    tri = FuzzyClause(dim=0, term=MembershipFunction("triangular", (-1.0, 0.0, 1.0)),
                      term_label="tri")
    mixed = make_fuzzy([constant_rule((0.0, 0.0), 2, clauses=(tri, gauss_clause(1, 0.2, 0.5))),
                        constant_rule((0.0, 0.0), 2, clauses=(gauss_clause(1, 0.2, 0.5),))],
                       obs_dim=2)
    cfg = FuzzyMapConfig(matchant_samples=200, seed=5)
    mat = matchant_matrix(m, mixed, cfg, iteration=2)
    minimum = make_fuzzy(fz.rules, obs_dim=2, tnorm="minimum")
    mat_min = matchant_matrix(m, minimum, cfg, iteration=2)
    for s in range(3):
        for a in range(2):
            assert mat[s, a, 0] == match_antecedent(s, a, 0, mixed, m, cfg, iteration=2)
            for r in range(4):
                assert mat_min[s, a, r] == match_antecedent(
                    s, a, r, minimum, m, cfg, iteration=2)


@pytest.mark.parametrize("model_dim", [1, 3])
def test_matchant_matrix_refuses_a_rule_base_of_another_obs_dim(model_dim):
    # each group gathers its covariance block at cells laid out for the
    # rule base's obs_dim, so a model of another obs_dim is refused first
    rng = np.random.default_rng(15)
    m = diag_model(rng, num_states=2, obs_dim=model_dim)
    with pytest.raises(ValueError, match=rf"^the fuzzy model has obs_dim 2 but the POMDP "
                                         rf"model has obs_dim {model_dim}$"):
        matchant_matrix(m, random_fuzzy(rng, obs_dim=2), FuzzyMapConfig())


def test_matchant_matrix_rejects_non_positive_definite_covariance():
    # the closed form would still evaluate here; the state density would not
    rng = np.random.default_rng(19)
    m = diag_model(rng)
    covs = m.obs_covs.copy()
    covs[1] = np.array([[1.0, 2.0], [2.0, 1.0]])
    bad = PomdpModel(2, 2, 2, m.transitions, m.obs_means, covs, m.initial_dist)
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2,
                                   clauses=(gauss_clause(0, 0.1, 0.4),))],
                    obs_dim=2)
    with pytest.raises(CovarianceError):
        matchant_matrix(bad, fz, FuzzyMapConfig())


def test_matchant_matrix_rejects_a_nan_covariance_read_from_a_file():
    # the closed form and the cholesky factor of a NaN matrix come out as
    # NaN without an error; the model's emission factor is the check
    data = model_to_dict(diag_model(np.random.default_rng(19)))
    data["obs_covs"][1][0][0] = "nan"  # as write_json stores a NaN
    fz = make_fuzzy([constant_rule((0.0, 0.0), 2,
                                   clauses=(gauss_clause(0, 0.1, 0.4),))],
                    obs_dim=2)
    with pytest.raises(CovarianceError, match=r"^state 1: covariance is not finite"):
        matchant_matrix(model_from_dict(data), fz, FuzzyMapConfig())


# ------------------------------------------------------- rule consequents

def test_consequent_expectation_closed_forms(rng0):
    m = diag_model(rng0)
    const = constant_rule((0.4, -0.2), 2)
    ident = identity_rule(2)
    aff = affine_rule([0.1, 0.2], [[0.3, -0.1], [0.0, 0.5]])
    table = _expectation_table(m, make_fuzzy([const, ident, aff], obs_dim=2))
    assert table.shape == (2, 3, 2)
    for s in range(2):
        mu = m.obs_means[s]
        assert np.allclose(table[s, 0], [0.4, -0.2])
        assert np.allclose(table[s, 1], mu)
        want = np.array([0.1, 0.2]) + np.array(
            [[0.3, -0.1], [0.0, 0.5]]) @ mu
        assert np.allclose(table[s, 2], want)


def test_consequent_expectation_matches_monte_carlo():
    # linearity: E[b + A x] = b + A mu regardless of the covariance
    rng = np.random.default_rng(8)
    m = random_model(rng, obs_dim=2)  # full covariance on purpose
    aff = affine_rule([0.5, -1.0], [[1.2, 0.4], [-0.3, 0.8]])
    s = 1
    samples = rng.multivariate_normal(m.obs_means[s], m.obs_covs[s],
                                      size=200_000)
    mc = (np.array([0.5, -1.0])[None]
          + samples @ np.array([[1.2, 0.4], [-0.3, 0.8]]).T).mean(axis=0)
    table = _expectation_table(m, make_fuzzy([aff], obs_dim=2))
    assert np.allclose(table[s, 0], mc, atol=2e-2)


def consequent_likelihood(y, state, m):
    """Density of a consequent value under a state's observation model."""
    return float(np.exp(gaussian_log_density(y, m.obs_means[state], m.obs_covs[state])))


def test_consequent_likelihood_gaussian_values():
    m = PomdpModel(
        num_states=1, num_actions=1, obs_dim=2,
        transitions=np.ones((1, 1, 1)),
        obs_means=np.zeros((1, 2)),
        obs_covs=np.eye(2)[None],
        initial_dist=np.ones(1),
    )
    at_mean = consequent_likelihood(np.zeros(2), 0, m)
    assert abs(at_mean - 1.0 / (2.0 * math.pi)) < 1e-12
    far = consequent_likelihood(np.full(2, 20.0), 0, m)
    assert 0.0 <= far < 1e-80
    ref = stats.multivariate_normal.pdf([0.3, -0.4], mean=[0.0, 0.0],
                                        cov=np.eye(2))
    assert abs(consequent_likelihood(np.array([0.3, -0.4]), 0, m) - ref) < 1e-12


# ----------------------------------------------------------- pseudo-counts

def test_pseudocounts_empty_rule_base_is_all_zero(rng0):
    m = diag_model(rng0)
    fz = make_fuzzy([], obs_dim=2)
    counts = compute_from_matchant(m, fz, matchant_matrix(m, fz, FuzzyMapConfig()))
    assert np.all(counts.trans == 0.0)
    assert np.all(counts.obs_weight == 0.0) and np.all(counts.obs_sum == 0.0)
    assert np.all(counts.obs_outer == 0.0)


def test_transition_pseudocounts_single_clause_free_rule():
    # one always-firing rule with constant consequent c: every (s, a) row
    # becomes (N(c | state t))_t exactly
    trans = np.array([[[0.7, 0.3]], [[0.4, 0.6]]])
    m = PomdpModel(
        num_states=2, num_actions=1, obs_dim=1,
        transitions=trans,
        obs_means=np.array([[0.0], [2.0]]),
        obs_covs=np.array([[[1.0]], [[0.25]]]),
        initial_dist=np.array([0.5, 0.5]),
    )
    c = 1.2
    fz = make_fuzzy([constant_rule((c,), 1)], obs_dim=1, num_actions=1)
    got = compute_from_matchant(m, fz, matchant_matrix(m, fz, FuzzyMapConfig())).trans
    lik = np.array([stats.norm.pdf(c, 0.0, 1.0), stats.norm.pdf(c, 2.0, 0.5)])
    for s in range(2):
        assert np.allclose(got[s, 0], lik, atol=1e-12)


def test_observation_pseudocounts_single_clause_free_rule():
    trans = np.array([[[0.7, 0.3]], [[0.4, 0.6]]])
    m = PomdpModel(
        num_states=2, num_actions=1, obs_dim=1,
        transitions=trans,
        obs_means=np.array([[0.0], [2.0]]),
        obs_covs=np.array([[[1.0]], [[0.25]]]),
        initial_dist=np.array([0.5, 0.5]),
    )
    c = 1.2
    fz = make_fuzzy([constant_rule((c,), 1)], obs_dim=1, num_actions=1)
    counts = compute_from_matchant(m, fz, matchant_matrix(m, fz, FuzzyMapConfig()))
    w, s_, o = counts.obs_weight, counts.obs_sum, counts.obs_outer
    # matchant is 1 everywhere, so landing weights are column sums of T
    want_w = trans[:, 0, :].sum(axis=0)
    assert np.allclose(w, want_w, atol=1e-12)
    assert np.allclose(s_[:, 0], want_w * c, atol=1e-12)
    assert np.allclose(o[:, 0, 0], want_w * c * c, atol=1e-12)


def pseudocounts_oracle(m, fz, mat) -> SimpleNamespace:
    """compute_from_matchant written as explicit loops over (state, action,
    rule, landing state); the four counts as attributes, as
    SufficientCounts holds them."""
    S, A, R, D = m.num_states, m.num_actions, len(fz.rules), m.obs_dim
    y_star = np.array([[r.consequent[:, 0] + r.consequent[:, 1:] @ m.obs_means[s]
                        for r in fz.rules] for s in range(S)]).reshape(S, R, D)
    nt = np.zeros((S, A, S))
    w = np.zeros(S)
    s_sum = np.zeros((S, D))
    s_outer = np.zeros((S, D, D))
    for s in range(S):
        for a in range(A):
            for r in range(R):
                for t in range(S):
                    nt[s, a, t] += mat[s, a, r] * consequent_likelihood(y_star[s, r], t, m)
                    strength = m.transitions[s, a, t] * mat[s, a, r]
                    w[t] += strength
                    s_sum[t] += strength * y_star[s, r]
                    s_outer[t] += strength * np.outer(y_star[s, r], y_star[s, r])
    return SimpleNamespace(trans=nt, obs_weight=w, obs_sum=s_sum, obs_outer=s_outer)


def test_pseudocounts_match_flat_loop_oracle():
    # einsum path vs explicit quadruple loop on random models and rules
    rng = np.random.default_rng(9)
    for _ in range(10):
        S, A, R, D = 3, 2, 3, 2
        m = diag_model(rng, num_states=S, num_actions=A, obs_dim=D)
        fz = random_fuzzy(rng, obs_dim=D, num_actions=A, num_rules=R)
        cfg = FuzzyMapConfig(matchant_samples=50, seed=3)
        mat = matchant_matrix(m, fz, cfg)
        got = compute_from_matchant(m, fz, mat)
        want = pseudocounts_oracle(m, fz, mat)
        for name in ("trans", "obs_weight", "obs_sum", "obs_outer"):
            assert np.allclose(getattr(got, name), getattr(want, name), atol=1e-10), name


def test_observation_pseudocount_mass_conservation():
    # total landing weight equals the total antecedent match mass because
    # each transition row sums to one
    rng = np.random.default_rng(10)
    for _ in range(20):
        S = int(rng.integers(1, 4))
        A = int(rng.integers(1, 3))
        m = diag_model(rng, num_states=S, num_actions=A)
        fz = random_fuzzy(rng, obs_dim=2, num_actions=A,
                          num_rules=int(rng.integers(1, 5)))
        cfg = FuzzyMapConfig(matchant_samples=64, seed=11)
        mat = matchant_matrix(m, fz, cfg)
        w = compute_from_matchant(m, fz, mat).obs_weight
        assert abs(w.sum() - mat.sum()) < 1e-9
        assert np.all(w >= 0.0)


def test_pseudocounts_nonnegative(rng0):
    m = diag_model(rng0, num_states=3)
    fz = random_fuzzy(rng0, obs_dim=2, num_rules=5)
    counts = compute_from_matchant(
        m, fz, matchant_matrix(m, fz, FuzzyMapConfig(matchant_samples=64)))
    assert np.all(counts.trans >= 0.0)
    assert np.all(counts.obs_weight >= 0.0)
    diag = np.diagonal(counts.obs_outer, axis1=1, axis2=2)
    assert np.all(diag >= -1e-12)


# ------------------------------------------------------- blended M-step

def test_m_step_fuzzy_map_zero_lambda_reduces_to_standard(rng0):
    m = diag_model(rng0, num_states=2)
    ds = random_dataset(rng0, m, n=3, horizon=5)
    from fuzzy_pomdp.em import accumulate_counts, e_step
    posts, _ = e_step(m, ds)
    empirical = accumulate_counts(ds, posts, m)
    fz = random_fuzzy(rng0, obs_dim=2)
    fuzzy_counts = compute_from_matchant(
        m, fz, matchant_matrix(m, fz, FuzzyMapConfig(matchant_samples=32)))
    plain = m_step_standard(empirical, m, EmConfig())
    blended = m_step_fuzzy_map(empirical, fuzzy_counts, m,
                               FuzzyMapConfig(lambda_t=0.0, lambda_o=0.0))
    assert np.array_equal(blended.transitions, plain.transitions)
    assert np.array_equal(blended.obs_means, plain.obs_means)
    assert np.array_equal(blended.obs_covs, plain.obs_covs)


def test_m_step_fuzzy_map_prior_only():
    trans = np.array([[[0.7, 0.3]], [[0.4, 0.6]]])
    prev = PomdpModel(
        num_states=2, num_actions=1, obs_dim=1,
        transitions=trans,
        obs_means=np.array([[0.0], [2.0]]),
        obs_covs=np.array([[[1.0]], [[0.25]]]),
        initial_dist=np.array([0.5, 0.5]),
    )
    pseudo = SufficientCounts(
        trans=np.array([[[2.0, 6.0]], [[1.0, 3.0]]]),
        obs_weight=np.array([4.0, 2.0]),
        obs_sum=np.array([[2.0], [3.0]]),
        obs_outer=np.array([[[2.0]], [[5.0]]]),
    )
    empty = SufficientCounts(
        trans=np.zeros((2, 1, 2)), obs_weight=np.zeros(2),
        obs_sum=np.zeros((2, 1)), obs_outer=np.zeros((2, 1, 1)))
    out = m_step_fuzzy_map(empty, pseudo, prev,
                           FuzzyMapConfig(lambda_t=1.0, lambda_o=1.0))
    assert np.allclose(out.transitions[0, 0], [0.25, 0.75])
    assert np.allclose(out.transitions[1, 0], [0.25, 0.75])
    assert np.allclose(out.obs_means[:, 0], [0.5, 1.5])
    # second moment 2/4 minus mean^2 0.25; well above the degeneracy guard
    assert abs(out.obs_covs[0, 0, 0] - 0.25) < 1e-12
    assert abs(out.obs_covs[1, 0, 0] - (2.5 - 2.25)) < 1e-12


def test_m_step_fuzzy_map_blending_arithmetic():
    rng = np.random.default_rng(12)
    m = diag_model(rng, num_states=2, num_actions=1, obs_dim=1)
    lam_t, lam_o = 0.3, 0.7
    emp = SufficientCounts(
        trans=rng.uniform(0.5, 2.0, size=(2, 1, 2)),
        obs_weight=rng.uniform(1.0, 3.0, size=2),
        obs_sum=rng.normal(size=(2, 1)),
        obs_outer=rng.uniform(2.0, 4.0, size=(2, 1, 1)),
    )
    pseudo = SufficientCounts(
        trans=rng.uniform(0.0, 1.0, size=(2, 1, 2)),
        obs_weight=rng.uniform(0.5, 1.0, size=2),
        obs_sum=rng.normal(scale=0.3, size=(2, 1)),
        obs_outer=rng.uniform(1.0, 2.0, size=(2, 1, 1)),
    )
    out = m_step_fuzzy_map(emp, pseudo, m,
                           FuzzyMapConfig(lambda_t=lam_t, lambda_o=lam_o))
    for s in range(2):
        row = emp.trans[s, 0] + lam_t * pseudo.trans[s, 0]
        assert np.allclose(out.transitions[s, 0], row / row.sum(), atol=1e-12)
        n = emp.obs_weight[s] + lam_o * pseudo.obs_weight[s]
        mu = (emp.obs_sum[s] + lam_o * pseudo.obs_sum[s]) / n
        second = (emp.obs_outer[s] + lam_o * pseudo.obs_outer[s]) / n
        cov = second - np.outer(mu, mu)
        if np.linalg.eigvalsh(cov).min() < 1e-6:
            cov = cov + 1e-6 * np.eye(1)
        assert np.allclose(out.obs_means[s], mu, atol=1e-12)
        assert np.allclose(out.obs_covs[s], cov, atol=1e-12)


def test_m_step_fuzzy_map_rejects_indefinite_blend():
    prev = PomdpModel(
        num_states=1, num_actions=1, obs_dim=1,
        transitions=np.ones((1, 1, 1)),
        obs_means=np.zeros((1, 1)), obs_covs=np.ones((1, 1, 1)),
        initial_dist=np.ones(1),
    )
    empty = SufficientCounts(
        trans=np.ones((1, 1, 1)), obs_weight=np.zeros(1),
        obs_sum=np.zeros((1, 1)), obs_outer=np.zeros((1, 1, 1)))
    # second moment far below the squared mean cannot be a real distribution
    bogus = SufficientCounts(
        trans=np.ones((1, 1, 1)),
        obs_weight=np.array([2.0]),
        obs_sum=np.array([[4.0]]),
        obs_outer=np.array([[[0.5]]]),
    )
    # rejected by regularize_cov, the check plain EM's M-step runs too
    with pytest.raises(CovarianceError,
                       match=r"^state 0: covariance is not positive semidefinite"):
        m_step_fuzzy_map(empty, bogus, prev,
                         FuzzyMapConfig(lambda_t=1.0, lambda_o=1.0))


def test_m_step_fuzzy_map_decomposes_each_updated_covariance_once(monkeypatch):
    # one stacked eigvalsh over the live states 0 and 1; state 2 has no
    # mass, keeps its covariance and is not decomposed
    rng = np.random.default_rng(14)
    m = diag_model(rng, num_states=3, num_actions=1, obs_dim=2)
    counts = SufficientCounts(
        trans=np.ones((3, 1, 3)),
        obs_weight=np.array([2.0, 3.0, 0.0]),
        obs_sum=rng.normal(size=(3, 2)) * [[1.0], [1.0], [0.0]],
        obs_outer=np.stack([np.eye(2) * 10.0, np.eye(2) * 10.0, np.zeros((2, 2))]),
    )
    calls = []
    eigvalsh = model_module._eigvalsh
    monkeypatch.setattr(model_module, "_eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    m_step_fuzzy_map(counts, SufficientCounts.zeros(3, 1, 2), m,
                     FuzzyMapConfig(lambda_t=0.5, lambda_o=0.5))
    assert [np.shape(a) for a in calls] == [(2, 2, 2)]


# --------------------------------------------------------------- full loop

def test_run_fuzzy_map_em_zero_lambda_identical_to_plain_em():
    rng = np.random.default_rng(13)
    truth = random_model(rng, num_states=2, mean_scale=2.0)
    ds = random_dataset(rng, truth, n=4, horizon=8)
    init = random_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    plain = run_em(ds, init, EmConfig(max_iterations=25))
    mapped = run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=25),
                              FuzzyMapConfig(lambda_t=0.0, lambda_o=0.0))
    assert_same_fit(mapped, plain)
    assert mapped.final_matchant is None  # match degrees never evaluated


def assert_same_fit(got, want):
    """Bit-identical models and traces, same iteration count and verdict."""
    assert got.loglik_trace == want.loglik_trace
    for name in ("transitions", "obs_means", "obs_covs", "initial_dist"):
        assert np.array_equal(getattr(got.model, name), getattr(want.model, name)), name
    assert got.iterations == want.iterations
    assert got.converged == want.converged


def test_run_fuzzy_map_em_records_prior_data_ratios():
    rng = np.random.default_rng(14)
    truth = random_model(rng, num_states=2, mean_scale=2.0)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    res = run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=5),
                           FuzzyMapConfig(lambda_t=0.1, lambda_o=0.05,
                                          matchant_samples=100))
    assert len(res.prior_data_ratios) >= 1
    for rt, ro in res.prior_data_ratios:
        assert rt >= 0.0 and ro >= 0.0
    assert res.final_matchant is not None
    assert res.final_matchant.shape == (2, 2, len(fz.rules))


def test_run_fuzzy_map_em_deterministic():
    rng = np.random.default_rng(15)
    truth = random_model(rng, num_states=2)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    kw = dict(em_config=EmConfig(max_iterations=6),
              map_config=FuzzyMapConfig(lambda_t=0.2, lambda_o=0.1,
                                        matchant_samples=128, seed=21))
    r1 = run_fuzzy_map_em(ds, init, fz, **kw)
    r2 = run_fuzzy_map_em(ds, init, fz, **kw)
    assert np.array_equal(r1.model.transitions, r2.model.transitions)
    assert np.array_equal(r1.model.obs_means, r2.model.obs_means)
    assert r1.loglik_trace == r2.loglik_trace


def test_run_fuzzy_map_em_prior_only_mode():
    rng = np.random.default_rng(16)
    init = diag_model(rng, num_states=2)
    fz = make_fuzzy(
        [constant_rule((0.3, 0.3), 2,
                       clauses=(gauss_clause(0, 0.0, 0.5),)),
         constant_rule((0.8, 0.8), 2,
                       clauses=(gauss_clause(0, 1.0, 0.5),))],
        obs_dim=2)
    res = run_fuzzy_map_em([], init, fz, EmConfig(max_iterations=50),
                           FuzzyMapConfig(lambda_t=1.0, lambda_o=1.0,
                                          matchant_samples=256, seed=4))
    assert res.loglik_trace == []
    assert res.iterations >= 1
    assert all(math.isinf(rt) and math.isinf(ro)
               for rt, ro in res.prior_data_ratios)
    from fuzzy_pomdp.model import validate_model
    assert validate_model(res.model) == []
    with pytest.raises(ValueError):
        run_fuzzy_map_em([], init, fz, EmConfig(),
                         FuzzyMapConfig(lambda_t=0.0, lambda_o=0.0))
    with pytest.raises(ValueError):
        run_fuzzy_map_em([], init, fz, EmConfig(),
                         FuzzyMapConfig(lambda_t=1.0, lambda_o=1.0,
                                        final_standard_em_iterations=1))


@pytest.mark.parametrize("lambdas, dataset_size", [
    ((0.0, 0.0), 3), ((0.1, 0.05), 3), ((1.0, 1.0), 0),
])
def test_run_fuzzy_map_em_rejects_a_rule_base_of_another_obs_dim(lambdas, dataset_size):
    rng = np.random.default_rng(20)
    init = random_model(rng, num_states=2, obs_dim=2)
    ds = random_dataset(rng, init, n=dataset_size, horizon=5) if dataset_size else []
    fz = random_fuzzy(rng, obs_dim=3)
    map_cfg = FuzzyMapConfig(lambda_t=lambdas[0], lambda_o=lambdas[1])
    with pytest.raises(ValueError, match=r"fuzzy model has obs_dim 3 .* model has obs_dim 2$"):
        run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=3), map_cfg)


@pytest.mark.parametrize("lambdas, dataset_size", [
    ((0.0, 0.0), 3), ((0.1, 0.05), 3), ((1.0, 1.0), 0),
])
def test_run_fuzzy_map_em_rejects_a_rule_gated_on_an_action_the_model_lacks(
        lambdas, dataset_size):
    # the bundled rules 3-5 are gated on action 1, which a 1-action model
    # lacks: they would never fire
    rng = np.random.default_rng(20)
    init = random_model(rng, num_states=2, num_actions=1, obs_dim=2)
    ds = random_dataset(rng, init, n=dataset_size, horizon=5) if dataset_size else []
    fz = load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
    map_cfg = FuzzyMapConfig(lambda_t=lambdas[0], lambda_o=lambdas[1])
    with pytest.raises(ValueError, match=r"^rule 3 is gated on action 1, but the POMDP model "
                                         r"has 1 action\(s\) and the fuzzy model 2$"):
        run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=3), map_cfg)


def _reference_fit(dataset, init, fuzzy, em_config, map_config):
    """A fuzzy-MAP fit as its own loop of the public pieces: M-steps
    (m_step_fuzzy_map) on the E-step's counts, or zero counts without data,
    blended with pseudo-counts matched at each iteration's number, until the
    log-likelihood improvement, or without data the largest parameter
    change, falls below the tolerance; then run_em's polish, whose trace
    continues the fit's."""
    def max_delta(a, b):
        return max(float(np.abs(getattr(a, name) - getattr(b, name)).max())
                   for name in ("transitions", "obs_means", "obs_covs"))

    def ratio(prior, data):
        return prior / data if data > 0 else math.inf

    lam_t, lam_o = map_config.lambda_t, map_config.lambda_o
    model, trace, ratios, matchant, converged = init, [], [], None, False
    if dataset:
        posteriors, loglik = e_step(model, dataset)
        trace.append(loglik)
    for iteration in range(em_config.max_iterations):
        if dataset:
            empirical = accumulate_counts(dataset, posteriors, model)
        else:
            empirical = SufficientCounts.zeros(init.num_states, init.num_actions, init.obs_dim)
        if lam_t == 0.0 and lam_o == 0.0:
            fuzzy_counts = SufficientCounts.zeros(init.num_states, init.num_actions, init.obs_dim)
        else:
            matchant = matchant_matrix(model, fuzzy, map_config, iteration)
            fuzzy_counts = compute_from_matchant(model, fuzzy, matchant)
        ratios.append((ratio(lam_t * float(fuzzy_counts.trans.sum()),
                             float(empirical.trans.sum())),
                       ratio(lam_o * float(fuzzy_counts.obs_weight.sum()),
                             float(empirical.obs_weight.sum()))))
        previous, model = model, m_step_fuzzy_map(empirical, fuzzy_counts, model, map_config)
        if dataset:
            posteriors, loglik = e_step(model, dataset)
            trace.append(loglik)
            change = abs(trace[-1] - trace[-2])
        else:
            change = max_delta(previous, model)
        if change < em_config.loglik_tolerance:
            converged = True
            break
    iterations = iteration + 1
    if map_config.final_standard_em_iterations:
        polish = run_em(dataset, model, dataclasses.replace(
            em_config, max_iterations=map_config.final_standard_em_iterations))
        model, iterations = polish.model, iterations + polish.iterations
        trace += polish.loglik_trace[1:]
    return em.EmResult(model, trace, converged, iterations, ratios, matchant)


def assert_same_prior_record(got, want):
    """assert_same_fit, plus equal prior/data ratios and final match matrix."""
    assert_same_fit(got, want)
    assert got.prior_data_ratios == want.prior_data_ratios
    assert (got.final_matchant is None) == (want.final_matchant is None)
    if want.final_matchant is not None:
        assert np.array_equal(got.final_matchant, want.final_matchant)


@pytest.mark.parametrize("tnorm, cap, converges", [
    ("product", 200, True),
    # Monte-Carlo matching, keyed by iteration, so the M-steps must see the
    # same iteration numbers; its jitter keeps the fit from converging
    ("minimum", 6, False),
])
def test_prior_only_fit_equals_a_loop_of_its_own(tnorm, cap, converges):
    rng = np.random.default_rng(16)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2, num_rules=4, tnorm=tnorm)
    em_cfg = EmConfig(max_iterations=cap)
    map_cfg = FuzzyMapConfig(lambda_t=1.0, lambda_o=0.5, matchant_samples=64, seed=9)
    want = _reference_fit([], init, fz, em_cfg, map_cfg)
    res = run_fuzzy_map_em([], init, fz, em_cfg, map_cfg)
    assert want.converged == converges
    assert_same_prior_record(res, want)
    assert res.loglik_trace == []
    assert res.prior_data_ratios == [(math.inf, math.inf)] * res.iterations
    assert res.final_matchant is not None


@pytest.mark.parametrize("lambdas, tnorm", [
    # no matching; converges at 6 M-steps, and the polish stops after 1
    ((0.0, 0.0), "product"),
    # converges at 12; the polish runs to its cap
    ((0.3, 0.2), "product"),
    # Monte-Carlo matching, keyed by iteration; runs to the cap of 30
    ((0.3, 0.2), "minimum"),
])
@pytest.mark.parametrize("polish", [0, 5])
def test_a_fit_on_data_equals_a_loop_of_the_public_pieces(lambdas, tnorm, polish):
    # bit for bit, so the blend the fit's loop runs stays m_step_fuzzy_map's
    rng = np.random.default_rng(22)
    truth = random_model(rng, num_states=2, mean_scale=2.0)
    ds = random_dataset(rng, truth, n=6, horizon=8)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2, tnorm=tnorm)
    em_cfg = EmConfig(max_iterations=30, loglik_tolerance=1e-3)
    map_cfg = FuzzyMapConfig(lambda_t=lambdas[0], lambda_o=lambdas[1], matchant_samples=64,
                             seed=5, final_standard_em_iterations=polish)
    want = _reference_fit(ds, init, fz, em_cfg, map_cfg)
    assert_same_prior_record(run_fuzzy_map_em(ds, init, fz, em_cfg, map_cfg), want)
    assert len(want.loglik_trace) == want.iterations + 1
    assert (want.final_matchant is None) == (lambdas == (0.0, 0.0))


def test_run_fuzzy_map_em_huge_lambda_is_prior_dominated():
    # one always-firing rule pinning a single target: with overwhelming
    # prior weight some state locks onto the target with a ridge-level
    # covariance, every transition row routes into it, and that pinned
    # structure is identical no matter which dataset was observed
    rng = np.random.default_rng(17)
    truth = random_model(rng, num_states=2, mean_scale=1.5)
    init = diag_model(rng, num_states=2)
    target = np.array([0.7, -0.4])
    fz = make_fuzzy([constant_rule(target, 2)], obs_dim=2)
    cfg = FuzzyMapConfig(lambda_t=1e6, lambda_o=1e6, matchant_samples=100,
                         seed=2)
    pinned_means = []
    for data_seed in (17, 99):
        ds = random_dataset(np.random.default_rng(data_seed), truth,
                            n=4, horizon=8)
        res = run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=40),
                               cfg)
        dist = np.abs(res.model.obs_means - target[None]).max(axis=1)
        pin = int(dist.argmin())
        assert dist[pin] < 1e-6
        assert res.model.obs_covs[pin].max() < 1e-5  # ridge scale
        assert np.all(res.model.transitions[:, :, pin] > 0.999)
        pinned_means.append(res.model.obs_means[pin].copy())
    assert np.allclose(pinned_means[0], pinned_means[1], atol=1e-9)


def test_run_fuzzy_map_em_polish_requires_data_and_runs():
    rng = np.random.default_rng(18)
    truth = random_model(rng, num_states=2)
    ds = random_dataset(rng, truth, n=3, horizon=6)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    res = run_fuzzy_map_em(
        ds, init, fz, EmConfig(max_iterations=4),
        FuzzyMapConfig(lambda_t=0.3, lambda_o=0.2, matchant_samples=64,
                       final_standard_em_iterations=2))
    from fuzzy_pomdp.model import validate_model
    assert validate_model(res.model) == []
    assert len(res.loglik_trace) >= 2


@pytest.mark.parametrize("k", [1, 3])
def test_polish_is_run_em_from_the_unpolished_fit(k):
    # final_standard_em_iterations=k continues the k=0 fit with up to k plain
    # EM iterations, and the polish's trace follows the fit's, minus its
    # entry 0 (which rescored the same model)
    rng = np.random.default_rng(19)
    truth = random_model(rng, num_states=2, mean_scale=2.0)
    ds = random_dataset(rng, truth, n=4, horizon=7)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    em_cfg = EmConfig(max_iterations=6)
    map_cfg = FuzzyMapConfig(lambda_t=0.3, lambda_o=0.2, matchant_samples=64)
    base = run_fuzzy_map_em(ds, init, fz, em_cfg, map_cfg)
    polished = run_fuzzy_map_em(
        ds, init, fz, em_cfg,
        dataclasses.replace(map_cfg, final_standard_em_iterations=k))
    polish = run_em(ds, base.model, EmConfig(max_iterations=k))
    assert polished.loglik_trace == base.loglik_trace + polish.loglik_trace[1:]
    for name in ("transitions", "obs_means", "obs_covs"):
        assert np.array_equal(getattr(polished.model, name), getattr(polish.model, name))
    assert polished.iterations == base.iterations + polish.iterations
    assert polished.converged == base.converged
    assert polished.prior_data_ratios == base.prior_data_ratios


def _polished_fit(k):
    rng = np.random.default_rng(19)
    truth = random_model(rng, num_states=2, mean_scale=2.0)
    ds = random_dataset(rng, truth, n=4, horizon=7)
    init = diag_model(rng, num_states=2)
    fz = random_fuzzy(rng, obs_dim=2)
    map_cfg = FuzzyMapConfig(lambda_t=0.3, lambda_o=0.2, matchant_samples=64,
                             final_standard_em_iterations=k)
    return lambda: run_fuzzy_map_em(ds, init, fz, EmConfig(max_iterations=6), map_cfg)


@pytest.mark.parametrize("k", [1, 3])
def test_a_polished_fit_scores_each_model_once(k, monkeypatch):
    # the polish continues the trace: the model the fuzzy-MAP phase ends on
    # is scored once, not again as the polish's start
    fit, calls = _polished_fit(k), []
    e_step = em.e_step
    monkeypatch.setattr(em, "e_step", lambda *args: calls.append(args) or e_step(*args))
    res = fit()
    assert len(calls) == res.iterations + 1 == len(res.loglik_trace)


def test_a_forward_backward_error_in_the_polish_names_the_fits_iteration(monkeypatch):
    # iterations are numbered across both phases; the E-step of the last
    # model fails
    fit = _polished_fit(3)
    iterations = fit().iterations
    e_step, calls = em.e_step, []

    def failing(model, data):
        calls.append(model)
        if len(calls) == iterations + 1:
            raise ForwardBackwardError("trajectory 2: zero or NaN total observation likelihood "
                                       "at step 1", 2)
        return e_step(model, data)

    monkeypatch.setattr(em, "e_step", failing)
    with pytest.raises(ForwardBackwardError,
                       match=rf"^iteration {iterations}: trajectory 2: .* step 1$") as info:
        fit()
    assert info.value.trajectory == 2
