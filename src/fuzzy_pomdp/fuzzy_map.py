"""EM with an M-step augmented by pseudo-counts from an expert fuzzy model.

Each iteration scores every (state, action, rule) triple by the expected
firing strength of the rule's antecedent under the current observation
model, pushes the rule's affine consequent through the current emission
densities, and runs plain EM's M-step on the empirical expected counts
blended with the resulting pseudo-counts, weighted by `lambda_t` / `lambda_o`.
A fit returns plain EM's EmResult, its prior fields filled in.

The expected firing strength is exact (a closed-form Gaussian integral) for
rules whose clauses are all Gaussian under the product t-norm, and a seeded
Monte-Carlo estimate otherwise (triangular or trapezoidal terms, or the
minimum t-norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import EmConfig, EmResult, SufficientCounts, _blend, _fit, _mstep_from_counts
from .em import e_step  # noqa: F401  (perfbench's FitTimer wraps this binding)
from .fuzzy import FuzzyModel, GaussianGroup, antecedent_strengths
from .fuzzy import membership  # noqa: F401  (perfbench's tracer test wraps this binding)
from .model import PomdpModel, Trajectory, gaussian_log_density
from .rngs import derive_rng

# the last two columns of matchant_matrix's strength table
_ONE_ZERO = np.array([1.0, 0.0])
_ONE_ZERO.flags.writeable = False


@dataclass(frozen=True)
class FuzzyMapConfig:
    lambda_t: float = 0.0
    lambda_o: float = 0.0
    matchant_samples: int = 1000
    seed: int = 0
    final_standard_em_iterations: int = 0

    def __post_init__(self):
        for name, lam in (("lambda_t", self.lambda_t), ("lambda_o", self.lambda_o)):
            if not math.isfinite(lam) or lam < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.matchant_samples < 1:
            raise ValueError("matchant_samples must be >= 1")
        if self.final_standard_em_iterations < 0:
            raise ValueError("final_standard_em_iterations must be >= 0")


def match_antecedent(
    state: int,
    action: int,
    rule_index: int,
    fuzzy: FuzzyModel,
    model: PomdpModel,
    config: FuzzyMapConfig,
    iteration: int = 0,
) -> float:
    """Monte-Carlo expected firing strength of one rule under a state's density.

    Averages the firing strength over `matchant_samples` draws from the
    state's Gaussian, seeded per (seed, state, action, rule, iteration),
    whatever the membership shapes and t-norm. The draws use the lower
    Cholesky factor the model's emission factor keeps, so matching factors
    no covariance of its own; a covariance that is not finite and positive
    definite raises CovarianceError naming its state. A crisp action
    mismatch returns exactly 0; an empty antecedent exactly 1.
    matchant_matrix uses it for the cells that have no closed form and is
    checked against it for the rest.
    """
    rule = fuzzy.rules[rule_index]
    if rule.action is not None and rule.action != action:
        return 0.0
    if not rule.clauses:
        return 1.0
    rng = derive_rng(config.seed, "matchant", state, action, rule_index, iteration)
    mean = model.obs_means[state]
    z = rng.standard_normal((config.matchant_samples, mean.shape[0]))
    samples = mean + z @ model.emission_factor.chol[state].T
    return float(antecedent_strengths(rule, samples, fuzzy.tnorm).mean())


def _gaussian_match(model: PomdpModel, group: GaussianGroup, out: np.ndarray) -> None:
    """Exact expected product-t-norm firing strength of each of the group's
    distinct antecedents, written to out, shape (S, U).

    With D = diag(sigma_J^2) over the group's clause dims J and
    d = mu_J - c, the integral of a rule's membership against N(mu, Sigma)
    is sqrt(det D / det(D + Sigma_JJ)) * exp(-d^T (D + Sigma_JJ)^-1 d / 2).
    Rules sharing an antecedent share that matrix, so solve and det run on
    the (S, U, k, k) stack of distinct antecedents, whose columns each rule
    then reads; a rule gets the bits its own matrix would give, as each
    matrix still goes through one LAPACK call.
    """
    dims = group.dims
    cov = model.obs_covs[:, dims][:, :, dims]  # (S, k, k)
    mat = cov[:, None] + group.variance_diagonals[None]  # (S, U, k, k)
    # the last bits of quad follow diff's memory layout: this fancy-indexed
    # diff, not a contiguous one (say from slicing contiguous dims), gives them
    diff = model.obs_means[:, None, dims] - group.centers[None]  # (S, U, k)
    quad = np.einsum("sgk,sgk->sg", diff, np.linalg.solve(mat, diff[..., None])[..., 0])
    np.multiply(np.sqrt(group.variance_products / np.linalg.det(mat)), np.exp(-0.5 * quad),
                out=out)


def matchant_matrix(
    model: PomdpModel, fuzzy: FuzzyModel, config: FuzzyMapConfig, iteration: int = 0
) -> np.ndarray:
    """Expected firing strength for every (state, action, rule), shape (S, A, R).

    Exact for rules whose clauses are all Gaussian under the product t-norm:
    each group of rules sharing a clause-dim tuple (fuzzy.tables) is solved
    for every state at once, one matrix per state and distinct antecedent,
    so rules with equal clauses cost one solve. Each state's strengths fill
    one row of a strength table, with a ones and a zeros column after them,
    and every cell is one gather from it through the rule base's cell
    columns: empty antecedents read exactly 1, action-gated cells exactly
    0. Other rules fall back to the Monte-Carlo match_antecedent, cell by
    cell, with its draws, which come from the emission factor's Cholesky
    factors. The covariances are checked by building the model's emission
    factor, which the E-step and compute_from_matchant then reuse; a
    covariance that is not finite and positive definite raises
    CovarianceError naming its state.
    """
    model.emission_factor  # built here, or CovarianceError
    tables = fuzzy.tables
    width = tables.strength_width
    table = np.empty((model.num_states, width + 2))
    table[:, width:] = _ONE_ZERO
    start = 0
    for group in tables.gaussian_groups:
        stop = start + len(group.centers)
        _gaussian_match(model, group, table[:, start:stop])
        start = stop
    out = table.take(tables.cell_columns(model.num_actions), 1)  # C-ordered (S, A, R)
    if tables.mc_rules:
        for s in range(model.num_states):
            for a in range(model.num_actions):
                for r in tables.mc_rules:
                    out[s, a, r] = match_antecedent(s, a, r, fuzzy, model, config, iteration)
    return out


def _expectation_table(model: PomdpModel, fuzzy: FuzzyModel) -> np.ndarray:
    """Expected consequent of every rule under every state's density, (S, R, d).

    Affine consequents make this exact: the expectation of an affine map of
    a Gaussian is the map applied to the mean.
    """
    num_states, obs_dim = model.num_states, model.obs_dim
    inputs = np.empty((num_states, obs_dim + 1))  # rows (1, mean)
    inputs[:, 0] = 1.0
    inputs[:, 1:] = model.obs_means
    return (inputs @ fuzzy.tables.consequent_matrix).reshape(num_states, -1, obs_dim)


def _likelihood_table(model: PomdpModel, y_star: np.ndarray) -> np.ndarray:
    """Density of each expected consequent under each state, shape (S, R, S').

    The densities are scored with the model's emission factor as one
    (S', S*R) stack, and exp writes them transposed, C-ordered."""
    num_states, num_rules, obs_dim = y_star.shape
    log_dens = gaussian_log_density(y_star.reshape(num_states * num_rules, obs_dim),
                                    model.obs_means, model.obs_covs, model.emission_factor)
    return np.exp(log_dens.T, order="C").reshape(num_states, num_rules, model.num_states)


def compute_from_matchant(
    model: PomdpModel, fuzzy: FuzzyModel, matchant: np.ndarray
) -> SufficientCounts:
    """Rule-derived pseudo-counts from a matchant_matrix result.

    Transition counts: each rule votes for (s, a, s') with its match to
    state s under action a, matchant(s, a, r), times the density of its
    expected consequent under landing state s'. Observation counts: rule
    r's expected consequent is credited to landing state s' with weight
    sum_a T(s, a, s') * matchant(s, a, r), summed over source states,
    actions and rules; the outer products are pooled with one matmul over
    the (S*R) rows of (source state, rule). The likelihoods use the model's
    emission factor.
    """
    y_star = _expectation_table(model, fuzzy)
    likelihood = _likelihood_table(model, y_star)
    weight = matchant.transpose(0, 2, 1) @ model.transitions  # (S, R, S')
    # one row per (source state, rule), so each count is one matmul
    rows = weight.reshape(-1, model.num_states).T  # (S', S*R)
    obs_dim = model.obs_dim
    pairs = (y_star[..., :, None] * y_star[..., None, :]).reshape(-1, obs_dim * obs_dim)
    return SufficientCounts(
        # the last bits of trans follow the operands' layout: keep both
        # C-ordered (a transposed likelihood, or a column-gathered matchant,
        # changed them in fits with one action, where numpy's matmul takes
        # another path)
        trans=matchant @ likelihood,
        obs_weight=np.add.reduce(weight, (0, 1)),
        obs_sum=rows @ y_star.reshape(-1, obs_dim),
        obs_outer=(rows @ pairs).reshape(-1, obs_dim, obs_dim),
    )


def m_step_fuzzy_map(
    empirical: SufficientCounts,
    fuzzy_counts: SufficientCounts,
    prev: PomdpModel,
    map_config: FuzzyMapConfig,
) -> PomdpModel:
    """Plain EM's M-step on empirical counts blended with weighted pseudo-counts.

    The blend (em._blend) is the one a fuzzy-MAP fit's loop runs. With both
    lambdas zero this reproduces the standard M-step exactly.
    """
    return _mstep_from_counts(
        _blend(empirical, fuzzy_counts, map_config.lambda_t, map_config.lambda_o), prev)


def run_fuzzy_map_em(
    dataset: list[Trajectory],
    init: PomdpModel,
    fuzzy: FuzzyModel,
    em_config: EmConfig | None = None,
    map_config: FuzzyMapConfig | None = None,
) -> EmResult:
    """EM whose every M-step folds in freshly computed fuzzy pseudo-counts.

    Pseudo-counts are recomputed against the current parameters each
    iteration and handed to plain EM's loop (em._fit) as its prior; with
    both lambdas zero they are zeros and final_matchant stays None. An empty
    dataset fits the prior alone (both lambdas must be positive): the same
    loop skips the E-step, blends the pseudo-counts into zero counts, and
    stops once no parameter moves by the tolerance; the trace stays empty
    and every prior/data ratio is inf. After the fuzzy-MAP M-steps the same
    loop runs up to `final_standard_em_iterations` plain ones, a polish
    that stops early on the likelihood tolerance: its trace continues the
    fuzzy-MAP phase's without rescoring the model it starts from,
    `converged` stays the fuzzy-MAP phase's, and `iterations` counts the
    M-steps of both. A rule base whose obs_dim differs from the model's, or
    with a rule gated on an action the model lacks, raises ValueError
    before anything is fitted.

    The log-likelihood trace is recorded but never guaranteed monotone:
    blending pseudo-counts into the M-step trades likelihood for prior
    agreement whenever the lambdas are positive.
    """
    _check_rule_base(fuzzy, init)
    em_config = em_config or EmConfig()
    map_config = map_config or FuzzyMapConfig()
    if not dataset:
        if not (map_config.lambda_t > 0 and map_config.lambda_o > 0):
            raise ValueError("an empty dataset requires both lambdas > 0")
        if map_config.final_standard_em_iterations > 0:
            raise ValueError("standard EM polish needs a non-empty dataset")
    lambda_t, lambda_o = map_config.lambda_t, map_config.lambda_o

    def pseudo_counts(model: PomdpModel, iteration: int):
        if lambda_t == 0.0 and lambda_o == 0.0:
            return SufficientCounts.zeros(model.num_states, model.num_actions, model.obs_dim), None
        matchant = matchant_matrix(model, fuzzy, map_config, iteration)
        return compute_from_matchant(model, fuzzy, matchant), matchant

    return _fit(dataset, init, em_config, (lambda_t, lambda_o, pseudo_counts),
                map_config.final_standard_em_iterations)


def _check_rule_base(fuzzy: FuzzyModel, model: PomdpModel) -> None:
    """Raise ValueError unless the rule base fits the model: the same
    obs_dim, and every rule's action selector an action of the model (a
    rule gated on any other action would never fire)."""
    if fuzzy.obs_dim != model.obs_dim:
        raise ValueError(f"the fuzzy model has obs_dim {fuzzy.obs_dim} but the POMDP "
                         f"model has obs_dim {model.obs_dim}")
    for r, rule in enumerate(fuzzy.rules):
        if rule.action is not None and rule.action >= model.num_actions:
            raise ValueError(f"rule {r} is gated on action {rule.action}, but the POMDP model "
                             f"has {model.num_actions} action(s) and the fuzzy model "
                             f"{fuzzy.num_actions}")
