"""EM with an M-step augmented by pseudo-counts from an expert fuzzy model.

Each iteration scores every (state, action, rule) triple by the expected
firing strength of the rule's antecedent under the current observation
model, pushes the rule's affine consequent through the current emission
densities, and folds the resulting pseudo-counts into the M-step alongside
the empirical expected counts, weighted by `lambda_t` / `lambda_o`.

The expected firing strength is exact (a closed-form Gaussian integral) for
rules whose clauses are all Gaussian under the product t-norm, and a seeded
Monte-Carlo estimate otherwise (triangular or trapezoidal terms, or the
minimum t-norm).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .em import (
    EmConfig,
    ForwardBackwardError,
    SufficientCounts,
    _mstep_from_counts,
    accumulate_counts,
    e_step,
    m_step_standard,
)
from .fuzzy import FuzzyModel, FuzzyRule, firing_strengths_batch
from .fuzzy import membership  # noqa: F401  (perfbench's tracer test wraps this binding)
from .model import (CovarianceError, PomdpModel, Trajectory, cholesky_factor,
                    gaussian_log_density, sample_gaussian)
from .rngs import derive_rng

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class FuzzyPseudoCounts:
    """Rule-derived analogues of the empirical sufficient counts."""

    trans: np.ndarray
    obs_weight: np.ndarray
    obs_sum: np.ndarray
    obs_outer: np.ndarray

    @classmethod
    def zeros(cls, num_states: int, num_actions: int, obs_dim: int) -> "FuzzyPseudoCounts":
        return cls(
            trans=np.zeros((num_states, num_actions, num_states)),
            obs_weight=np.zeros(num_states),
            obs_sum=np.zeros((num_states, obs_dim)),
            obs_outer=np.zeros((num_states, obs_dim, obs_dim)),
        )


@dataclass(frozen=True)
class FuzzyMapResult:
    model: PomdpModel
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    # per-iteration (lambda_t * fuzzy transition mass / empirical transition
    # mass, lambda_o * fuzzy observation mass / empirical observation mass);
    # inf when the empirical mass is zero
    prior_data_ratios: list[tuple[float, float]] = field(default_factory=list)
    # expected firing strength per (state, action, rule) at the last
    # iteration; the raw material for diagnosing rules that match the
    # wrong state's observation distribution
    final_matchant: np.ndarray | None = None


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
    whatever the membership shapes and t-norm. A crisp action mismatch
    returns exactly 0; an empty antecedent exactly 1. matchant_matrix uses
    it for the cells that have no closed form and is checked against it
    for the rest.
    """
    rule = fuzzy.rules[rule_index]
    if rule.action is not None and rule.action != action:
        return 0.0
    if not rule.clauses:
        return 1.0
    rng = derive_rng(config.seed, "matchant", state, action, rule_index, iteration)
    samples = sample_gaussian(
        model.obs_means[state], model.obs_covs[state], config.matchant_samples, rng
    )
    return float(firing_strengths_batch(rule, samples, action, fuzzy.tnorm).mean())


def _gaussian_match(model: PomdpModel, rules: list[FuzzyRule]) -> np.ndarray:
    """Exact expected product-t-norm firing strength, shape (S, len(rules)).

    Every rule must have Gaussian clauses on the same dims J, in the same
    order. With D = diag(sigma_J^2) and d = mu_J - c, the integral of the
    rule's membership against N(mu, Sigma) is
    sqrt(det D / det(D + Sigma_JJ)) * exp(-d^T (D + Sigma_JJ)^-1 d / 2).
    """
    dims = [c.dim for c in rules[0].clauses]
    params = np.array([[c.term.params for c in rule.clauses] for rule in rules])
    centers, var = params[..., 0], params[..., 1] ** 2  # (G, k)
    cov = model.obs_covs[:, dims][:, :, dims]  # (S, k, k)
    mat = cov[:, None] + var[None, :, :, None] * np.eye(len(dims))  # (S, G, k, k)
    diff = model.obs_means[:, None, dims] - centers[None]  # (S, G, k)
    quad = np.einsum("sgk,sgk->sg", diff, np.linalg.solve(mat, diff[..., None])[..., 0])
    return np.sqrt(var.prod(axis=1) / np.linalg.det(mat)) * np.exp(-0.5 * quad)


def matchant_matrix(
    model: PomdpModel, fuzzy: FuzzyModel, config: FuzzyMapConfig, iteration: int = 0
) -> np.ndarray:
    """Expected firing strength for every (state, action, rule), shape (S, A, R).

    Exact for rules whose clauses are all Gaussian under the product t-norm:
    rules sharing a clause-dim tuple are solved together for every state.
    Other rules fall back to the Monte-Carlo match_antecedent, cell by cell,
    with its draws. Action-gated cells are exactly 0 and empty antecedents
    exactly 1. A covariance that is not positive definite raises
    CovarianceError.
    """
    for cov in model.obs_covs:
        cholesky_factor(cov)
    strength = np.ones((model.num_states, len(fuzzy.rules)))
    groups: dict[tuple[int, ...], list[int]] = {}
    mc_rules = []
    for r, rule in enumerate(fuzzy.rules):
        if not rule.clauses:
            continue
        if fuzzy.tnorm == "product" and all(c.term.shape == "gaussian" for c in rule.clauses):
            groups.setdefault(tuple(c.dim for c in rule.clauses), []).append(r)
        else:
            mc_rules.append(r)
    for members in groups.values():
        strength[:, members] = _gaussian_match(model, [fuzzy.rules[r] for r in members])
    gate = np.array(
        [[rule.action is None or rule.action == a for rule in fuzzy.rules]
         for a in range(model.num_actions)],
        dtype=bool,
    )
    out = np.where(gate[None], strength[:, None, :], 0.0)
    for s in range(model.num_states):
        for a in range(model.num_actions):
            for r in mc_rules:
                out[s, a, r] = match_antecedent(s, a, r, fuzzy, model, config, iteration)
    return out


def consequent_expectation(rule: FuzzyRule, model: PomdpModel, state: int) -> np.ndarray:
    """Expected consequent value under the state's observation density.

    Affine consequents make this exact: the expectation of an affine map of
    a Gaussian is the map applied to the mean.
    """
    return rule.predict(model.obs_means[state])


def consequent_likelihood(y: np.ndarray, state: int, model: PomdpModel) -> float:
    """Density of a consequent value under a state's observation model."""
    return float(
        np.exp(gaussian_log_density(y, model.obs_means[state], model.obs_covs[state]))
    )


def _expectation_table(model: PomdpModel, fuzzy: FuzzyModel) -> np.ndarray:
    """consequent_expectation for every (state, rule), shape (S, R, d)."""
    consequents = np.stack([rule.consequent for rule in fuzzy.rules])  # (R, d, d+1)
    inputs = np.hstack([np.ones((model.num_states, 1)), model.obs_means])  # (S, d+1)
    return np.einsum("rde,se->srd", consequents, inputs)


def _likelihood_table(model: PomdpModel, y_star: np.ndarray) -> np.ndarray:
    """Density of each expected consequent under each state, shape (S, R, S')."""
    num_states, num_rules, _ = y_star.shape
    out = np.zeros((num_states, num_rules, num_states))
    for s2 in range(num_states):
        dens = np.exp(
            gaussian_log_density(
                y_star.reshape(num_states * num_rules, -1),
                model.obs_means[s2],
                model.obs_covs[s2],
            )
        )
        out[:, :, s2] = dens.reshape(num_states, num_rules)
    return out


def fuzzy_transition_pseudocounts(
    model: PomdpModel,
    fuzzy: FuzzyModel,
    config: FuzzyMapConfig,
    iteration: int = 0,
    matchant: np.ndarray | None = None,
) -> np.ndarray:
    """Rule-derived transition pseudo-counts, shape (S, A, S').

    Each rule votes for (s, a, s') with weight: how well its antecedent
    matches state s (for action a), times how plausibly its predicted next
    observation was emitted by state s'.
    """
    if matchant is None:
        matchant = matchant_matrix(model, fuzzy, config, iteration)
    return compute_from_matchant(model, fuzzy, config, iteration, matchant).trans


def fuzzy_observation_pseudocounts(
    model: PomdpModel,
    fuzzy: FuzzyModel,
    config: FuzzyMapConfig,
    iteration: int = 0,
    matchant: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rule-derived observation pseudo-statistics for each landing state.

    A rule's expected consequent is credited to every destination state s',
    weighted by strength(s, a, s', r) = T(s, a, s') * matchant(s, a, r),
    summing over all source states, actions and rules.
    """
    if matchant is None:
        matchant = matchant_matrix(model, fuzzy, config, iteration)
    counts = compute_from_matchant(model, fuzzy, config, iteration, matchant)
    return counts.obs_weight, counts.obs_sum, counts.obs_outer


def compute_pseudocounts(
    model: PomdpModel, fuzzy: FuzzyModel, config: FuzzyMapConfig, iteration: int = 0
) -> FuzzyPseudoCounts:
    """All pseudo-counts for one iteration, sharing one matchant evaluation."""
    matchant = matchant_matrix(model, fuzzy, config, iteration)
    return compute_from_matchant(model, fuzzy, config, iteration, matchant)


def m_step_fuzzy_map(
    empirical: SufficientCounts,
    fuzzy_counts: FuzzyPseudoCounts,
    prev: PomdpModel,
    em_config: EmConfig,
    map_config: FuzzyMapConfig,
) -> PomdpModel:
    """M-step on empirical counts blended with weighted pseudo-counts.

    With both lambdas zero this reproduces the standard M-step exactly
    (adding 0.0 leaves every count bit-identical).
    """
    blended = SufficientCounts(
        trans=empirical.trans + map_config.lambda_t * fuzzy_counts.trans,
        obs_weight=empirical.obs_weight + map_config.lambda_o * fuzzy_counts.obs_weight,
        obs_sum=empirical.obs_sum + map_config.lambda_o * fuzzy_counts.obs_sum,
        obs_outer=empirical.obs_outer + map_config.lambda_o * fuzzy_counts.obs_outer,
    )
    model = _mstep_from_counts(blended, prev, em_config.covariance_ridge)
    for s in range(model.num_states):
        min_eig = float(np.linalg.eigvalsh(model.obs_covs[s]).min())
        if min_eig < -1e-12:
            raise CovarianceError(
                f"blended covariance for state {s} is not positive semidefinite "
                f"(min eigenvalue {min_eig:.3e})"
            )
    return model


def _max_param_delta(a: PomdpModel, b: PomdpModel) -> float:
    return max(
        float(np.abs(a.transitions - b.transitions).max()),
        float(np.abs(a.obs_means - b.obs_means).max()),
        float(np.abs(a.obs_covs - b.obs_covs).max()),
    )


def run_fuzzy_map_em(
    dataset: list[Trajectory],
    init: PomdpModel,
    fuzzy: FuzzyModel,
    em_config: EmConfig | None = None,
    map_config: FuzzyMapConfig | None = None,
) -> FuzzyMapResult:
    """EM whose every M-step folds in freshly computed fuzzy pseudo-counts.

    Pseudo-counts are recomputed against the current parameters each
    iteration. An empty dataset switches to prior-only fitting (both
    lambdas must be positive): the E-step is skipped and the stopping rule
    becomes a parameter-change threshold. After the main loop,
    `final_standard_em_iterations` plain EM iterations polish the result.

    The log-likelihood trace is recorded but never guaranteed monotone:
    blending pseudo-counts into the M-step trades likelihood for prior
    agreement whenever the lambdas are positive.
    """
    em_config = em_config or EmConfig()
    map_config = map_config or FuzzyMapConfig()
    prior_only = len(dataset) == 0
    zero_lambda = map_config.lambda_t == 0.0 and map_config.lambda_o == 0.0
    if prior_only:
        if not (map_config.lambda_t > 0 and map_config.lambda_o > 0):
            raise ValueError("an empty dataset requires both lambdas > 0")
        if map_config.final_standard_em_iterations > 0:
            raise ValueError("standard EM polish needs a non-empty dataset")

    model = init
    trace: list[float] = []
    ratios: list[tuple[float, float]] = []
    converged = False
    iterations = 0
    matchant = None

    if prior_only:
        empirical = SufficientCounts.zeros(init.num_states, init.num_actions, init.obs_dim)
        for iteration in range(em_config.max_iterations):
            matchant = matchant_matrix(model, fuzzy, map_config, iteration)
            fuzzy_counts = compute_from_matchant(model, fuzzy, map_config, iteration, matchant)
            new_model = m_step_fuzzy_map(empirical, fuzzy_counts, model, em_config, map_config)
            ratios.append((math.inf, math.inf))
            delta = _max_param_delta(model, new_model)
            model = new_model
            iterations = iteration + 1
            if delta < em_config.loglik_tolerance:
                converged = True
                break
        return FuzzyMapResult(
            model=model,
            loglik_trace=trace,
            converged=converged,
            iterations=iterations,
            prior_data_ratios=ratios,
            final_matchant=matchant,
        )

    for iteration in range(em_config.max_iterations + 1):
        try:
            posteriors, total = e_step(model, dataset)
        except ForwardBackwardError as err:
            raise ForwardBackwardError(f"iteration {iteration}: {err}") from err
        trace.append(total)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < em_config.loglik_tolerance:
            converged = True
            break
        if iteration == em_config.max_iterations:
            break
        empirical = accumulate_counts(dataset, posteriors, model.num_actions)
        if zero_lambda:
            fuzzy_counts = FuzzyPseudoCounts.zeros(
                model.num_states, model.num_actions, model.obs_dim
            )
        else:
            matchant = matchant_matrix(model, fuzzy, map_config, iteration)
            fuzzy_counts = compute_from_matchant(model, fuzzy, map_config, iteration, matchant)
        ratios.append(_mass_ratios(empirical, fuzzy_counts, map_config))
        model = m_step_fuzzy_map(empirical, fuzzy_counts, model, em_config, map_config)

    for polish in range(map_config.final_standard_em_iterations):
        try:
            posteriors, total = e_step(model, dataset)
        except ForwardBackwardError as err:
            raise ForwardBackwardError(f"polish iteration {polish}: {err}") from err
        if polish > 0:
            trace.append(total)
        counts = accumulate_counts(dataset, posteriors, model.num_actions)
        model = m_step_standard(counts, model, em_config)
    if map_config.final_standard_em_iterations > 0:
        _, total = e_step(model, dataset)
        trace.append(total)

    return FuzzyMapResult(
        model=model,
        loglik_trace=trace,
        converged=converged,
        iterations=len(trace) - 1,
        prior_data_ratios=ratios,
        final_matchant=matchant,
    )


def compute_from_matchant(
    model: PomdpModel,
    fuzzy: FuzzyModel,
    config: FuzzyMapConfig,
    iteration: int,
    matchant: np.ndarray,
) -> FuzzyPseudoCounts:
    """Pseudo-counts from an already-computed matchant matrix.

    Transition counts: matchant(s, a, r) times the density of rule r's
    expected consequent under each landing state. Observation counts: rule
    r's expected consequent credited to landing state s' with weight
    sum_a T(s, a, s') * matchant(s, a, r).
    """
    if len(fuzzy.rules) == 0:
        return FuzzyPseudoCounts.zeros(model.num_states, model.num_actions, model.obs_dim)
    y_star = _expectation_table(model, fuzzy)
    likelihood = _likelihood_table(model, y_star)
    weight = np.einsum("sat,sar->srt", model.transitions, matchant)
    return FuzzyPseudoCounts(
        trans=np.einsum("sar,srt->sat", matchant, likelihood),
        obs_weight=weight.sum(axis=(0, 1)),
        obs_sum=np.einsum("srt,srd->td", weight, y_star),
        obs_outer=np.einsum("srt,srd,sre->tde", weight, y_star, y_star),
    )


def _mass_ratios(
    empirical: SufficientCounts, fuzzy_counts: FuzzyPseudoCounts, config: FuzzyMapConfig
) -> tuple[float, float]:
    t_data = float(empirical.trans.sum())
    o_data = float(empirical.obs_weight.sum())
    t_prior = config.lambda_t * float(fuzzy_counts.trans.sum())
    o_prior = config.lambda_o * float(fuzzy_counts.obs_weight.sum())
    return (
        t_prior / t_data if t_data > 0 else math.inf,
        o_prior / o_data if o_data > 0 else math.inf,
    )
