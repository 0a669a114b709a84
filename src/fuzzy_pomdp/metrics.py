"""Model quality against ground truth: transition L1, observation KL,
and automatic matching of learned states to ground-truth labels.

KL divergences are taken truth-first, KL(true Beta-product || learned
Gaussian), so a learned model is penalized for missing mass where the true
process puts it. Divergences that blow up are reported as the +inf
sentinel rather than a huge unstable number. The truth side of each KL,
every truth state's log density and quadrature mass on the grid, depends
only on the Beta parameters: a process builds it once per parameter set
and keeps it, as it keeps the grid.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import EmissionFactor, GroundTruthEnv, PomdpModel, gaussian_log_density

log = logging.getLogger(__name__)

INF = float("inf")
# KL estimates beyond this are reported as the +inf sentinel
KL_CEILING = 1e4
# quadrature mass allowed to sit on points where the learned density underflows
UNDERFLOW_MASS_TOL = 1e-12
LOG_TINY = float(np.log(np.finfo(float).tiny))
NODES = 64  # Gauss-Legendre nodes per observation dimension
MAX_QUADRATURE_DIM = 3


@dataclass(frozen=True)
class EvalReport:
    """state_matching[j] is the ground-truth state index for learned state j."""

    state_matching: tuple[int, ...]
    l1_transition: float
    l1_transition_total: float
    kl_per_state: dict[str, float]
    notes: str = ""


@lru_cache(maxsize=8)
def quadrature_grid(obs_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule on [0,1]^d, NODES per dim: (points, weights)."""
    if obs_dim > MAX_QUADRATURE_DIM:
        raise ValueError(f"quadrature supports obs_dim <= {MAX_QUADRATURE_DIM}")
    x, w = np.polynomial.legendre.leggauss(NODES)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    axes = np.meshgrid(*([x] * obs_dim), indexing="ij")
    points = np.column_stack([ax.ravel() for ax in axes])
    wgrids = np.meshgrid(*([w] * obs_dim), indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights *= wg.ravel()
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


def kl_quadrature(logp: np.ndarray, logq: np.ndarray, weights: np.ndarray) -> float:
    """E_p[log p - log q] from log densities on a quadrature_grid's points.

    Returns the raw estimate, clamped at 0 from below, or +inf when it
    exceeds the ceiling or the q density underflows where p carries mass.
    """
    return _kl_estimate(logp, weights * np.exp(logp), logq, logq < LOG_TINY)


def _kl_estimate(logp: np.ndarray, p_mass: np.ndarray, logq: np.ndarray,
                 underflow: np.ndarray) -> float:
    """kl_quadrature's estimate from the truth's log density and quadrature
    mass (weights * exp(logp)) and the learned log density and its
    underflow mask (logq < LOG_TINY)."""
    if underflow.any() and p_mass[underflow].sum() > UNDERFLOW_MASS_TOL:
        log.debug(
            "learned density underflows on %.3g of the truth mass; reporting inf",
            float(p_mass[underflow].sum()),
        )
        return INF
    # points with negligible truth mass (or in the vanishing underflow set)
    # contribute nothing; drop them instead of risking 0 * inf. When no
    # point drops, the arrays are summed whole: the same values in the
    # same order, so the same bits, without three copies
    keep = (p_mass > 0.0) & ~underflow
    if not keep.all():
        logp, p_mass, logq = logp[keep], p_mass[keep], logq[keep]
    estimate = float((p_mass * (logp - logq)).sum())
    if estimate > KL_CEILING:
        return INF
    return max(estimate, 0.0)


def _beta_log_density(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """SciPy's beta.logpdf(x, a, b), bit for bit: inside [0, 1] the
    expression it runs, in its operation order, from scipy.special.

    scipy.special is imported here, at the first density, not with the
    package: it takes longer to load than the package and numpy together,
    and only scoring a model against ground truth needs it."""
    from scipy.special import betaln, xlog1py, xlogy

    if not (a > 0 and b > 0):
        return np.full(x.shape, np.nan)
    inside = (0.0 <= x) & (x <= 1.0)
    out = np.where(np.isnan(x), np.nan, -np.inf)
    x_in = x[inside]
    lp = xlog1py(b - 1.0, -x_in) + xlogy(a - 1.0, x_in)
    lp -= betaln(a, b)
    out[inside] = lp
    return out


def beta_product_log_density(points: np.ndarray, beta_params: np.ndarray) -> np.ndarray:
    """Log density of independent per-dimension Beta components.

    beta_params[j] = (a, b) of dimension j. Each dimension is scored exactly
    as SciPy's beta.logpdf scores it: -inf for a point outside the closed
    interval [0, 1] (the log density at 0 or 1 itself may be finite or
    +inf, as the parameters give), NaN for a NaN point, and NaN at every
    point when a or b is not > 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[0])
    for j in range(points.shape[1]):
        out += _beta_log_density(points[:, j], beta_params[j, 0], beta_params[j, 1])
    return out


@lru_cache(maxsize=8)
def _truth_on_grid(params: bytes, shape: tuple[int, ...]
                   ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each truth state of the float64 Beta parameters with these bytes
    and (T, d, 2) shape, its log density on quadrature_grid(d)'s points and
    its quadrature mass weights * exp(logp), both read-only. Built once per
    parameter set and kept: they depend on nothing a learned model holds."""
    points, weights = quadrature_grid(shape[1])
    states = []
    for state_params in np.frombuffer(params).reshape(shape):
        logp = beta_product_log_density(points, state_params)
        p_mass = weights * np.exp(logp)
        logp.flags.writeable = False
        p_mass.flags.writeable = False
        states.append((logp, p_mass))
    return tuple(states)


def _kl_costs(beta_params: np.ndarray, means: np.ndarray, covs: np.ndarray,
              factor: EmissionFactor | None = None) -> np.ndarray:
    """cost[i, j] = KL(truth state i || learned state j) by quadrature, for
    truth Beta parameters (T, d, 2) and learned means (S, d) and covariances
    (S, d, d), with `factor` their EmissionFactor if already built. Each
    learned state's log density and underflow mask is taken on the grid
    once per call, each truth state's from _truth_on_grid's cache, and every
    cell is kl_quadrature's estimate."""
    beta_params = np.asarray(beta_params, dtype=float)
    points, _ = quadrature_grid(beta_params.shape[1])
    logq = gaussian_log_density(points, means, covs, factor)  # (S, n)
    underflow = logq < LOG_TINY
    truth = _truth_on_grid(beta_params.tobytes(), beta_params.shape)
    return np.array([[_kl_estimate(logp, p_mass, q, under) for q, under in zip(logq, underflow)]
                     for logp, p_mass in truth])


def kl_observation(beta_params: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """KL(Beta-product truth || learned Gaussian) by quadrature, with the +inf
    sentinel; up to MAX_QUADRATURE_DIM observation dimensions."""
    one_state = (np.asarray(x, dtype=float)[None] for x in (beta_params, mean, cov))
    return float(_kl_costs(*one_state)[0, 0])


def _match(learned: PomdpModel, truth: GroundTruthEnv) -> tuple[tuple[int, ...], np.ndarray]:
    """The best bijection learned state -> truth state by total observation
    KL, and the KL cost matrix it was chosen from. Exhaustive over all
    permutations; ties go to the lexicographically smallest assignment."""
    cost = _kl_costs(truth.beta_params, learned.obs_means, learned.obs_covs,
                     learned.emission_factor)
    best = min(itertools.permutations(range(truth.num_states)),
               key=lambda perm: sum(cost[perm[j], j] for j in range(truth.num_states)))
    return best, cost


def _abs_deviation(est, truth) -> np.ndarray:
    """|est - truth| entrywise; the two must have one shape."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    return np.abs(est - truth)


def l1_transition_distance(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean over (state, action) rows of the row-wise L1 deviation."""
    return float(_abs_deviation(est, truth).sum(axis=-1).mean())


def l1_transition_total(est: np.ndarray, truth: np.ndarray) -> float:
    """Total absolute deviation summed over every tensor entry."""
    return float(_abs_deviation(est, truth).sum())


def evaluate_model(learned: PomdpModel, truth: GroundTruthEnv) -> EvalReport:
    """Match states, realign the learned model, and score it against truth.

    Each state's KL is read from the cost matrix the matching was chosen
    from, so every (truth, learned) pair is scored once. A learned model
    whose state count, action count or obs_dim differs from the truth's
    raises ValueError naming both.
    """
    for name, label in (("num_states", "state count"), ("num_actions", "action count"),
                        ("obs_dim", "obs_dim")):
        if getattr(learned, name) != getattr(truth, name):
            raise ValueError(f"{label} mismatch: learned {getattr(learned, name)}, "
                             f"truth {getattr(truth, name)}")
    matching, cost = _match(learned, truth)
    # matching[j] = truth index for learned state j; reorder learned states
    # into truth order before comparing tensors
    inverse = np.argsort(matching)
    est_trans = learned.transitions[inverse][:, :, inverse]
    return EvalReport(
        state_matching=matching,
        l1_transition=l1_transition_distance(est_trans, truth.transitions),
        l1_transition_total=l1_transition_total(est_trans, truth.transitions),
        kl_per_state={
            label: float(cost[i, inverse[i]]) for i, label in enumerate(truth.state_labels)
        },
        notes="initial state distribution fixed at uniform, never learned",
    )
