"""Standard EM for Gaussian-emission, action-conditioned hidden Markov models.

E-step: scaled forward-backward, run once per trajectory length on the
whole batch of trajectories of that length, with one stacked Cholesky
factorisation of all states' covariances for the batch's observations. M-step: closed-form maximum-likelihood
updates from pooled expected counts. The initial state distribution is held
fixed, never re-estimated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (
    DEFAULT_COV_RIDGE,
    PomdpModel,
    Trajectory,
    per_state_log_density,
    regularize_cov,
)

log = logging.getLogger(__name__)


class ForwardBackwardError(RuntimeError):
    """Observation likelihood underflowed to zero at some step.

    `trajectory` is the failing trajectory's position in the batch given to
    forward_backward; e_step names its index in the dataset instead.
    """

    def __init__(self, message: str, trajectory: int = 0):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Posteriors:
    """Smoothed posteriors for one trajectory.

    gamma[t, s] is the probability of state s at time t; xi[t, s, s2] the
    joint of (state t, state t+1), defined for t = 0..T-2 only.
    """

    gamma: np.ndarray
    xi: np.ndarray
    log_likelihood: float


@dataclass
class SufficientCounts:
    """Expected counts pooled over a dataset.

    trans[s, a, s2] expected transition uses; obs_weight[s] expected visits;
    obs_sum[s] weighted observation sum; obs_outer[s] weighted sum of
    observation outer products.
    """

    trans: np.ndarray
    obs_weight: np.ndarray
    obs_sum: np.ndarray
    obs_outer: np.ndarray

    @classmethod
    def zeros(cls, num_states: int, num_actions: int, obs_dim: int) -> "SufficientCounts":
        return cls(
            trans=np.zeros((num_states, num_actions, num_states)),
            obs_weight=np.zeros(num_states),
            obs_sum=np.zeros((num_states, obs_dim)),
            obs_outer=np.zeros((num_states, obs_dim, obs_dim)),
        )


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 200
    loglik_tolerance: float = 1e-6
    covariance_ridge: float = DEFAULT_COV_RIDGE

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.loglik_tolerance > 0:
            raise ValueError("loglik_tolerance must be > 0")
        if self.covariance_ridge < 0:
            raise ValueError("covariance_ridge must be >= 0")


@dataclass(frozen=True)
class EmResult:
    model: PomdpModel
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def forward_backward(model: PomdpModel, batch: Trajectory | Sequence[Trajectory]):
    """Scaled forward-backward smoothing, vectorised over trajectories.

    batch is one Trajectory, which gives its Posteriors, or a sequence of
    trajectories of one length, which gives their Posteriors in order. The
    batch's observations are scored in one per_state_log_density call.
    Emission densities are shifted by their per-step maximum before
    exponentiation, and messages are renormalized at every step; the log
    normalizers accumulate into the exact data log-likelihood.
    """
    single = isinstance(batch, Trajectory)
    trajs = [batch] if single else list(batch)
    num, horizon, num_states = len(trajs), len(trajs[0]), model.num_states
    if any(len(traj) != horizon for traj in trajs):
        raise ValueError("trajectories in one batch must have the same length")
    obs = np.concatenate([traj.observations for traj in trajs])
    log_b = per_state_log_density(model, obs).reshape(num, horizon, num_states)
    shift = log_b.max(axis=2)
    b = np.exp(log_b - shift[..., None])
    # trans[n, t] is the (state, next_state) matrix of the action at step t
    trans = model.transitions.transpose(1, 0, 2)[np.stack([traj.actions for traj in trajs])]

    alpha = np.empty((num, horizon, num_states))
    scale = np.empty((num, horizon))
    step = model.initial_dist * b[:, 0]
    for t in range(horizon):
        if t:
            step = (alpha[:, t - 1, None, :] @ trans[:, t - 1])[:, 0] * b[:, t]
        scale[:, t] = step.sum(axis=1)
        failed = np.flatnonzero(scale[:, t] <= 0.0)
        if failed.size:
            raise ForwardBackwardError(
                f"zero total observation likelihood at step {t}", int(failed[0])
            )
        alpha[:, t] = step / scale[:, t, None]

    beta = np.empty((num, horizon, num_states))
    beta[:, -1] = 1.0
    for t in range(horizon - 2, -1, -1):
        ahead = b[:, t + 1] * beta[:, t + 1] / scale[:, t + 1, None]
        beta[:, t] = (trans[:, t] @ ahead[..., None])[..., 0]

    gamma = alpha * beta
    ahead = b[:, 1:] * beta[:, 1:] / scale[:, 1:, None]
    xi = alpha[:, :-1, :, None] * trans * ahead[:, :, None, :]
    log_likelihood = np.log(scale).sum(axis=1) + shift.sum(axis=1)
    posteriors = [
        Posteriors(gamma=gamma[n], xi=xi[n], log_likelihood=float(log_likelihood[n]))
        for n in range(num)
    ]
    return posteriors[0] if single else posteriors


def accumulate_counts(
    dataset: list[Trajectory],
    posteriors: list[Posteriors],
    num_actions: int,
) -> SufficientCounts:
    """Pool posterior expectations over a dataset into sufficient counts.

    Trajectories and posteriors are joined along time, so lengths may
    differ; transition counts go through a one-hot encoding of the actions.
    """
    if len(dataset) != len(posteriors):
        raise ValueError("dataset and posteriors must be parallel lists")
    gamma = np.concatenate([post.gamma for post in posteriors])
    xi = np.concatenate([post.xi for post in posteriors])
    obs = np.concatenate([traj.observations for traj in dataset])
    actions = np.concatenate([traj.actions for traj in dataset])
    return SufficientCounts(
        trans=np.einsum("ma,msk->sak", np.eye(num_actions)[actions], xi),
        obs_weight=gamma.sum(axis=0),
        obs_sum=gamma.T @ obs,
        obs_outer=np.einsum("ts,td,te->sde", gamma, obs, obs),
    )


def _mstep_from_counts(
    counts: SufficientCounts, prev: PomdpModel, ridge: float
) -> PomdpModel:
    """Closed-form parameter updates from (possibly blended) counts.

    Zero-mass transition rows fall back to uniform; zero-mass states keep
    their previous observation parameters. Both fallbacks are logged.
    """
    num_states = prev.num_states
    row_mass = counts.trans.sum(axis=2)
    has_mass = row_mass > 0.0
    if not has_mass.all():
        for s, a in np.argwhere(~has_mass):
            log.debug("no transition mass for state %d action %d; using uniform", s, a)
    transitions = np.divide(
        counts.trans,
        row_mass[..., None],
        out=np.full(counts.trans.shape, 1.0 / num_states),
        where=has_mass[..., None],
    )

    live = counts.obs_weight > 0.0
    weight = np.where(live, counts.obs_weight, 1.0)
    mu = counts.obs_sum / weight[:, None]
    raw = counts.obs_outer / weight[:, None, None] - mu[:, :, None] * mu[:, None, :]
    means = np.where(live[:, None], mu, prev.obs_means)
    covs = prev.obs_covs.copy()
    for s in np.flatnonzero(live):
        covs[s] = regularize_cov(raw[s], ridge)
    if not live.all():
        for s in np.flatnonzero(~live):
            log.debug("no observation mass for state %d; keeping previous parameters", s)
    return PomdpModel(
        num_states=num_states,
        num_actions=prev.num_actions,
        obs_dim=prev.obs_dim,
        transitions=transitions,
        obs_means=means,
        obs_covs=covs,
        initial_dist=prev.initial_dist,
        state_labels=prev.state_labels,
    )


def m_step_standard(
    counts: SufficientCounts, prev: PomdpModel, config: EmConfig
) -> PomdpModel:
    """Maximum-likelihood M-step from empirical expected counts."""
    return _mstep_from_counts(counts, prev, config.covariance_ridge)


def e_step(model: PomdpModel, dataset: list[Trajectory]) -> tuple[list[Posteriors], float]:
    """Forward-backward over the dataset, one batch per trajectory length.

    Returns the posteriors in dataset order and the total log-likelihood.
    """
    by_length: dict[int, list[int]] = {}
    for i, traj in enumerate(dataset):
        by_length.setdefault(len(traj), []).append(i)
    posteriors: list[Posteriors] = [None] * len(dataset)
    for indices in by_length.values():
        try:
            batch = forward_backward(model, [dataset[i] for i in indices])
        except ForwardBackwardError as err:
            index = indices[err.trajectory]
            raise ForwardBackwardError(f"trajectory {index}: {err}", index) from err
        for i, post in zip(indices, batch):
            posteriors[i] = post
    return posteriors, float(sum(p.log_likelihood for p in posteriors))


def _fit(
    dataset: list[Trajectory],
    init: PomdpModel,
    config: EmConfig,
    m_step: Callable[[SufficientCounts, PomdpModel, int], PomdpModel],
) -> EmResult:
    """The EM loop both fitters share.

    Each iteration scores the current model with an E-step, stops once the
    log-likelihood improvement falls below the tolerance or the iteration
    budget runs out, and otherwise replaces the model with
    m_step(empirical counts, model, iteration).
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    model = init
    trace: list[float] = []
    converged = False
    for iteration in range(config.max_iterations + 1):
        try:
            posteriors, total = e_step(model, dataset)
        except ForwardBackwardError as err:
            raise ForwardBackwardError(f"iteration {iteration}: {err}", err.trajectory) from err
        trace.append(total)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < config.loglik_tolerance:
            converged = True
            break
        if iteration == config.max_iterations:
            break
        counts = accumulate_counts(dataset, posteriors, model.num_actions)
        model = m_step(counts, model, iteration)
    return EmResult(
        model=model, loglik_trace=trace, converged=converged, iterations=len(trace) - 1
    )


def run_em(
    dataset: list[Trajectory], init: PomdpModel, config: EmConfig | None = None
) -> EmResult:
    """Alternate E and M steps until the log-likelihood improvement falls
    below the tolerance or the iteration budget runs out.

    loglik_trace[i] is the total data log-likelihood of the model after i
    M-steps; entry 0 scores the initialization.
    """
    config = config or EmConfig()
    return _fit(
        dataset, init, config, lambda counts, model, _: m_step_standard(counts, model, config)
    )
