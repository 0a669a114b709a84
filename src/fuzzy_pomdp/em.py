"""Standard EM for Gaussian-emission, action-conditioned hidden Markov models.

A fit checks and prepares its dataset once, polish included, in one
constructor (_FitData): observations and actions joined in order, their
outer products and one-hot encoding, and for each trajectory length the
rows of its trajectories in the joined arrays. E-step: forward_backward,
scaled smoothing run once per length on all the trajectories of that
length, scoring their observations with the model's emission factor (its
covariances factored once per model) and raising ForwardBackwardError
there, with the dataset index, on a vanishing likelihood. One Posteriors
holds the results in dataset order and goes straight into the expected
counts, each pooled with one matmul. M-step: closed-form maximum-likelihood
updates from pooled expected counts, which a prior (fuzzy-MAP EM's) first
blends with its pseudo-counts. The initial state distribution is held
fixed, never re-estimated. One loop, `_fit`, runs every fit, fuzzy-MAP's
prior and plain-EM polish included, and returns an EmResult; with no data
it skips the E-step, which is prior-only fitting.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (PomdpModel, Trajectory, _fitted_covariances, _scoring_problems,
                    per_state_log_density)

log = logging.getLogger(__name__)


class ForwardBackwardError(RuntimeError):
    """Observation likelihood underflowed to zero, or was NaN, at some step.

    `trajectory` is the failing trajectory's index in the dataset.
    """

    def __init__(self, message: str, trajectory: int = 0):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True, eq=False)
class Posteriors:
    """Smoothed posteriors of one or more trajectories, joined along time.

    gamma (sum T, S): gamma[t, s] is the probability of state s at row t.
    xi (sum (T-1), S, S): the joint of (state t, state t+1), defined for each
    trajectory's t = 0..T-2 only. log_likelihoods (N,) holds one value per
    trajectory, and starts (N+1,) the offset of each one's first row in
    gamma. Indexing or iterating gives each trajectory's own Posteriors.
    """

    gamma: np.ndarray
    xi: np.ndarray
    log_likelihoods: np.ndarray
    starts: np.ndarray

    @property
    def log_likelihood(self) -> float:
        return float(sum(self.log_likelihoods.tolist()))

    def __len__(self) -> int:
        return len(self.log_likelihoods)

    def __getitem__(self, i: int) -> "Posteriors":
        i = range(len(self))[i]
        lo, hi = self.starts[i], self.starts[i + 1]
        return Posteriors(
            gamma=self.gamma[lo:hi],
            xi=self.xi[lo - i:hi - i - 1],
            log_likelihoods=self.log_likelihoods[i:i + 1],
            starts=np.array([0, hi - lo]),
        )


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

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.loglik_tolerance > 0:
            raise ValueError("loglik_tolerance must be > 0")


@dataclass(frozen=True)
class EmResult:
    model: PomdpModel
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    # fuzzy-MAP EM only, left empty by plain EM: _mass_ratios per M-step, and
    # the expected firing strength per (state, action, rule) at the last one
    prior_data_ratios: list[tuple[float, float]] = field(default_factory=list)
    final_matchant: np.ndarray | None = None


class _Length(NamedTuple):
    """The trajectories of one length in a _FitData, by index into its
    joined arrays: their dataset indices (n,), their rows in obs and gamma
    (n*T,) and in xi (n*(T-1),), their observations (n*T, d) and their
    actions (n, T-1)."""

    trajectories: np.ndarray
    rows: np.ndarray
    xi_rows: np.ndarray
    obs: np.ndarray
    actions: np.ndarray


class _FitData(tuple):
    """A dataset checked and prepared once per fit for a model with
    num_actions actions and obs_dim-dimensional observations: its
    trajectories, as a tuple, plus every array the E-step and count pooling
    read. A ValueError refuses an empty dataset, or names each trajectory
    such a model cannot score ("invalid dataset: trajectory <i>: ...").

    obs, actions: the observations and actions joined in dataset order.
    starts: (N+1,) offsets of each trajectory's first row in obs.
    by_length: one _Length per distinct trajectory length, in order of
    first appearance. obs_pairs: (sum T, d*d), each row's observation outer
    product, flattened; one_hot: (sum (T-1), num_actions), the actions'
    one-hot encoding; both read-only.
    """

    def __new__(cls, dataset, num_actions: int, obs_dim: int):
        self = super().__new__(cls, dataset)
        if not self:
            raise ValueError("dataset must be non-empty")
        problems = [f"trajectory {i}: {msg}" for i, traj in enumerate(self)
                    for msg in _scoring_problems(traj, num_actions, obs_dim)]
        if problems:
            raise ValueError("invalid dataset: " + "; ".join(problems))
        lengths = [len(traj) for traj in self]
        self.starts = np.concatenate([[0], np.cumsum(lengths)])
        self.obs = obs = np.concatenate([traj.observations for traj in self])
        self.actions = np.concatenate([traj.actions for traj in self])
        with np.errstate(invalid="ignore"):  # inf * 0: the E-step names that observation
            self.obs_pairs = (obs[:, :, None] * obs[:, None, :]).reshape(len(obs), -1)
        self.one_hot = np.eye(num_actions)[self.actions]
        self.obs_pairs.flags.writeable = self.one_hot.flags.writeable = False
        groups: dict[int, list[int]] = {}
        for i, length in enumerate(lengths):
            groups.setdefault(length, []).append(i)
        self.by_length = []
        for length, members in groups.items():
            index = np.array(members)
            # trajectory i's rows start at starts[i] in obs, at starts[i] - i in xi
            rows = (self.starts[index][:, None] + np.arange(length)).ravel()
            xi_rows = (self.starts[index] - index)[:, None] + np.arange(length - 1)
            self.by_length.append(_Length(index, rows, xi_rows.ravel(), obs[rows],
                                          self.actions[xi_rows]))
        return self


def _prepared(dataset: Sequence[Trajectory], num_actions: int, obs_dim: int) -> _FitData:
    """The dataset itself if a fit already prepared it, else its _FitData."""
    return dataset if isinstance(dataset, _FitData) else _FitData(dataset, num_actions, obs_dim)


def _smooth(model: PomdpModel, length: _Length):
    """(gamma, xi, log_likelihoods) of the n trajectories of one length T in
    a _FitData, from their (n*T, d) observations and (n, T-1) actions; a
    ForwardBackwardError names the first failing step and a trajectory
    failing there, by its dataset index."""
    num, steps = length.actions.shape
    horizon, num_states = steps + 1, model.num_states
    # a trajectory whose likelihood vanishes, or that holds a non-finite
    # observation, turns NaN from that step on, in its scores, their shift
    # and its forward messages, without touching the others; it is
    # reported once the pass is done
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = per_state_log_density(model, length.obs).reshape(num, horizon, num_states)
        # ufunc reductions, the ones the ndarray methods run, without the methods' wrappers
        shift = np.maximum.reduce(log_b, 2)
        b = np.exp(log_b - shift[..., None])
        # trans[n, t] is the (state, next_state) matrix of the action at step t
        trans = model.transitions.transpose(1, 0, 2)[length.actions]
        m = trans * b[:, 1:, None, :]

        # forward messages step by step, each a (num, 1, S) row batch
        steps = m.transpose(1, 0, 2, 3)
        step = (model.initial_dist * b[:, 0])[:, None, :]
        alphas, scales = [], []
        for t in range(horizon):
            if t:
                step = alphas[-1] @ steps[t - 1]
            scales.append(np.add.reduce(step, 2, keepdims=True))
            alphas.append(step / scales[-1])
    alpha = np.concatenate(alphas, axis=1)
    scale = np.concatenate(scales, axis=1)[..., 0]
    # NaN scales (a NaN observation or parameter) fail too
    scored = scale > 0.0
    if not np.logical_and.reduce(scored, None):
        failed = ~scored
        t = int(failed.any(axis=0).argmax())
        index = int(length.trajectories[failed[:, t].argmax()])
        raise ForwardBackwardError(
            f"trajectory {index}: zero or NaN total observation likelihood at step {t}", index)

    # beta[n, t] = m[n, t] @ beta[n, t+1] / scale[n, t+1], the scale folded into m
    m /= scale[:, 1:, None, None]
    beta = np.empty((num, horizon, num_states, 1))
    beta[:, -1] = 1.0
    for t in range(horizon - 2, -1, -1):
        np.matmul(m[:, t], beta[:, t + 1], out=beta[:, t])
    beta = beta[..., 0]

    gamma = alpha * beta
    xi = alpha[:, :-1, :, None] * m * beta[:, 1:, None, :]
    return (gamma.reshape(num * horizon, num_states),
            xi.reshape(num * (horizon - 1), num_states, num_states),
            np.add.reduce(np.log(scale), 1) + np.add.reduce(shift, 1))


def forward_backward(model: PomdpModel, dataset: Trajectory | Sequence[Trajectory]) -> Posteriors:
    """Scaled forward-backward smoothing, vectorised over trajectories.

    dataset is one Trajectory, a list of trajectories of any lengths,
    checked as a fit checks them, or a fit's prepared data; it gives one
    Posteriors in dataset order. The trajectories of each length are
    smoothed together, their observations scored in one
    per_state_log_density call with the model's emission factor. Emission
    densities are shifted by their per-step maximum before exponentiation,
    and messages are renormalized at every step; the log normalizers
    accumulate into the exact data log-likelihood.

    Each step's transition matrix is weighted once by the emission density
    it lands on, m[n, t] = trans[n, t] * b[n, t+1]; the forward and the
    backward pass then take one matmul per step with it, and xi is the
    outer product of the messages around it.

    A density can differ in the last ulp with the number of rows scored
    together, so one trajectory smoothed alone can differ in the last ulp
    from its posteriors inside a larger dataset. A ForwardBackwardError
    names the failing trajectory's dataset index.
    """
    data = _prepared([dataset] if isinstance(dataset, Trajectory) else dataset,
                     model.num_actions, model.obs_dim)
    parts = [_smooth(model, length) for length in data.by_length]
    if len(parts) == 1:
        gamma, xi, log_likelihoods = parts[0]
    else:
        num_states = model.num_states
        gamma = np.empty((len(data.obs), num_states))
        xi = np.empty((len(data.actions), num_states, num_states))
        log_likelihoods = np.empty(len(data))
        for length, (part_gamma, part_xi, part_ll) in zip(data.by_length, parts):
            gamma[length.rows] = part_gamma
            xi[length.xi_rows] = part_xi
            log_likelihoods[length.trajectories] = part_ll
    return Posteriors(gamma=gamma, xi=xi, log_likelihoods=log_likelihoods, starts=data.starts)


def accumulate_counts(
    dataset: Sequence[Trajectory], posteriors: Posteriors, model: PomdpModel
) -> SufficientCounts:
    """Pool the posteriors that e_step gives dataset under model into
    sufficient counts, one matmul each: transitions against a one-hot
    encoding of the actions, outer products as gamma.T @ obs_pairs. A list
    of trajectories is checked against model first, as e_step checks it.
    """
    data = _prepared(dataset, model.num_actions, model.obs_dim)
    if len(data) != len(posteriors):
        raise ValueError("dataset and posteriors must be parallel lists")
    gamma, xi = posteriors.gamma, posteriors.xi
    num_states, obs_dim = gamma.shape[1], data.obs.shape[1]
    trans = data.one_hot.T @ xi.reshape(len(xi), num_states * num_states)
    return SufficientCounts(
        trans=trans.reshape(model.num_actions, num_states, num_states).transpose(1, 0, 2),
        obs_weight=np.add.reduce(gamma, 0),
        obs_sum=gamma.T @ data.obs,
        obs_outer=(gamma.T @ data.obs_pairs).reshape(num_states, obs_dim, obs_dim),
    )


def _divided(counts: SufficientCounts, row_mass: np.ndarray, weight: np.ndarray):
    """Transition rows, means and covariances: each count over its mass."""
    means = counts.obs_sum / weight[:, None]
    covs = counts.obs_outer / weight[:, None, None] - means[:, :, None] * means[:, None, :]
    return counts.trans / row_mass[..., None], means, covs


def _mstep_from_counts(counts: SufficientCounts, prev: PomdpModel) -> PomdpModel:
    """Closed-form parameter updates from (possibly blended) counts.

    Every transition row and every state's moments are divided directly;
    then, and only where they fire, the fallbacks overwrite them: a row
    without transition mass becomes uniform, and a state without
    observation mass keeps its previous mean and covariance. Both fallbacks
    are logged. A row or state without mass is divided by 1 rather than 0,
    so no division needs an np.errstate. The covariances are then
    regularized and factored in one pass (model._fitted_covariances); a
    covariance regularize_cov rejects, or a stack that does not factor,
    raises CovarianceError naming its state. The new model holds the
    arrays made here, frozen in place, and the emission factor of its
    covariances (PomdpModel._adopting), so no later read builds it.
    """
    num_states = prev.num_states
    # ufunc reductions, the ones the ndarray methods run, without the methods' wrappers
    row_mass = np.add.reduce(counts.trans, 2)
    weight = counts.obs_weight
    has_mass, live = row_mass > 0.0, weight > 0.0
    all_rows, all_live = np.logical_and.reduce(has_mass, None), np.logical_and.reduce(live, None)
    if all_rows and all_live:
        transitions, means, covs = _divided(counts, row_mass, weight)
    else:
        transitions, means, covs = _divided(counts, np.where(has_mass, row_mass, 1.0),
                                            np.where(live, weight, 1.0))
    if not all_rows:
        for s, a in np.argwhere(~has_mass):
            log.debug("no transition mass for state %d action %d; using uniform", s, a)
            transitions[s, a] = 1.0 / num_states
    if not all_live:
        frozen = np.flatnonzero(~live)
        means[frozen] = prev.obs_means[frozen]
        covs[frozen] = prev.obs_covs[frozen]
    covs, factor = _fitted_covariances(covs, None if all_live else live)
    if not all_live:
        for s in frozen:
            log.debug("no observation mass for state %d; keeping previous parameters", s)
    return PomdpModel._adopting(prev, transitions, means, covs, factor)


def m_step_standard(
    counts: SufficientCounts, prev: PomdpModel, config: EmConfig
) -> PomdpModel:
    """Maximum-likelihood M-step from expected counts, blended or not."""
    return _mstep_from_counts(counts, prev)


def _blend(empirical: SufficientCounts, pseudo: SufficientCounts,
           lambda_t: float, lambda_o: float) -> SufficientCounts:
    """empirical + lambda * pseudo per field, lambda_t on the transitions and
    lambda_o on the rest; adding 0.0 leaves every count bit-identical."""
    return SufficientCounts(
        trans=empirical.trans + lambda_t * pseudo.trans,
        obs_weight=empirical.obs_weight + lambda_o * pseudo.obs_weight,
        obs_sum=empirical.obs_sum + lambda_o * pseudo.obs_sum,
        obs_outer=empirical.obs_outer + lambda_o * pseudo.obs_outer,
    )


def _mass_ratios(empirical: SufficientCounts, pseudo: SufficientCounts,
                 lambda_t: float, lambda_o: float) -> tuple[float, float]:
    """(lambda_t * pseudo / empirical transition mass, lambda_o * pseudo /
    empirical observation mass), inf on zero empirical mass."""
    # np.add.reduce(x, None) is what x.sum() runs, without its wrapper
    t_data = float(np.add.reduce(empirical.trans, None))
    o_data = float(np.add.reduce(empirical.obs_weight, None))
    t_prior = lambda_t * float(np.add.reduce(pseudo.trans, None))
    o_prior = lambda_o * float(np.add.reduce(pseudo.obs_weight, None))
    return (t_prior / t_data if t_data > 0 else math.inf,
            o_prior / o_data if o_data > 0 else math.inf)


def e_step(
    model: PomdpModel, dataset: Sequence[Trajectory]
) -> tuple[Posteriors, float]:
    """forward_backward's posteriors of dataset, in dataset order, and
    their total log-likelihood."""
    posteriors = forward_backward(model, dataset)
    return posteriors, posteriors.log_likelihood


def _max_param_delta(a: PomdpModel, b: PomdpModel) -> float:
    return max(
        float(np.abs(a.transitions - b.transitions).max()),
        float(np.abs(a.obs_means - b.obs_means).max()),
        float(np.abs(a.obs_covs - b.obs_covs).max()),
    )


def _score(model: PomdpModel, data: _FitData, iteration: int, trace: list[float]) -> Posteriors:
    """E-step of a fit, its log-likelihood appended to the trace; a
    ForwardBackwardError names the fit's iteration."""
    try:
        posteriors, total = e_step(model, data)
    except ForwardBackwardError as err:
        raise ForwardBackwardError(f"iteration {iteration}: {err}", err.trajectory) from err
    trace.append(total)
    return posteriors


def _fit(
    dataset: Sequence[Trajectory],
    init: PomdpModel,
    config: EmConfig,
    prior: tuple[float, float, Callable] | None = None,
    polish: int = 0,
) -> EmResult:
    """The EM loop every fit runs, prior-only fitting and polish included.

    On data, one E-step scores the init. Up to `config.max_iterations`
    M-steps m_step_standard follow, then up to `polish` more, each new model
    scored by an E-step. In the first phase a prior (lambda_t, lambda_o,
    pseudo_counts) blends (_blend) pseudo_counts(model, iteration)[0] into
    each M-step's counts; the fit records their _mass_ratios and the last
    match matrix, [1]. Each phase stops once the log-likelihood improvement
    falls below the tolerance; the polish continues the trace without
    rescoring the model it starts from. An empty dataset skips the E-step:
    the counts are zeros, the trace stays empty, and the phase stops once
    no parameter moves by the tolerance or more in an M-step. `converged`
    is the first phase's; `iterations` counts M-steps across both phases,
    and a ForwardBackwardError names that count. dataset is a list of
    trajectories or a fit's prepared data.
    """
    data = _prepared(dataset, init.num_actions, init.obs_dim) if dataset else None
    model, trace, iterations, converged = init, [], 0, []
    ratios, matchant = [], None
    if data is not None:
        posteriors = _score(model, data, iterations, trace)
    for phase_prior, budget in ((prior, config.max_iterations), (None, polish)):
        converged.append(False)
        for _ in range(budget):
            if data is None:
                counts = SufficientCounts.zeros(model.num_states, model.num_actions, model.obs_dim)
            else:
                counts = accumulate_counts(data, posteriors, model)
            if phase_prior is not None:
                lambda_t, lambda_o, pseudo_counts = phase_prior
                pseudo, matchant = pseudo_counts(model, iterations)
                ratios.append(_mass_ratios(counts, pseudo, lambda_t, lambda_o))
                counts = _blend(counts, pseudo, lambda_t, lambda_o)
            previous, model = model, m_step_standard(counts, model, config)
            iterations += 1
            if data is None:
                change = _max_param_delta(previous, model)
            else:
                posteriors = _score(model, data, iterations, trace)
                change = abs(trace[-1] - trace[-2])
            if change < config.loglik_tolerance:
                converged[-1] = True
                break
    return EmResult(model, trace, converged[0], iterations, ratios, matchant)


def run_em(
    dataset: Sequence[Trajectory], init: PomdpModel, config: EmConfig | None = None
) -> EmResult:
    """Alternate E and M steps until the log-likelihood improvement falls
    below the tolerance or the iteration budget runs out.

    loglik_trace[i] is the total data log-likelihood of the model after i
    M-steps; entry 0 scores the initialization. dataset is a list of
    trajectories or a fit's prepared data; a trajectory the init cannot
    score raises ValueError before the first E-step.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    return _fit(dataset, init, config or EmConfig())
