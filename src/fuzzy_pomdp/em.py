"""Standard EM for Gaussian-emission, action-conditioned hidden Markov models.

A fit prepares its dataset once, polish included: observations and actions
joined in order, their outer products, and one such preparation per
trajectory length. E-step: scaled forward-backward, run once per length on
the whole group of that length, scoring the group's observations with the
model's emission factor (its covariances factored once per model); one
Posteriors joins the results in dataset order and goes straight into the
expected counts, each pooled with one matmul. M-step: closed-form
maximum-likelihood updates from pooled expected counts, which fuzzy-MAP EM
first blends with its pseudo-counts. The initial state distribution is held
fixed, never re-estimated. One loop, `_fit`, runs every fit, fuzzy-MAP's
plain-EM polish included, and returns an EmResult; with no data it skips
the E-step, which is fuzzy-MAP's prior-only fitting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .model import (_PSD_ATOL, DEFAULT_COV_RIDGE, CovarianceError, PomdpModel, Trajectory,
                    _all_finite, _scoring_problems, per_state_log_density, regularize_cov)

log = logging.getLogger(__name__)


class ForwardBackwardError(RuntimeError):
    """Observation likelihood underflowed to zero, or was NaN, at some step.

    `trajectory` is the failing trajectory's position in the batch given to
    forward_backward; e_step names its index in the dataset instead.
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
    # fuzzy-MAP EM only, left empty by plain EM: per M-step, (lambda_t * fuzzy
    # / empirical transition mass, lambda_o * fuzzy / empirical observation
    # mass), inf on zero empirical mass; and the expected firing strength per
    # (state, action, rule) at the last iteration
    prior_data_ratios: list[tuple[float, float]] = field(default_factory=list)
    final_matchant: np.ndarray | None = None


def _rows(lengths: np.ndarray, order: np.ndarray) -> np.ndarray:
    """For each row in dataset order, its row in the arrays joined in `order`."""
    ends = np.empty_like(lengths)
    ends[order] = np.cumsum(lengths[order])
    return np.concatenate([np.arange(end - n, end) for n, end in zip(lengths, ends)])


class _FitData(tuple):
    """A dataset prepared once per fit: its trajectories, as a tuple, plus
    the arrays that every E-step and count pooling read.

    obs, actions: the observations and actions joined in dataset order.
    starts: (N+1,) offsets of each trajectory's first row in obs.
    obs_pairs: (sum T, d*d) read-only, each row's observation outer
    product, flattened; built on first use and kept.
    indices: the trajectories' positions in the dataset a length group was
    taken from. groups: one _FitData per distinct length, in order of first
    appearance; a dataset whose trajectories share one length is its own
    only group. order: None for such a dataset; otherwise the (gamma rows,
    xi rows, trajectories) that put the groups' joined results back in
    dataset order. one_hot(A) gives the actions' one-hot encoding.
    """

    def __new__(cls, dataset, indices=None):
        self = super().__new__(cls, dataset)
        if not self:
            raise ValueError("dataset must be non-empty")
        lengths = np.array([len(traj) for traj in self])
        self.indices = np.arange(len(self)) if indices is None else indices
        self.starts = np.concatenate([[0], np.cumsum(lengths)])
        self.obs = np.concatenate([traj.observations for traj in self])
        self.actions = np.concatenate([traj.actions for traj in self])
        by_length: dict[int, list[int]] = {}
        for i, length in enumerate(lengths.tolist()):
            by_length.setdefault(length, []).append(i)
        self._groups = self.order = None
        self._one_hot: dict[int, np.ndarray] = {}
        if len(by_length) > 1:
            self._groups = tuple(
                cls([self[i] for i in group], np.array(group)) for group in by_length.values()
            )
            order = np.concatenate([group.indices for group in self._groups])
            self.order = (_rows(lengths, order), _rows(lengths - 1, order), np.argsort(order))
        return self

    @property
    def groups(self) -> tuple["_FitData", ...]:
        return self._groups or (self,)

    @cached_property
    def obs_pairs(self) -> np.ndarray:
        obs = self.obs
        pairs = (obs[:, :, None] * obs[:, None, :]).reshape(len(obs), -1)
        pairs.flags.writeable = False
        return pairs

    def one_hot(self, num_actions: int) -> np.ndarray:
        """(sum (T-1), num_actions) read-only one-hot encoding of actions,
        built once per action count and kept."""
        table = self._one_hot.get(num_actions)
        if table is None:
            table = np.eye(num_actions)[self.actions]
            table.flags.writeable = False
            self._one_hot[num_actions] = table
        return table


def _prepared(dataset: Sequence[Trajectory], num_actions: int, obs_dim: int) -> _FitData:
    """The dataset itself if a fit already prepared it, else its preparation,
    after a ValueError has named each trajectory that a model with
    num_actions actions and obs_dim-dimensional observations cannot score."""
    if isinstance(dataset, _FitData):
        return dataset
    problems = [f"trajectory {i}: {msg}" for i, traj in enumerate(dataset)
                for msg in _scoring_problems(traj, num_actions, obs_dim)]
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems))
    return _FitData(dataset)


def forward_backward(model: PomdpModel, batch: Trajectory | Sequence[Trajectory]):
    """Scaled forward-backward smoothing, vectorised over trajectories.

    batch is one Trajectory or a sequence of trajectories of one length;
    either gives one Posteriors, joined in order. The batch's observations
    are scored in one per_state_log_density call, with the model's emission
    factor. Emission densities are shifted by their per-step maximum before
    exponentiation, and messages are renormalized at every step; the log
    normalizers accumulate into the exact data log-likelihood.

    Each step's transition matrix is weighted once by the emission density
    it lands on, m[n, t] = trans[n, t] * b[n, t+1]; the forward and the
    backward pass then take one matmul per step with it, and xi is the
    outer product of the messages around it.

    A density can differ in the last ulp with the number of rows scored
    together, so one trajectory smoothed alone can differ in the last ulp
    from its posteriors inside a batch or an e_step.
    """
    batch = _prepared([batch] if isinstance(batch, Trajectory) else batch,
                      model.num_actions, model.obs_dim)
    if batch.order is not None:
        raise ValueError("trajectories in one batch must have the same length")
    num, horizon, num_states = len(batch), len(batch[0]), model.num_states
    log_b = per_state_log_density(model, batch.obs).reshape(num, horizon, num_states)
    # ufunc reductions, the ones the ndarray methods run, without the methods' wrappers
    shift = np.maximum.reduce(log_b, 2)
    b = np.exp(log_b - shift[..., None])
    # trans[n, t] is the (state, next_state) matrix of the action at step t
    trans = model.transitions.transpose(1, 0, 2)[batch.actions.reshape(num, horizon - 1)]
    m = trans * b[:, 1:, None, :]

    # forward messages step by step, each a (num, 1, S) row batch
    steps = m.transpose(1, 0, 2, 3)
    step = (model.initial_dist * b[:, 0])[:, None, :]
    alphas, scales = [], []
    # a trajectory whose likelihood vanishes turns NaN from that step on,
    # without touching the others; it is reported once the pass is done
    with np.errstate(divide="ignore", invalid="ignore"):
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
        raise ForwardBackwardError(
            f"zero or NaN total observation likelihood at step {t}", int(failed[:, t].argmax())
        )

    # beta[n, t] = m[n, t] @ beta[n, t+1] / scale[n, t+1], the scale folded into m
    m /= scale[:, 1:, None, None]
    beta = np.empty((num, horizon, num_states, 1))
    beta[:, -1] = 1.0
    for t in range(horizon - 2, -1, -1):
        np.matmul(m[:, t], beta[:, t + 1], out=beta[:, t])
    beta = beta[..., 0]

    gamma = alpha * beta
    xi = alpha[:, :-1, :, None] * m * beta[:, 1:, None, :]
    return Posteriors(
        gamma=gamma.reshape(num * horizon, num_states),
        xi=xi.reshape(num * (horizon - 1), num_states, num_states),
        log_likelihoods=np.add.reduce(np.log(scale), 1) + np.add.reduce(shift, 1),
        starts=batch.starts,
    )


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
    trans = data.one_hot(model.num_actions).T @ xi.reshape(len(xi), num_states * num_states)
    return SufficientCounts(
        trans=trans.reshape(model.num_actions, num_states, num_states).transpose(1, 0, 2),
        obs_weight=np.add.reduce(gamma, 0),
        obs_sum=gamma.T @ data.obs,
        obs_outer=(gamma.T @ data.obs_pairs).reshape(num_states, obs_dim, obs_dim),
    )


def _regularized(stack: np.ndarray, states: Sequence[int], ridge: float) -> np.ndarray:
    """regularize_cov(cov, ridge) for each cov of an (n, d, d) stack, the
    covariances of `states`, stacked.

    The stack is checked in one pass: one finiteness check, one symmetrize
    and one stacked eigvalsh, whose eigenvalues are those of each matrix
    alone. regularize_cov itself then runs only on the states it would
    lift or reject, in state order, so every lift is still one call of it.
    A non-finite stack goes through regularize_cov state by state, so the
    first failing state raises, as in a per-state loop. A rejected
    covariance raises CovarianceError naming its state.
    """
    if _all_finite(stack):
        sym = 0.5 * (stack + stack.swapaxes(-1, -2))
        bound = ridge if ridge > 0.0 else -_PSD_ATOL
        smallest = np.linalg.eigvalsh(sym)[:, 0].tolist()
        check = [i for i, eig in enumerate(smallest) if eig < bound]
    else:
        sym, check = stack, range(len(states))
    for i in check:
        try:
            sym[i] = regularize_cov(stack[i], ridge)
        except CovarianceError as err:
            raise CovarianceError(f"state {states[i]}: {err}") from None
    return sym


def _divided(counts: SufficientCounts, row_mass: np.ndarray, weight: np.ndarray):
    """Transition rows, means and covariances: each count over its mass."""
    means = counts.obs_sum / weight[:, None]
    covs = counts.obs_outer / weight[:, None, None] - means[:, :, None] * means[:, None, :]
    return counts.trans / row_mass[..., None], means, covs


def _mstep_from_counts(
    counts: SufficientCounts, prev: PomdpModel, ridge: float
) -> PomdpModel:
    """Closed-form parameter updates from (possibly blended) counts.

    Every transition row and every state's moments are divided directly;
    then, and only where they fire, the fallbacks overwrite them: a row
    without transition mass becomes uniform, and a state without
    observation mass keeps its previous mean and covariance. Both fallbacks
    are logged. The covariances of the states with mass are regularized as
    one stack (_regularized); a covariance regularize_cov rejects raises
    CovarianceError naming its state. The new model holds the arrays made
    here, frozen in place (PomdpModel._adopting).
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
        # a row or state without mass divides 0 by 0, and is overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            transitions, means, covs = _divided(counts, row_mass, weight)
    if not all_rows:
        for s, a in np.argwhere(~has_mass):
            log.debug("no transition mass for state %d action %d; using uniform", s, a)
            transitions[s, a] = 1.0 / num_states
    if all_live:
        covs = _regularized(covs, range(num_states), ridge)
    else:
        states = np.flatnonzero(live)
        covs[states] = _regularized(covs[states], states, ridge)
        for s in np.flatnonzero(~live):
            log.debug("no observation mass for state %d; keeping previous parameters", s)
            means[s] = prev.obs_means[s]
            covs[s] = prev.obs_covs[s]
    return PomdpModel._adopting(prev, transitions, means, covs)


def m_step_standard(
    counts: SufficientCounts, prev: PomdpModel, config: EmConfig
) -> PomdpModel:
    """Maximum-likelihood M-step from empirical expected counts."""
    return _mstep_from_counts(counts, prev, DEFAULT_COV_RIDGE)


def e_step(
    model: PomdpModel, dataset: Sequence[Trajectory]
) -> tuple[Posteriors, float]:
    """Forward-backward over the dataset, one batch per trajectory length.

    dataset is a list of trajectories, checked as a fit checks them, or a
    fit's prepared data. Returns the posteriors joined in dataset order and
    the total log-likelihood. Each trajectory is scored with its length
    group, so its posteriors can differ in the last ulp from
    forward_backward on that trajectory alone.
    """
    data = _prepared(dataset, model.num_actions, model.obs_dim)
    parts = []
    for batch in data.groups:
        try:
            parts.append(forward_backward(model, batch))
        except ForwardBackwardError as err:
            index = int(batch.indices[err.trajectory])
            raise ForwardBackwardError(f"trajectory {index}: {err}", index) from err
    if data.order is None:
        posteriors = parts[0]
    else:
        gamma_rows, xi_rows, trajectories = data.order
        posteriors = Posteriors(
            gamma=np.concatenate([part.gamma for part in parts])[gamma_rows],
            xi=np.concatenate([part.xi for part in parts])[xi_rows],
            log_likelihoods=np.concatenate([part.log_likelihoods for part in parts])[trajectories],
            starts=data.starts,
        )
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
    m_step: Callable[[SufficientCounts, PomdpModel, int], PomdpModel] | None = None,
    polish: int = 0,
) -> EmResult:
    """The EM loop every fit runs, prior-only fitting and polish included.

    On data, one E-step scores the init. Up to `config.max_iterations`
    M-steps m_step(empirical counts, model, iteration) follow, then up to
    `polish` plain ones (m_step None is plain EM's), each new model scored
    by an E-step. Each phase stops once the log-likelihood improvement falls
    below the tolerance; the polish continues the trace without rescoring
    the model it starts from. An empty dataset skips the E-step: m_step
    gets zero counts, the trace stays empty, and the phase stops once no
    parameter moves by the tolerance or more in an M-step. `converged` is
    the first phase's; `iterations` counts M-steps across both phases, and
    a ForwardBackwardError names that count. dataset is a list of
    trajectories or a fit's prepared data.
    """
    def plain(counts: SufficientCounts, model: PomdpModel, _: int) -> PomdpModel:
        return m_step_standard(counts, model, config)

    data = _prepared(dataset, init.num_actions, init.obs_dim) if dataset else None
    model, trace, iterations, converged = init, [], 0, []
    if data is not None:
        posteriors = _score(model, data, iterations, trace)
    for step, budget in ((m_step or plain, config.max_iterations), (plain, polish)):
        converged.append(False)
        for _ in range(budget):
            if data is None:
                counts = SufficientCounts.zeros(model.num_states, model.num_actions, model.obs_dim)
            else:
                counts = accumulate_counts(data, posteriors, model)
            previous, model = model, step(counts, model, iterations)
            iterations += 1
            if data is None:
                change = _max_param_delta(previous, model)
            else:
                posteriors = _score(model, data, iterations, trace)
                change = abs(trace[-1] - trace[-2])
            if change < config.loglik_tolerance:
                converged[-1] = True
                break
    return EmResult(model=model, loglik_trace=trace, converged=converged[0], iterations=iterations)


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
