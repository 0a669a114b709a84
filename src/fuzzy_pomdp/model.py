"""Core POMDP data model.

Holds the learnable parameters (action-conditioned transition tensor plus a
Gaussian observation model per latent state), patient trajectories, and the
ground-truth simulation environments with per-state Beta emitters used for
benchmarking. All containers are immutable value objects; sampling takes an
explicit numpy Generator.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy._core.multiarray import c_einsum as _einsum
from numpy.linalg import LinAlgError, _umath_linalg

DEFAULT_COV_RIDGE = 1e-6
# regularize_cov rejects a lifted covariance with an eigenvalue below -_PSD_ATOL
_PSD_ATOL = 1e-12
# tolerance on a probability vector's sum and on its negative entries
STOCHASTIC_ATOL = 1e-9
# numpy Generator.choice's tolerance on the sum of its probability vector
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)
_LOG_2PI = np.log(2.0 * np.pi)

# Policy: callable (time_step, rng) -> action index. The Generator is named
# as a string, so that importing the package does not load numpy.random
Policy = Callable[[int, "np.random.Generator"], int]


class CovarianceError(ValueError):
    """A covariance matrix is unusable even after regularization."""


# The fit path calls the compiled kernels behind numpy.linalg's cholesky,
# inv, eigvalsh, solve and det, and behind np.einsum, directly: on a few
# 2x2 or 3x3 matrices the wrappers' per-call Python costs more than the
# kernels' arithmetic. The linalg wrappers check that the input is a stack
# of square matrices, pick a float type and cast the input and the result
# to it, and wrap the result for ndarray subclasses; np.einsum, when not
# optimizing, only forwards to c_einsum. Every array passed to these
# bindings is a float64 ndarray stack of square matrices by construction (a
# model's covariances, and arrays built from them), so the checks cannot
# fail, the casts copy nothing, and "d->d" / "dd->d" is the loop the
# wrapper would pick. The wrappers' error rule is kept. A kernel that
# cannot factor, invert or diagonalize a matrix fills it with NaN and sets
# the invalid flag, and clears every flag when it succeeds. The cholesky,
# inv, eigvalsh and solve wrappers each enter an np.errstate that raises on
# that flag and ignores overflow, division and underflow, and raise
# LinAlgError. Their bindings leave that np.errstate to the caller, as
# _kernel_errors(), entered once around all of its kernel calls (an
# M-step's eigvalsh, Cholesky and inverse share one); each binding turns
# the raised flag into its own wrapper's LinAlgError, so the three stay
# told apart. det's wrapper enters no errstate, nor does _det.
# regularize_cov, which takes a caller's matrix of any shape and runs on a
# fit only to lift or reject one state, keeps numpy.linalg.eigvalsh.

def _kernel_errors() -> np.errstate:
    """The np.errstate of numpy.linalg's cholesky, inv, eigvalsh and solve
    wrappers: the invalid flag raises, and no other flag warns."""
    return np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _kernel(gufunc, signature: str, message: str):
    """gufunc(*arrays), called under _kernel_errors(): the invalid flag,
    which raises there, becomes LinAlgError(message)."""
    def call(*arrays):
        try:
            return gufunc(*arrays, signature=signature)
        except FloatingPointError:
            raise LinAlgError(message) from None
    return call


_cholesky = _kernel(_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite")
_inv = _kernel(_umath_linalg.inv, "d->d", "Singular matrix")
_eigvalsh = _kernel(_umath_linalg.eigvalsh_lo, "d->d", "Eigenvalues did not converge")
_solve = _kernel(_umath_linalg.solve, "dd->d", "Singular matrix")


def _det(a: np.ndarray) -> np.ndarray:
    return _umath_linalg.det(a, signature="d->d")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _set(obj, name, value):
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class PomdpModel:
    """Learnable POMDP parameters.

    transitions is indexed (state, action, next_state). obs_means[s] and
    obs_covs[s] parameterize the multivariate normal observation density of
    state s. The initial state distribution is fixed configuration rather
    than a learned quantity; it defaults to uniform.

    The constructor only normalizes shapes. Content constraints
    (row-stochasticity, positive-definite covariances) are checked by
    validate_model so that invalid candidates can still be represented and
    reported on.
    """

    num_states: int
    num_actions: int
    obs_dim: int
    transitions: np.ndarray
    obs_means: np.ndarray
    obs_covs: np.ndarray
    initial_dist: np.ndarray | None = None
    state_labels: tuple[str, ...] = ()

    def __post_init__(self):
        s, a, d = self.num_states, self.num_actions, self.obs_dim
        if min(s, a, d) < 1:
            raise ValueError("num_states, num_actions and obs_dim must be positive")
        trans = _frozen_array(self.transitions)
        means = _frozen_array(self.obs_means)
        covs = _frozen_array(self.obs_covs)
        # checked before the defaults below are built at the counts' size
        if trans.shape != (s, a, s):
            raise ValueError(f"transitions shape {trans.shape}, expected {(s, a, s)}")
        if means.shape != (s, d):
            raise ValueError(f"obs_means shape {means.shape}, expected {(s, d)}")
        if covs.shape != (s, d, d):
            raise ValueError(f"obs_covs shape {covs.shape}, expected {(s, d, d)}")
        init = self.initial_dist
        init = _frozen_array(np.full(s, 1.0 / s) if init is None else init)
        if init.shape != (s,):
            raise ValueError(f"initial_dist shape {init.shape}, expected {(s,)}")
        labels = tuple(self.state_labels) or tuple(f"state_{i}" for i in range(s))
        if len(labels) != s:
            raise ValueError("state_labels length must equal num_states")
        _set(self, "transitions", trans)
        _set(self, "obs_means", means)
        _set(self, "obs_covs", covs)
        _set(self, "initial_dist", init)
        _set(self, "state_labels", labels)

    @classmethod
    def _adopting(cls, prev: "PomdpModel", transitions: np.ndarray, obs_means: np.ndarray,
                  obs_covs: np.ndarray, factor: "EmissionFactor | None") -> "PomdpModel":
        """prev with new parameters, from float arrays of prev's shapes that
        the package has just built and that nothing else refers to, and
        `factor`, the emission factor of obs_covs (None, when they do not
        factor, leaves emission_factor to raise on first use).

        Each array is frozen in place and kept, in the layout it has, where
        the constructor would check its shape and copy it (a copy that keeps
        the same layout); prev's initial_dist and state_labels are shared.
        Every attribute, the factor included, goes into the new model's
        instance dict in one update, with no per-field __setattr__.
        """
        for array in (transitions, obs_means, obs_covs):
            array.flags.writeable = False
        model = object.__new__(cls)
        fields = model.__dict__
        fields.update(num_states=prev.num_states, num_actions=prev.num_actions,
                      obs_dim=prev.obs_dim, transitions=transitions, obs_means=obs_means,
                      obs_covs=obs_covs, initial_dist=prev.initial_dist,
                      state_labels=prev.state_labels)
        if factor is not None:
            fields["emission_factor"] = factor
        return model

    @cached_property
    def emission_factor(self) -> "EmissionFactor":
        """The covariances' read-only EmissionFactor, kept: every density the
        model scores (E-step, pseudo-count likelihoods, evaluation) reuses
        it. A model an M-step builds arrives with it; any other model, an
        init or one loaded from a file, builds it on first use. A covariance
        that is not finite and positive definite raises CovarianceError
        naming its state, on every access."""
        return _emission_factor(self.obs_covs)


@dataclass(frozen=True)
class Trajectory:
    """One action-observation sequence.

    Stores T observation vectors and T-1 actions; actions[t] is taken
    between observations t and t+1 and conditions that transition.
    """

    observations: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        acts = np.asarray(self.actions)
        # a cast to int would parse "1", take True as 1 and turn 1.9 or nan
        # into another action; 1.0 is action 1, and [] loads as floats
        if acts.dtype.kind not in "iuf":
            values = acts.ravel().tolist()
            bad = next((x for x in values if type(x) not in (int, float)), acts.dtype)
            raise ValueError(f"actions must be integers, got {bad!r}")
        # numpy reads [0, True] as the ints [0, 1], and [1.0, True] as floats
        if isinstance(self.actions, (list, tuple)):
            bad = next((x for x in self.actions if isinstance(x, (bool, np.bool_))), None)
            if bad is not None:
                raise ValueError(f"actions must be integers, got {bool(bad)!r}")
        if acts.dtype.kind == "f":
            with np.errstate(invalid="ignore"):
                lost = acts.astype(int) != acts
            if lost.any():
                raise ValueError(f"actions must be integers, got {float(acts[lost][0])}")
        acts = np.asarray(acts, dtype=int)
        if obs.ndim != 2 or len(obs) < 1:
            raise ValueError("observations must be a non-empty (T, d) array")
        if acts.shape != (len(obs) - 1,):
            raise ValueError(
                f"expected {len(obs) - 1} actions for {len(obs)} observations, "
                f"got {acts.shape}"
            )
        obs.flags.writeable = False
        acts.flags.writeable = False
        _set(self, "observations", obs)
        _set(self, "actions", acts)

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class GroundTruthEnv:
    """Simulation oracle: true transitions plus per-state Beta emitters.

    beta_params is indexed (state, obs_dimension, 2) holding the (alpha,
    beta) shape pair of each emitter; observation components are sampled
    independently per dimension and lie in [0, 1].
    """

    transitions: np.ndarray
    beta_params: np.ndarray
    state_labels: tuple[str, ...] = ()

    def __post_init__(self):
        trans = _frozen_array(self.transitions)
        betas = _frozen_array(self.beta_params)
        if trans.ndim != 3 or trans.shape[0] != trans.shape[2]:
            raise ValueError(f"transitions shape {trans.shape}, expected (S, A, S)")
        s = trans.shape[0]
        if betas.ndim != 3 or betas.shape[0] != s or betas.shape[2] != 2:
            raise ValueError(f"beta_params shape {betas.shape}, expected ({s}, d, 2)")
        labels = tuple(self.state_labels) or tuple(f"state_{i}" for i in range(s))
        if len(labels) != s:
            raise ValueError("state_labels length must equal the state count")
        if len(set(labels)) != s:
            raise ValueError("state_labels must be distinct")
        _set(self, "transitions", trans)
        _set(self, "beta_params", betas)
        _set(self, "state_labels", labels)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.beta_params.shape[1]

    @cached_property
    def transition_cdfs(self) -> np.ndarray:
        """(S, A, S) read-only: each transition row as the CDF that
        Generator.choice searches, built on first use and kept. Raises the
        ValueError that choice raises for the first row it would reject."""
        num_states = self.num_states
        cdfs = np.empty(self.transitions.shape)
        for s, a in np.ndindex(cdfs.shape[:2]):
            try:
                cdfs[s, a] = _choice_cdf(self.transitions[s, a], num_states)
            except ValueError as err:
                raise ValueError(f"transitions[s={s}, a={a}]: {err}") from None
        cdfs.flags.writeable = False
        return cdfs

    @cached_property
    def beta_pairs(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """beta_params as Python floats: one (alpha, beta) pair per state and
        dimension, built on first use and kept."""
        return tuple(tuple(map(tuple, state)) for state in self.beta_params.tolist())


def _choice_cdf(p, size: int) -> np.ndarray:
    """The CDF that numpy's Generator.choice(size, p=p) searches.

    Raises the ValueError that choice raises for p: not one-dimensional,
    not `size` entries, a NaN, a negative entry, or a sum more than
    sqrt(eps) away from 1 (choice's sum is Kahan-compensated, so a sum
    within an ulp of that bound may be judged differently). The CDF is
    choice's own, the cumulative sum over its last entry, so
    `cdf.searchsorted(rng.random(), side="right")` is the draw choice makes
    from the same generator state.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != size:
        raise ValueError("a and p must have same size")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def regularize_cov(cov: np.ndarray, ridge: float = DEFAULT_COV_RIDGE) -> np.ndarray:
    """Symmetrize; add ridge * I only when the result is near-degenerate.

    Well-conditioned covariances pass through untouched so closed-form
    parameter updates stay exact maximizers (an unconditional ridge makes
    the fitted likelihood creep downward near convergence). The guard kicks
    in below a smallest eigenvalue of `ridge`, where tiny datasets would
    otherwise produce singular matrices. A NaN or infinite entry, or a
    lifted smallest eigenvalue still below -1e-12 (a second moment short of
    the squared mean), raises CovarianceError.
    """
    cov = np.asarray(cov, dtype=float)
    if not _all_finite(cov):
        raise CovarianceError(f"covariance is not finite: {cov.tolist()}")
    half = 0.5 * cov  # halved first: a finite cov's sym stays finite
    sym = half + half.T
    min_eig = float(np.linalg.eigvalsh(sym).min())
    if ridge > 0.0 and min_eig < ridge:
        sym = sym + ridge * np.eye(cov.shape[0])
        min_eig += ridge
    if min_eig < -_PSD_ATOL:
        raise CovarianceError(
            f"covariance is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    return sym


class EmissionFactor(NamedTuple):
    """One covariance, or an (S, d, d) stack, factored for density scoring
    and sampling.

    inv_chol_t is the transposed inverse of each lower Cholesky factor, so
    z = (x - mean) @ inv_chol_t whitens x and |z|^2 is its Mahalanobis
    distance; log_norm is d log(2 pi) + log det cov, one value per state of
    a stack; chol is the lower Cholesky factor itself, so mean + z @ chol.T
    turns standard normal rows z into draws. Every array is read-only.
    """

    inv_chol_t: np.ndarray
    log_norm: np.ndarray
    chol: np.ndarray


def _factored(chol: np.ndarray) -> EmissionFactor:
    """The EmissionFactor of the lower Cholesky factor of a covariance, or
    of an (S, d, d) stack, under the caller's _kernel_errors(); every
    emission factor is built here."""
    inv_chol_t = _inv(chol).swapaxes(-1, -2).copy()
    log_det = 2.0 * np.add.reduce(np.log(chol.diagonal(0, -2, -1)), -1)
    log_norm = np.asarray(chol.shape[-1] * _LOG_2PI + log_det)
    for array in (inv_chol_t, log_norm, chol):
        array.flags.writeable = False
    return EmissionFactor(inv_chol_t, log_norm, chol)


def _emission_factor(cov) -> EmissionFactor:
    """Factor one (d, d) covariance or an (S, d, d) stack for
    gaussian_log_density; a failure raises cholesky_factor's CovarianceError."""
    chol = cholesky_factor(cov)
    with _kernel_errors():
        return _factored(chol)


def _fitted_covariances(covs: np.ndarray, live: np.ndarray | None
                        ) -> tuple[np.ndarray, EmissionFactor | None]:
    """An M-step's (S, d, d) covariance stack, regularized, and its
    emission factor (None when the stack does not factor), in one pass.

    Each covariance of a `live` state (every state when live is None)
    becomes regularize_cov(cov, DEFAULT_COV_RIDGE); those of the other
    states, kept from the previous model, stay. One finiteness check
    covers the stack. A finite stack's live covariances are symmetrized
    and decomposed by one stacked eigvalsh (each matrix gets its own
    eigenvalues), regularize_cov runs only on the states it would lift or
    reject, in state order, and the stack is factored with no second
    check, since symmetrizing and lifting keep a finite matrix finite; the
    eigvalsh, the Cholesky factor and its inverse share one
    _kernel_errors(). A rejected covariance raises CovarianceError naming
    its state. A live covariance that is not finite sends the live states
    through regularize_cov one by one, so the first failing state raises;
    a kept one that is not finite gives no factor.
    """
    states = range(len(covs)) if live is None else np.flatnonzero(live)
    stack = covs if live is None else covs[states]
    finite = _all_finite(covs)
    with _kernel_errors():
        if finite or live is not None and _all_finite(stack):
            half = 0.5 * stack  # halved first, as in regularize_cov
            sym = half + half.swapaxes(-1, -2)
            smallest = _eigvalsh(sym)[:, 0].tolist()
            check = [i for i, eig in enumerate(smallest) if eig < DEFAULT_COV_RIDGE]
        else:
            sym, check = stack, range(len(states))
        for i in check:
            try:
                sym[i] = regularize_cov(stack[i], DEFAULT_COV_RIDGE)
            except CovarianceError as err:
                raise CovarianceError(f"state {states[i]}: {err}") from None
        if live is None:
            covs = sym
        else:
            covs[states] = sym
        if not finite:
            return covs, None
        try:
            chol = _cholesky(covs)
        except LinAlgError:
            return covs, None
        return covs, _factored(chol)


def gaussian_log_density(obs, mean, cov, factor: EmissionFactor | None = None):
    """log N(obs; mean, cov) for one point (d,) or a batch (n, d).

    One density: mean (d,) and cov (d, d) give a float for one point and an
    (n,) array for a batch. Stacked densities: means (S, d) and covariances
    (S, d, d) give every state's values with a leading state axis, (S,) or
    (S, n). The covariances are factored once, by _emission_factor, unless
    `factor` brings their factor already built; either way every point is
    whitened as z = (obs - mean) @ inv_chol_t and scored as
    -(log_norm + |z|^2) / 2. Each cov must be symmetric positive definite;
    a failure raises CovarianceError, which names the first failing state
    of a stack. Finite for any finite obs.
    """
    mean = np.asarray(mean, dtype=float)
    obs = np.asarray(obs, dtype=float)
    inv_chol_t, log_norm, _ = _emission_factor(cov) if factor is None else factor
    z = ((obs[None] if obs.ndim == 1 else obs) - mean[..., None, :]) @ inv_chol_t
    out = _einsum("...d,...d->...", z, z)
    out += log_norm[..., None]
    out *= -0.5
    if obs.ndim == 1:
        out = out[..., 0]
        return float(out) if out.ndim == 0 else out
    return out


def per_state_log_density(model: PomdpModel, obs) -> np.ndarray:
    """Log observation densities under every state, shape (n, S) or (S,).

    gaussian_log_density with the model's own emission_factor, so a model
    is factored once however often it is scored, and bit for bit the
    stacked gaussian_log_density on its means and covariances, transposed.
    """
    return np.ascontiguousarray(
        gaussian_log_density(obs, model.obs_means, model.obs_covs, model.emission_factor).T
    )


def cholesky_factor(cov) -> np.ndarray:
    """Lower Cholesky factor of one (d, d) covariance or an (S, d, d) stack.

    Input of any other shape raises CovarianceError naming its shape. A
    covariance with a NaN or infinite entry, or one that is not positive
    definite, raises CovarianceError; for a stack the message names the
    first such state.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2]:
        raise CovarianceError(f"covariance has shape {cov.shape}, expected (d, d) or (S, d, d)")
    try:
        if not _all_finite(cov):
            raise LinAlgError("covariance is not finite")
        with _kernel_errors():
            return _cholesky(cov)
    except LinAlgError as exc:
        bad, prefix = cov, ""
        if cov.ndim == 3:
            state = next(s for s, mat in enumerate(cov) if not _factorable(mat))
            bad, prefix = cov[state], f"state {state}: "
        problem = "positive definite" if _all_finite(bad) else "finite"
        raise CovarianceError(
            f"{prefix}covariance is not {problem}: {bad.tolist()}"
        ) from exc


def _all_finite(values: np.ndarray) -> bool:
    # a few entries: cheaper in Python floats than as np.isfinite(...).all()
    return all(map(math.isfinite, values.ravel().tolist()))


def _factorable(cov: np.ndarray) -> bool:
    if not _all_finite(cov):
        return False
    try:
        with _kernel_errors():
            _cholesky(cov)
    except LinAlgError:
        return False
    return True


def _row_stochastic_violations(transitions: np.ndarray) -> list[str]:
    """Negative entries and rows not summing to 1 in an (S, A, S) tensor."""
    violations = []
    row_sums = transitions.sum(axis=2)
    for s, a in np.ndindex(row_sums.shape):
        if np.any(transitions[s, a] < -STOCHASTIC_ATOL):
            violations.append(
                f"transitions[s={s}, a={a}] has a negative entry: {transitions[s, a].tolist()}"
            )
        if abs(row_sums[s, a] - 1.0) > STOCHASTIC_ATOL:
            violations.append(
                f"transitions[s={s}, a={a}] sums to {row_sums[s, a]:.12g}, expected 1"
            )
    return violations


def _non_finite(name: str, values: np.ndarray, axes: Sequence[str]) -> list[str]:
    """One message per NaN or infinite entry of values, naming its index."""
    return [
        f"{name}[{', '.join(f'{ax}={i}' for ax, i in zip(axes, idx))}] "
        f"is not finite ({values[tuple(idx)]})"
        for idx in np.argwhere(~np.isfinite(values))
    ]


def validate_model(model: PomdpModel) -> list[str]:
    """All invariant violations, empty when the model is well-formed.

    Each entry names the offending index and the failed constraint; every
    NaN or infinite parameter is reported on its own.
    """
    violations = (
        _non_finite("transitions", model.transitions, ("s", "a", "s2"))
        + _non_finite("obs_means", model.obs_means, ("s", "dim"))
        + _non_finite("obs_covs", model.obs_covs, ("s", "i", "j"))
        + _non_finite("initial_dist", model.initial_dist, ("s",))
        + _row_stochastic_violations(model.transitions)
    )
    for s in range(model.num_states):
        cov = model.obs_covs[s]
        if not np.isfinite(cov).all():
            continue
        if not np.allclose(cov, cov.T, atol=1e-12):
            violations.append(f"obs_covs[s={s}] is not symmetric")
            continue
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        if min_eig <= 0:
            violations.append(
                f"obs_covs[s={s}] is not positive definite (min eigenvalue {min_eig:.3g})"
            )
    if abs(model.initial_dist.sum() - 1.0) > STOCHASTIC_ATOL:
        violations.append(f"initial_dist sums to {model.initial_dist.sum():.12g}, expected 1")
    if np.any(model.initial_dist < -STOCHASTIC_ATOL):
        violations.append("initial_dist has a negative entry")
    return violations


def validate_env(env: GroundTruthEnv) -> list[str]:
    """Invariant violations for a ground-truth environment, one per bad entry."""
    betas = env.beta_params
    return (
        _non_finite("transitions", env.transitions, ("s", "a", "s2"))
        + _non_finite("beta_params", betas, ("s", "dim", "k"))
        + _row_stochastic_violations(env.transitions)
        + [f"beta_params[s={s}, dim={j}, k={k}] must be strictly positive ({betas[s, j, k]})"
           for s, j, k in np.argwhere(np.isfinite(betas) & (betas <= 0))]
    )


def _scoring_problems(traj: Trajectory, num_actions: int, obs_dim: int) -> list[str]:
    """Why a model with num_actions actions and obs_dim-dimensional
    observations cannot score traj: another obs_dim, an action out of range.
    Non-finite observations are left to the E-step's ForwardBackwardError."""
    problems = []
    if traj.obs_dim != obs_dim:
        problems.append(f"obs_dim {traj.obs_dim}, expected {obs_dim}")
    if len(traj.actions) and (traj.actions.min() < 0 or traj.actions.max() >= num_actions):
        problems.append(f"action index out of range [0, {num_actions})")
    return problems


def validate_dataset(dataset: Sequence[Trajectory], num_actions: int, obs_dim: int) -> list[str]:
    """Dimensional checks for a dataset against a model or environment, plus
    one entry per NaN or infinite observation value."""
    return [
        f"trajectory {i}: {msg}"
        for i, traj in enumerate(dataset)
        for msg in _scoring_problems(traj, num_actions, obs_dim)
        + _non_finite("observations", traj.observations, ("t", "dim"))
    ]


def sample_trajectory(
    env: GroundTruthEnv,
    policy: Policy,
    horizon: int,
    rng: np.random.Generator,
    initial_dist: np.ndarray | None = None,
    return_states: bool = False,
):
    """Roll out one trajectory of `horizon` observations from the environment.

    The initial state is drawn from initial_dist (uniform when omitted);
    each observation component comes from the current state's Beta emitter,
    and policy(t, rng) picks the action steering the next transition.
    Fully reproducible given the Generator state.

    Each state is drawn as numpy's Generator.choice draws it, from the
    env's transition_cdfs, and each observation component is one scalar
    rng.beta call in dimension order, so the draws, and the generator state
    after them, are those of rng.choice(S, p=row) and a vector rng.beta.
    An initial_dist or transition row that choice would reject raises its
    ValueError before the first draw.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s_count = env.num_states
    if initial_dist is None:
        initial_dist = np.full(s_count, 1.0 / s_count)
    initial_cdf = _choice_cdf(initial_dist, s_count)
    cdfs, betas = env.transition_cdfs, env.beta_pairs
    state = int(initial_cdf.searchsorted(rng.random(), side="right"))
    states = [state]
    observations = [[rng.beta(a, b) for a, b in betas[state]]]
    actions = []
    for t in range(horizon - 1):
        action = int(policy(t, rng))
        actions.append(action)
        state = int(cdfs[state, action].searchsorted(rng.random(), side="right"))
        states.append(state)
        observations.append([rng.beta(a, b) for a, b in betas[state]])
    traj = Trajectory(observations=observations, actions=actions)
    if return_states:
        return traj, np.array(states)
    return traj


def make_policy(spec: str, num_actions: int) -> Policy:
    """Build an action-selection rule from a short textual spec.

    "uniform" draws uniformly at random, "fixed:K" always picks action K,
    "cycle" walks round-robin through the action set. Any other spec, a
    non-integer K included, or a K out of range raises ValueError.
    """
    if spec == "uniform":
        return lambda t, rng: int(rng.integers(num_actions))
    if spec == "cycle":
        return lambda t, rng: t % num_actions
    if spec.startswith("fixed:"):
        try:
            action = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"unknown policy spec {spec!r}") from None
        if not 0 <= action < num_actions:
            raise ValueError(f"fixed action {action} out of range [0, {num_actions})")
        return lambda t, rng: action
    raise ValueError(f"unknown policy spec {spec!r}")


# ---------------------------------------------------------------------------
# JSON file formats
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """Make a payload JSON-safe: non-finite floats become strings, numpy
    scalars and arrays become Python numbers and lists."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def json_text(payload) -> str:
    """The package's one JSON layout: sanitized, two-space indent, keys in
    insertion order, one trailing newline."""
    return json.dumps(_sanitize(payload), indent=2) + "\n"


def write_json(payload, path) -> None:
    """Write payload as json_text, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload))


def model_to_dict(model: PomdpModel) -> dict:
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "obs_dim": model.obs_dim,
        "transitions": model.transitions.tolist(),
        "obs_means": model.obs_means.tolist(),
        "obs_covs": model.obs_covs.tolist(),
        "initial_dist": model.initial_dist.tolist(),
        "state_labels": list(model.state_labels),
    }


def _count(data: dict, key: str) -> int:
    """data[key] as int() reads it, when it is a number int() keeps: not a
    bool, a string, null or a fraction."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or int(value) != value:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


# a parsed JSON value's type, by the name JSON gives it
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null"}


def _json_of(value, kind: type, what: str):
    """value, after a ValueError naming what if it is not a JSON object
    (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what}: expected a JSON {_JSON_TYPES[kind]}, got a JSON {got}")
    return value


def _read_json(path, kind: type, what: str):
    """The JSON value in the file at path, which must be of kind (dict or list)."""
    return _json_of(json.loads(Path(path).read_text()), kind, what)


def model_from_dict(data: dict) -> PomdpModel:
    return PomdpModel(
        num_states=_count(data, "num_states"),
        num_actions=_count(data, "num_actions"),
        obs_dim=_count(data, "obs_dim"),
        transitions=data["transitions"],
        obs_means=data["obs_means"],
        obs_covs=data["obs_covs"],
        initial_dist=data.get("initial_dist"),
        state_labels=tuple(data.get("state_labels", ())),
    )


def load_model(path) -> PomdpModel:
    """A bare model file, or the model inside a `train` checkpoint.

    Raises ValueError listing every validate_model problem of the content.
    """
    payload = _read_json(path, dict, "model file")
    model = model_from_dict(_json_of(payload.get("model", payload), dict, "model"))
    problems = validate_model(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    return model


def env_to_dict(env: GroundTruthEnv) -> dict:
    return {
        "num_states": env.num_states,
        "num_actions": env.num_actions,
        "obs_dim": env.obs_dim,
        "transitions": env.transitions.tolist(),
        "beta_params": [
            [{"alpha": float(a), "beta": float(b)} for a, b in state_params]
            for state_params in env.beta_params
        ],
        "state_labels": list(env.state_labels),
    }


def _unchecked_env(data: dict) -> GroundTruthEnv:
    """The environment a file describes, its shapes checked but not its
    values. The arrays give the counts; a count the file also gives must be
    an integer equal to theirs."""
    betas = [
        [(entry["alpha"], entry["beta"]) for entry in state_params]
        for state_params in data["beta_params"]
    ]
    env = GroundTruthEnv(
        transitions=data["transitions"],
        beta_params=betas,
        state_labels=tuple(data.get("state_labels", ())),
    )
    for key in ("num_states", "num_actions", "obs_dim"):
        if key in data and _count(data, key) != getattr(env, key):
            raise ValueError(f"{key} {data[key]} does not match the arrays, "
                             f"which give {getattr(env, key)}")
    return env


def env_from_dict(data: dict) -> GroundTruthEnv:
    env = _unchecked_env(data)
    problems = validate_env(env)
    if problems:
        raise ValueError("invalid environment: " + "; ".join(problems))
    return env


def save_env(env: GroundTruthEnv, path) -> None:
    write_json(env_to_dict(env), path)


def load_env(path) -> GroundTruthEnv:
    return env_from_dict(_read_json(path, dict, "environment file"))


def dataset_to_list(dataset: Sequence[Trajectory]) -> list:
    return [
        {"observations": t.observations.tolist(), "actions": t.actions.tolist()}
        for t in dataset
    ]


def dataset_from_list(data) -> list[Trajectory]:
    entries = [_json_of(d, dict, f"trajectory {i}")
               for i, d in enumerate(_json_of(data, list, "dataset"))]
    return [Trajectory(observations=d["observations"], actions=d["actions"]) for d in entries]


def save_dataset(dataset: Sequence[Trajectory], path) -> None:
    write_json(dataset_to_list(dataset), path)


def load_dataset(path) -> list[Trajectory]:
    return dataset_from_list(json.loads(Path(path).read_text()))
