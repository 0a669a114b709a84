"""The fit path's direct numpy kernel calls against the numpy.linalg and
np.einsum functions they replace, which stay here as the reference.

Random stacks hold 1-4 matrices of 1-3 dims: positive definite, near
singular, ill-conditioned, indefinite and general ones, scaled from 1e-300
to 1e300 so that the kernels overflow and underflow too, some with a NaN
or an infinity below, on or above the diagonal. Each binding must give
what its wrapper gives, bit for bit, with the same warnings, or raise the
same exception; the package, run with the wrappers patched in for its
bindings, is the reference for its own covariance errors. A fit must run
with every wrapper patched to raise.
"""
import dataclasses
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzy_pomdp import fuzzy_map as fuzzy_map_module, harness
from fuzzy_pomdp import model as model_module
from fuzzy_pomdp.em import EmConfig, SufficientCounts, m_step_standard, run_em
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, matchant_matrix, run_fuzzy_map_em
from fuzzy_pomdp.model import (CovarianceError, PomdpModel, cholesky_factor, gaussian_log_density,
                               load_env)
from fuzzy_pomdp.rngs import derive_rng

from conftest import affine_rule, gauss_clause, make_fuzzy

KINDS = ("positive definite", "near singular", "ill-conditioned", "indefinite", "general")
POISONS = (None, None, "below", "on", "above")
# found by a random search: eigvalsh puts its smallest eigenvalue at 0.0078,
# but Cholesky fails on it
ILL_CONDITIONED = [[268638987563050.4, 132316247527812.94],
                   [132316247527812.94, 65171438884061.39]]


def _matrix(kind: str, dim: int, rng) -> np.ndarray:
    """One dim x dim matrix of the kind; an ill-conditioned one exists
    only in 2 dims, and in other dims the kind gives an indefinite one."""
    a = rng.normal(size=(dim, dim))
    if kind == "positive definite":
        return a @ a.T + 0.1 * np.eye(dim)
    if kind == "near singular":
        v = rng.normal(size=(dim, 1))
        return v @ v.T + rng.choice([0.0, 1e-15, 1e-9]) * np.eye(dim)
    if kind == "ill-conditioned" and dim == 2:
        return np.array(ILL_CONDITIONED)
    if kind == "general":
        return a
    return a + a.T


@st.composite
def stacks(draw):
    """An (S, d, d) float64 stack, S in 1-4 and d in 1-3."""
    num, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-300, -8, 0, 8, 300]))
    mats = []
    for _ in range(num):
        with np.errstate(over="ignore"):
            mat = _matrix(draw(st.sampled_from(KINDS)), dim, rng) * scale
        poison = draw(st.sampled_from(POISONS))
        if poison is not None:
            if dim == 1 or poison == "on":
                i = j = int(rng.integers(dim))
            else:
                j, i = sorted(rng.choice(dim, size=2, replace=False))  # i > j: below
                if poison == "above":
                    i, j = j, i
            mat[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        mats.append(mat)
    return np.array(mats)


def _outcome(call):
    """(what call returned or raised, the warnings it emitted): an array as
    its dtype, shape and bytes, a float as itself, an exception as its type
    and text; each warning as its category and text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as err:  # whatever it raises is the outcome
            cause = err.__cause__
            got = ("raises", type(err), str(err),
                   None if cause is None else (type(cause), str(cause)))
        else:
            got = ("returns", *_value(result))
    return got, [(w.category, str(w.message)) for w in caught]


def _value(result):
    if isinstance(result, tuple):  # an EmissionFactor
        return tuple(part for array in result for part in _value(array))
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return (result,)


def _assert_same(got, want):
    assert got == want
    if got[0][0] == "raises":
        assert got[1] == []


def _bound(binding, *arrays):
    """A kernel binding's call under the np.errstate its callers enter."""
    with model_module._kernel_errors():
        return binding(*arrays)


@given(stacks(), st.integers(0, 2**32 - 1))
def test_each_kernel_call_is_its_wrapper_bit_for_bit(stack, seed):
    rng = np.random.default_rng(seed)
    num, dim = stack.shape[:2]
    rhs = rng.normal(size=(num, dim, 1))
    pairs = [
        (lambda: _bound(model_module._cholesky, stack), lambda: np.linalg.cholesky(stack)),
        (lambda: _bound(model_module._inv, stack), lambda: np.linalg.inv(stack)),
        (lambda: _bound(model_module._eigvalsh, stack), lambda: np.linalg.eigvalsh(stack)),
        (lambda: _bound(model_module._solve, stack, rhs), lambda: np.linalg.solve(stack, rhs)),
        (lambda: model_module._det(stack), lambda: np.linalg.det(stack)),
        (lambda: model_module._einsum("...d,...d->...", stack, stack),
         lambda: np.einsum("...d,...d->...", stack, stack)),
        (lambda: model_module._einsum("sgk,sgk->sg", stack, stack[::-1]),
         lambda: np.einsum("sgk,sgk->sg", stack, stack[::-1])),
    ]
    for binding, wrapper in pairs:
        _assert_same(_outcome(binding), _outcome(wrapper))


def _with_wrappers():
    """The numpy.linalg and np.einsum functions patched in for the
    package's kernel bindings, where each module looks them up."""
    patches = ExitStack()
    for module, name, wrapper in (
            (model_module, "_cholesky", np.linalg.cholesky), (model_module, "_inv", np.linalg.inv),
            (model_module, "_eigvalsh", np.linalg.eigvalsh), (model_module, "_einsum", np.einsum),
            (fuzzy_map_module, "_solve", np.linalg.solve), (fuzzy_map_module, "_det", np.linalg.det),
            (fuzzy_map_module, "_einsum", np.einsum)):
        patches.enter_context(mock.patch.object(module, name, wrapper))
    return patches


def _covariance_paths(stack, rng):
    """Every package path a covariance stack takes on a fit: the factor,
    densities, an M-step whose counts give the stack as covariances plus
    the first use of its model, the same M-step with state 0 keeping the
    stack's covariance for want of mass, and expected firing strengths."""
    num, dim = stack.shape[:2]
    means = rng.normal(size=(num, dim))
    obs = rng.normal(size=(3, dim))
    model = PomdpModel(num, 1, dim, transitions=np.full((num, 1, num), 1.0 / num),
                       obs_means=means, obs_covs=stack)
    counts = SufficientCounts(trans=np.ones((num, 1, num)), obs_weight=np.ones(num),
                              obs_sum=np.zeros((num, dim)), obs_outer=stack)
    rules = make_fuzzy([affine_rule(np.zeros(dim), np.eye(dim),
                                    clauses=[gauss_clause(d, 0.0, 0.5) for d in range(dim)]),
                        affine_rule(np.ones(dim), np.eye(dim), clauses=[gauss_clause(0, 1.0, 0.3)])],
                       dim, num_actions=1)

    def fitted(counts):
        fit = m_step_standard(counts, model, EmConfig())
        return fit.obs_covs, *fit.emission_factor

    kept = dataclasses.replace(counts, obs_weight=np.r_[0.0, np.ones(num - 1)])
    return {
        "cholesky_factor": lambda: cholesky_factor(stack),
        "gaussian_log_density": lambda: gaussian_log_density(obs, means, stack),
        "M-step and first use": lambda: fitted(counts),
        "M-step keeping state 0 and first use": lambda: fitted(kept),
        "matchant_matrix": lambda: matchant_matrix(model, rules, FuzzyMapConfig()),
    }


@given(stacks(), st.integers(0, 2**32 - 1))
def test_the_package_raises_what_it_raised_through_the_wrappers(stack, seed):
    # each run builds its own model, so that no emission factor is kept between them
    with _with_wrappers():
        want = {name: _outcome(call) for name, call in _covariance_paths(
            stack, np.random.default_rng(seed)).items()}
    for name, call in _covariance_paths(stack, np.random.default_rng(seed)).items():
        got = _outcome(call)
        assert got == want[name], name
        if got[0][0] == "raises":
            assert got[1] == [], name


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_entry_above_the_diagonal_is_rejected(value):
    # the Cholesky kernel reads only the lower triangle, so numpy.linalg
    # factors this matrix as the identity; the package's own check rejects it
    cov = np.array([[1.0, value], [0.0, 1.0]])
    assert np.array_equal(np.linalg.cholesky(cov), np.eye(2))
    for call in (lambda: cholesky_factor(cov), lambda: cholesky_factor(cov[None])):
        with pytest.raises(CovarianceError, match=r"^(state 0: )?covariance is not finite: "):
            call()


def _raise_if_called(*args, **kwargs):
    raise AssertionError("a numpy.linalg or np.einsum wrapper was called")


def test_both_fitters_run_without_any_wrapper(monkeypatch):
    seed = 1
    config = harness.regime_config("high_noise", [seed])
    env = load_env(harness.asset_path("synthetic_env.json"))
    rules = load_fuzzy_model(harness.asset_path(harness.EXPERT_RULES))
    dataset = harness.synthetic_dataset(env, config, seed)
    init = harness.random_init(dataset, config.num_states, env.num_actions,
                               derive_rng(seed, "init", 0))
    em_config = EmConfig(max_iterations=config.max_iterations)
    map_config = FuzzyMapConfig(lambda_t=config.lambda_t, lambda_o=config.lambda_o,
                                seed=seed * 1000, final_standard_em_iterations=1)
    for name in ("cholesky", "inv", "eigvalsh", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, _raise_if_called)
    monkeypatch.setattr(np, "einsum", _raise_if_called)
    plain = run_em(dataset, init, em_config)
    mapped = run_fuzzy_map_em(dataset, init, rules, em_config, map_config)
    assert plain.iterations > 0 and mapped.iterations > 1
    assert mapped.final_matchant is not None
