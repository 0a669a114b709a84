"""The fit path's direct numpy kernel calls against the numpy.linalg and
np.einsum functions they replace, which stay here as the reference.

Random stacks hold 1-4 matrices of 1-3 dims: positive definite, near
singular, ill-conditioned, indefinite and general ones, scaled from 1e-300
to 1e300 so that the kernels overflow and underflow too, some with a NaN
or an infinity below, on or above the diagonal. Each binding must give
what its wrapper gives, bit for bit, with the same warnings, or raise
FloatingPointError where its wrapper raises LinAlgError. cholesky_factor
must give numpy.linalg.cholesky's factor of each state, or name the first
state that is not finite or that numpy.linalg.cholesky rejects. A fit must
run with every wrapper patched to raise.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzy_pomdp import harness
from fuzzy_pomdp import model as model_module
from fuzzy_pomdp.em import EmConfig, run_em
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
from fuzzy_pomdp.model import CovarianceError, cholesky_factor, load_env
from fuzzy_pomdp.rngs import derive_rng

from conftest import ILL_CONDITIONED

KINDS = ("positive definite", "near singular", "ill-conditioned", "indefinite", "general")
POISONS = (None, None, "below", "on", "above")


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
    # a binding whose wrapper raises LinAlgError leaves the invalid flag to
    # the caller's np.errstate, which raises it as FloatingPointError
    for binding, wrapper, arrays in ((model_module._cholesky, np.linalg.cholesky, (stack,)),
                                     (model_module._inv, np.linalg.inv, (stack,)),
                                     (model_module._eigvalsh, np.linalg.eigvalsh, (stack,)),
                                     (model_module._solve, np.linalg.solve, (stack, rhs))):
        want = _outcome(lambda: wrapper(*arrays))
        if want[0][0] == "raises":
            assert want[0][1] is np.linalg.LinAlgError
            want = (("raises", FloatingPointError,
                     f"invalid value encountered in {binding.func.__name__}", None), want[1])
        _assert_same(_outcome(lambda: _bound(binding, *arrays)), want)
    pairs = [
        (lambda: model_module._det(stack), lambda: np.linalg.det(stack)),
        (lambda: model_module._einsum("...d,...d->...", stack, stack),
         lambda: np.einsum("...d,...d->...", stack, stack)),
        (lambda: model_module._einsum("sgk,sgk->sg", stack, stack[::-1]),
         lambda: np.einsum("sgk,sgk->sg", stack, stack[::-1])),
    ]
    for binding, wrapper in pairs:
        _assert_same(_outcome(binding), _outcome(wrapper))


def _first_rejected(stack):
    """(state, problem) for the first state of stack that is not finite or
    that numpy.linalg.cholesky rejects, or None."""
    for state, cov in enumerate(stack):
        if not np.isfinite(cov).all():
            return state, "finite"
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            return state, "positive definite"
    return None


@given(stacks())
def test_cholesky_factor_is_numpy_cholesky_or_names_the_state_numpy_rejects(stack):
    rejected = _first_rejected(stack)
    if rejected is None:
        want = _outcome(lambda: np.array([np.linalg.cholesky(cov) for cov in stack]))
    else:
        state, problem = rejected
        text = f"covariance is not {problem}: {stack[state].tolist()}"
        want = (("raises", CovarianceError, f"state {state}: {text}", None), [])
        # the one matrix alone is named without its state
        assert _outcome(lambda: cholesky_factor(stack[state])) == (
            ("raises", CovarianceError, text, None), [])
    _assert_same(_outcome(lambda: cholesky_factor(stack)), want)


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
