#!/usr/bin/env python3
"""Count the numpy calls, the np.errstate entries, the Python calls
outside numpy and the object.__setattr__ calls one EM iteration makes, in
both fitters.

    python3 scripts/iteration_calls.py [TREE] [--top N]

Fits plain EM and fuzzy-MAP EM (the bundled expert rules, high_noise's
lambdas) on high_noise seed 1 from restart 0's random init, against the
package under TREE's `src/` (default: the checkout this script sits in).
Each fitter is fitted twice with a `sys.setprofile` and a `sys.settrace`
hook installed, capped at 1 and at 11 M-steps; the difference between the
two counts, over the 10 extra M-steps, is what one iteration (counts
pooling, M-step, pseudo-counts for fuzzy-MAP, and the E-step that scores
the new model) calls. The fit's preparation and the init's E-step cancel
out, and a warm-up fit first builds what the package caches on first use.
The counts repeat exactly from run to run, so they show where a
per-iteration saving is even when a timed benchmark is too noisy to.

A C-level numpy call is a builtin function or method of numpy's (a
`c_call` event whose function comes from a numpy module or is bound to a
numpy object, such as `ndarray.sum` or `np.add.reduce`); a call in numpy's
own Python is a `call` event into a file under numpy's package directory.
ufunc calls and operators (`np.exp(x)`, `a @ b`) raise no profiler event
and are not counted. An np.errstate entry is a `call` event into
`np.errstate.__enter__` (its numpy calls are counted as numpy calls too).

A Python call outside numpy is any other `call` event: into the package's
own functions (the `__init__` and `__new__` that dataclasses and
NamedTuple generate for its classes included), into
`functools.cached_property.__get__` (a cached attribute's first read), or
into anything else ("other"). An `object.__setattr__` call raises no
profiler event, so the settrace hook counts each executed lookup of
`object.__setattr__` (the frozen dataclasses' generated `__init__` look it
up as `__dataclass_builtins_object__.__setattr__`), one per call.

Each numpy call and each np.errstate entry is charged to the innermost
function of the package on the stack; each Python call to the innermost
package function that called it, shown with the callee; each
`object.__setattr__` call to the innermost package function that called
the function making it. The N largest of each are listed per fitter
(default 8).
"""

from __future__ import annotations

import argparse
import dis
import functools
import os
import sys
from collections import Counter
from pathlib import Path

SEED = 1
CAPS = (1, 11)
NUMPY_KINDS = ("c", "python")
PYTHON_KINDS = ("package", "cached_property", "other")
# names under which a function calls object.__setattr__: the builtin itself,
# and the alias the frozen dataclasses' generated __init__ use
SETATTR_OWNERS = ("object", "__dataclass_builtins_object__")


def _caller(frame, package: str) -> str:
    while frame is not None and not frame.f_code.co_filename.startswith(package):
        frame = frame.f_back
    if frame is None:
        return "(outside the package)"
    module = Path(frame.f_code.co_filename).stem
    return f"{module}.{frame.f_code.co_qualname}"


def _generated_method(frame, package_name: str) -> str | None:
    """module.Class.method for a method that dataclasses or NamedTuple
    generated for a class of the package (a dataclass __init__, a
    NamedTuple __new__, whose code is a lambda), from its first argument;
    None for any other code."""
    code = frame.f_code
    if code.co_filename != "<string>" or not code.co_argcount:
        return None
    first = frame.f_locals.get(code.co_varnames[0])
    owner, method = (first, "__new__") if isinstance(first, type) else (type(first), code.co_name)
    module = owner.__module__
    if not module.startswith(package_name + "."):
        return None
    return f"{module.rsplit('.', 1)[1]}.{owner.__qualname__}.{method}"


def _setattr_sites(code) -> frozenset:
    """Byte offsets of code's lookups of object.__setattr__."""
    sites, previous = set(), None
    for ins in dis.get_instructions(code):
        if (ins.opname in ("LOAD_METHOD", "LOAD_ATTR") and ins.argval == "__setattr__"
                and previous is not None and previous.opname.startswith("LOAD_")
                and previous.argval in SETATTR_OWNERS):
            sites.add(ins.offset)
        previous = ins
    return frozenset(sites)


def count_calls(fit, numpy_dir: str, package: str):
    """Run fit() under a profile and a trace hook. Returns its calls by kind
    (NUMPY_KINDS, PYTHON_KINDS, "errstate" and "setattr"), the numpy calls,
    np.errstate entries, Python calls and object.__setattr__ calls each by
    package caller, and fit's result."""
    import numpy as np

    kinds = Counter()
    callers = {"numpy": Counter(), "errstate": Counter(), "python": Counter(),
               "setattr": Counter()}
    get_code = functools.cached_property.__get__.__code__
    enter_code = np.errstate.__enter__.__code__
    package_name = Path(package).name
    sites_of: dict = {}

    def is_numpy(fn) -> bool:
        owner = getattr(fn, "__self__", None)
        return ((getattr(fn, "__module__", None) or "").startswith("numpy")
                or isinstance(owner, (np.ndarray, np.generic, np.ufunc)))

    def python_callee(frame) -> tuple[str, str]:
        code = frame.f_code
        if code is get_code:
            return "cached_property", "cached_property.__get__"
        if code.co_filename.startswith(package):
            return "package", f"{Path(code.co_filename).stem}.{code.co_qualname}"
        generated = _generated_method(frame, package_name)
        if generated is not None:
            return "package", generated
        return "other", f"{code.co_filename}:{code.co_qualname}"

    def profile(frame, event, arg):
        if event == "c_call" and is_numpy(arg):
            kinds["c"] += 1
            callers["numpy"][_caller(frame, package)] += 1
        elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            kinds["python"] += 1
            callers["numpy"][_caller(frame, package)] += 1
            if frame.f_code is enter_code:
                kinds["errstate"] += 1
                callers["errstate"][_caller(frame, package)] += 1
        elif event == "call":
            kind, callee = python_callee(frame)
            kinds[kind] += 1
            callers["python"][f"{_caller(frame.f_back, package)} -> {callee}"] += 1

    def trace(frame, event, arg):
        code = frame.f_code
        sites = sites_of.get(code)
        if sites is None:
            sites = sites_of[code] = _setattr_sites(code)
        if not sites:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True

        def opcodes(frame, event, arg):
            if event == "opcode" and frame.f_lasti in sites:
                kinds["setattr"] += 1
                callers["setattr"][_caller(frame.f_back, package)] += 1
            return opcodes
        return opcodes

    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        result = fit()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return kinds, callers, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--top", type=int, default=8)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import numpy as np

    from fuzzy_pomdp import harness
    from fuzzy_pomdp.em import EmConfig, run_em
    from fuzzy_pomdp.fuzzy import load_fuzzy_model
    from fuzzy_pomdp.fuzzy_map import FuzzyMapConfig, run_fuzzy_map_em
    from fuzzy_pomdp.model import load_env
    from fuzzy_pomdp.rngs import derive_rng

    numpy_dir = os.path.dirname(np.__file__) + os.sep
    package = os.path.dirname(harness.__file__) + os.sep
    config = harness.regime_config("high_noise", [SEED])
    env = load_env(harness.asset_path("synthetic_env.json"))
    rules = load_fuzzy_model(harness.asset_path(harness.EXPERT_RULES))
    dataset = harness.synthetic_dataset(env, config, SEED)
    init = harness.random_init(dataset, config.num_states, env.num_actions,
                               derive_rng(SEED, "init", 0))
    map_config = FuzzyMapConfig(lambda_t=config.lambda_t, lambda_o=config.lambda_o,
                                seed=SEED * 1000)
    fitters = {
        "plain EM": lambda cap: run_em(dataset, init, EmConfig(max_iterations=cap)),
        "fuzzy-MAP": lambda cap: run_fuzzy_map_em(dataset, init, rules,
                                                  EmConfig(max_iterations=cap), map_config),
    }
    print(f"calls per EM iteration: high_noise seed {SEED}, restart 0's init, "
          f"numpy {np.__version__}, package {package}")
    extra = CAPS[1] - CAPS[0]
    per_iteration, by_caller = {}, {}
    for name, fit in fitters.items():
        fit(CAPS[0])
        (kinds_lo, callers_lo, lo), (kinds_hi, callers_hi, hi) = (
            count_calls(lambda cap=cap: fit(cap), numpy_dir, package) for cap in CAPS)
        if (lo.iterations, hi.iterations) != CAPS:
            sys.exit(f"{name} stopped after {lo.iterations} and {hi.iterations} M-steps, "
                     f"expected {CAPS}")
        kinds_hi.subtract(kinds_lo)
        per_iteration[name] = {kind: n / extra for kind, n in kinds_hi.items()}
        for group, counts in callers_hi.items():
            counts.subtract(callers_lo[group])
        by_caller[name] = callers_hi
    print(f"\nnumpy calls\n{'fitter':<10} {'C-level':>8} {'numpy Python':>13} {'total':>6}")
    for name, n in per_iteration.items():
        c, py = (n.get(kind, 0) for kind in NUMPY_KINDS)
        print(f"{name:<10} {c:>8g} {py:>13g} {c + py:>6g}")
    print(f"\nnp.errstate entries\n{'fitter':<10} {'entries':>8}")
    for name, n in per_iteration.items():
        print(f"{name:<10} {n.get('errstate', 0):>8g}")
    print(f"\nPython calls outside numpy, and object.__setattr__ calls\n"
          f"{'fitter':<10} {'package':>8} {'cached_property':>16} {'other':>6} "
          f"{'object.__setattr__':>19}")
    for name, n in per_iteration.items():
        package_calls, cached, other = (n.get(kind, 0) for kind in PYTHON_KINDS)
        print(f"{name:<10} {package_calls:>8g} {cached:>16g} {other:>6g} "
              f"{n.get('setattr', 0):>19g}")
    titles = {"numpy": "numpy calls", "errstate": "np.errstate entries",
              "python": "Python calls outside numpy, caller -> callee",
              "setattr": "object.__setattr__ calls"}
    for name, groups in by_caller.items():
        for group, title in titles.items():
            print(f"\n{name}, largest callers of {title} (calls per iteration):")
            for caller, n in [item for item in groups[group].most_common()
                              if item[1] > 0][:args.top]:
                print(f"  {n / extra:>6g}  {caller}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
