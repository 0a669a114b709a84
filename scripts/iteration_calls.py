#!/usr/bin/env python3
"""Count the numpy calls one EM iteration makes, in both fitters.

    python3 scripts/iteration_calls.py [TREE] [--top N]

Fits plain EM and fuzzy-MAP EM (the bundled expert rules, high_noise's
lambdas) on high_noise seed 1 from restart 0's random init, against the
package under TREE's `src/` (default: the checkout this script sits in).
Each fitter is fitted twice with a `sys.setprofile` hook installed, capped
at 1 and at 11 M-steps; the difference between the two counts, over the 10
extra M-steps, is what one iteration (counts pooling, M-step, pseudo-counts
for fuzzy-MAP, and the E-step that scores the new model) calls. The fit's
preparation and the init's E-step cancel out, and a warm-up fit first
builds what the package caches on first use. The counts repeat exactly
from run to run, so they show where a per-iteration saving is even when a
timed benchmark is too noisy to.

A C-level call is a builtin function or method of numpy's (a `c_call`
event whose function comes from a numpy module or is bound to a numpy
object, such as `ndarray.sum` or `np.add.reduce`); a call in numpy's own
Python is a `call` event into a file under numpy's package directory.
ufunc calls and operators (`np.exp(x)`, `a @ b`) raise no profiler event
and are not counted. Each call is also charged to the innermost function
of the package on the stack, and the N largest of these callers are listed
per fitter (default 8).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

SEED = 1
CAPS = (1, 11)


def _caller(frame, package: str) -> str:
    while frame is not None and not frame.f_code.co_filename.startswith(package):
        frame = frame.f_back
    if frame is None:
        return "(outside the package)"
    module = Path(frame.f_code.co_filename).stem
    return f"{module}.{frame.f_code.co_qualname}"


def count_calls(fit, numpy_dir: str, package: str) -> tuple[Counter, Counter, object]:
    """Run fit() under a profile hook: its numpy calls by kind ("c" or
    "python") and by package caller, and fit's result."""
    import numpy as np

    kinds, callers = Counter(), Counter()

    def is_numpy(fn) -> bool:
        owner = getattr(fn, "__self__", None)
        return ((getattr(fn, "__module__", None) or "").startswith("numpy")
                or isinstance(owner, (np.ndarray, np.generic, np.ufunc)))

    def hook(frame, event, arg):
        if event == "c_call" and is_numpy(arg):
            kind = "c"
        elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            kind = "python"
        else:
            return
        kinds[kind] += 1
        callers[_caller(frame, package)] += 1

    sys.setprofile(hook)
    try:
        result = fit()
    finally:
        sys.setprofile(None)
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
    print(f"numpy calls per EM iteration: high_noise seed {SEED}, restart 0's init, "
          f"numpy {np.__version__}, package {package}")
    print(f"{'fitter':<10} {'C-level':>8} {'numpy Python':>13} {'total':>6}")
    by_caller = {}
    extra = CAPS[1] - CAPS[0]
    for name, fit in fitters.items():
        fit(CAPS[0])
        (kinds_lo, callers_lo, lo), (kinds_hi, callers_hi, hi) = (
            count_calls(lambda cap=cap: fit(cap), numpy_dir, package) for cap in CAPS)
        if (lo.iterations, hi.iterations) != CAPS:
            sys.exit(f"{name} stopped after {lo.iterations} and {hi.iterations} M-steps, "
                     f"expected {CAPS}")
        c, py = ((kinds_hi[k] - kinds_lo[k]) / extra for k in ("c", "python"))
        print(f"{name:<10} {c:>8g} {py:>13g} {c + py:>6g}")
        callers_hi.subtract(callers_lo)
        by_caller[name] = callers_hi
    for name, callers in by_caller.items():
        print(f"\n{name}, largest callers (calls per iteration):")
        for caller, n in [item for item in callers.most_common() if item[1] > 0][:args.top]:
            print(f"  {n / extra:>6g}  {caller}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
