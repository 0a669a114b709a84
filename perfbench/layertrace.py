"""Outside-in tracing of the fuzzy_pomdp package.

Wrappers are installed from outside the program: every public function of
each layer module is replaced, in every layer namespace that binds it, by a
wrapper that records a span (function, parent span, paired seed, start,
end). Spans stay in memory until `write_spans`; `restore` puts every
original function back. Counters that the program only logs (the EM
fallbacks) or never reports (covariance ridge lifts, exceptions) are taken
at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import logging
from collections import Counter
from time import perf_counter, perf_counter_ns

import numpy as np

LAYERS = ("harness", "em", "fuzzy_map", "fuzzy", "model", "rngs", "metrics")
PACKAGE = "fuzzy_pomdp"
COUNTERS = ("em.fallback.uniform_row", "em.fallback.frozen_obs", "model.ridge_lifts",
            "em.estep_obs", "fuzzy_map.mc_samples")

# debug-message templates of em._mstep_from_counts, matched on the
# unformatted record so the count does not depend on the arguments
FALLBACK_MESSAGES = {
    "no transition mass for state": "em.fallback.uniform_row",
    "no observation mass for state": "em.fallback.frozen_obs",
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, namespace, name: str, value) -> None:
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def restore(self) -> None:
        while self._saved:
            namespace, name, original = self._saved.pop()
            setattr(namespace, name, original)


def layer_modules() -> dict[str, object]:
    """The package itself plus its layer modules, by short name."""
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    mods[PACKAGE] = importlib.import_module(PACKAGE)
    return mods


def public_functions(module) -> dict[str, object]:
    """Public functions defined in a module, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class FitTimer:
    """Times each plain-EM and fuzzy-MAP fit that the harness starts.

    Patches the two fitter names bound in the harness namespace, the only
    place the harness calls them through, and the E-step names bound in
    `em` and `fuzzy_map` (one call per iteration of either fitter): each
    E-step first lets the pace.PacedClock take a reference pass if one is
    due. Each fit records its wall and CPU seconds, less the passes taken
    during it, and its span of the clock's work time.
    """

    def __init__(self, clock):
        self.fits: list[dict] = []
        self.clock = clock
        self._patches = Patches()

    def install(self) -> "FitTimer":
        harness = importlib.import_module(f"{PACKAGE}.harness")
        for name, kind in (("run_em", "em"), ("run_fuzzy_map_em", "fm")):
            self._patches.set(harness, name, self._timed(getattr(harness, name), kind))
        for layer in ("em", "fuzzy_map"):
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            self._patches.set(module, "e_step", self._ticking(module.e_step))
        return self

    def _timed(self, fn, kind: str):
        clock = self.clock

        def wrapper(*args, **kwargs):
            passes, work_start, start = clock.cost_s, clock.now(), perf_counter()
            result = fn(*args, **kwargs)
            work_end = clock.now()
            self.fits.append({
                "kind": kind,
                "s": perf_counter() - start - (clock.cost_s - passes),
                "cpu_s": work_end - work_start,
                "work": (work_start, work_end),
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
            })
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _ticking(self, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


class _CountingHandler(logging.Handler):
    def __init__(self, counters: Counter):
        super().__init__(logging.DEBUG)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        for prefix, key in FALLBACK_MESSAGES.items():
            if str(record.msg).startswith(prefix):
                self.counters[key] += 1


class Tracer:
    """Span recorder over every public function of the layer modules.

    spans[i] = [function id, parent span index or -1, paired seed or -1,
    start ns, end ns]; names[function id] = "<layer>.<function>".
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: Counter = Counter({key: 0 for key in COUNTERS})
        self.errors: Counter = Counter()
        self.seed = -1
        self._stack: list[int] = []
        self._patches = Patches()
        self._log_state = None
        self._handler = _CountingHandler(self.counters)

    # -- install / restore -------------------------------------------------

    def install(self) -> "Tracer":
        mods = layer_modules()
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(mods[layer]).items():
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                wrappers[id(fn)] = self._wrap(fn, fid, name)
        # rebind in every namespace that holds one of the originals, so
        # calls made through a name imported into another module are seen
        for module in mods.values():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.set(module, name, wrapper)
        em_log = logging.getLogger(f"{PACKAGE}.em")
        self._log_state = (em_log.level, em_log.propagate)
        em_log.setLevel(logging.DEBUG)
        em_log.propagate = False
        em_log.addHandler(self._handler)
        return self

    def restore(self) -> None:
        self._patches.restore()
        if self._log_state is not None:
            em_log = logging.getLogger(f"{PACKAGE}.em")
            em_log.removeHandler(self._handler)
            em_log.setLevel(self._log_state[0])
            em_log.propagate = self._log_state[1]
            self._log_state = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, fid: int, name: str):
        post = _POST_HOOKS.get(name)
        sets_seed = name == "run_paired_seed"
        spans, stack, errors = self.spans, self._stack, self.errors

        def wrapper(*args, **kwargs):
            if sets_seed:
                outer_seed, self.seed = self.seed, int(args[3] if len(args) > 3 else kwargs["seed"])
            rec = [fid, stack[-1] if stack else -1, self.seed, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[fid] += 1
                raise
            finally:
                rec[4] = perf_counter_ns()
                stack.pop()
                if sets_seed:
                    self.seed = outer_seed
            if post is not None:
                post(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write names and spans as one JSON document; returns the span count."""
        t0 = min((s[3] for s in self.spans), default=0)
        payload = {
            "fields": ["function", "parent", "seed", "start_ns", "end_ns"],
            "names": self.names,
            "spans": [[f, p, s, a - t0, b - t0] for f, p, s, a, b in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return len(self.spans)


def wrapper_cost_s(calls: int = 20000, batches: int = 5) -> float:
    """Seconds a Tracer wrapper adds to one call, timed on a no-op function.

    Times share the machine with whatever else runs, so the median over
    several batches is taken.
    """
    def noop():
        return None

    tracer = Tracer()
    tracer.names.append("noop")
    wrapped = tracer._wrap(noop, 0, "noop")
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)


def _count_ridge_lift(counters, args, kwargs, result) -> None:
    # regularize_cov returns the symmetrized input unchanged unless it added
    # the ridge, so any difference from the symmetrized input is a lift
    cov = np.asarray(args[0] if args else kwargs["cov"], dtype=float)
    if not np.array_equal(result, 0.5 * (cov + cov.T)):
        counters["model.ridge_lifts"] += 1


def _count_estep_obs(counters, args, kwargs, result) -> None:
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    counters["em.estep_obs"] += sum(len(traj) for traj in dataset)


def _count_mc_samples(counters, args, kwargs, result) -> None:
    # one matchant cell draws matchant_samples points; cells that need no
    # draw (action mismatch, empty antecedent) are 0 or 1 exactly
    fuzzy = args[1] if len(args) > 1 else kwargs["fuzzy"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    num_states, num_actions, _ = result.shape
    cells = sum(
        1
        for a in range(num_actions)
        for rule in fuzzy.rules
        if rule.clauses and (rule.action is None or rule.action == a)
    )
    counters["fuzzy_map.mc_samples"] += num_states * cells * config.matchant_samples


_POST_HOOKS = {
    "regularize_cov": _count_ridge_lift,
    "e_step": _count_estep_obs,
    "matchant_matrix": _count_mc_samples,
}


def layer_report(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans into per-function and per-layer numbers.

    <fn>.calls and <fn>.s (inclusive seconds) for every traced function;
    <layer>.self_s, the time spans of that layer did not spend in child
    spans; <layer>.errors, wrapped calls that raised.
    """
    n_names = len(tracer.names)
    calls = np.zeros(n_names)
    incl = np.zeros(n_names)
    self_ns = np.zeros(n_names)
    child_ns = np.zeros(len(tracer.spans))
    if tracer.spans:
        arr = np.asarray(tracer.spans, dtype=np.int64)
        dur = (arr[:, 4] - arr[:, 3]).astype(float)
        has_parent = arr[:, 1] >= 0
        np.add.at(child_ns, arr[has_parent, 1], dur[has_parent])
        np.add.at(calls, arr[:, 0], 1)
        np.add.at(incl, arr[:, 0], dur)
        np.add.at(self_ns, arr[:, 0], dur - child_ns)
    out: dict[str, float] = {}
    layer_self = Counter()
    layer_errors = Counter()
    for fid, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[fid])
        out[f"{name}.s"] = incl[fid] / 1e9
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_ns[fid] / 1e9
        layer_errors[layer] += tracer.errors[fid]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.errors"] = layer_errors[layer]
    return out
