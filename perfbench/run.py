#!/usr/bin/env python3
"""Fit benchmark for fuzzy_pomdp.

    python3 perfbench/run.py --workload low-data --seed 3 --seconds 30 --trace 0

Runs one workload through the library's public entry point,
`harness.run_regime(regime_config(<regime>, seeds=..., out_dir=...))`,
against the package under `src/` of the checkout it sits in. With
`--trace 0` it times whole regime runs and every plain-EM and fuzzy-MAP fit
and prints the end-to-end metrics, each a CPU time scaled by passes of a
reference loop interleaved with it (perfbench/pace.py), so that the host's
changing speed drops out; with `--trace 1` it runs one seed list
untraced and once more with every public function of the layer modules
wrapped from outside, and prints the per-layer metrics. Either way the
outputs are checked: every emitted JSON passes `fuzzy-pomdp validate`, and
each `runs.csv` digest must equal the first digest recorded for the same
code and seed list (and, traced, the untraced digest).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every number with its unit.
Everything the run writes goes under `.perfbench_out/` in the checkout.
See perfbench/README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "fuzzy_pomdp"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import fitstats  # noqa: E402
from fitstats import median  # noqa: E402
from pace import PACE_REF_S, PacedClock  # noqa: E402


@dataclass(frozen=True)
class Workload:
    regime: str
    # paired seeds per run_regime call; each call takes a fresh slice of
    # the seed stream, so a run averages over as many seeds as it has time for
    seeds_per_rep: int
    has_env: bool


WORKLOADS = {
    "low-data": Workload("low_data", seeds_per_rep=1, has_env=True),
    "high-noise": Workload("high_noise", seeds_per_rep=1, has_env=True),
    "mg": Workload("mg_pipeline", seeds_per_rep=2, has_env=False),
}

# fresh-process set-ups per run; the median is reported
SETUP_REPEATS = 7
# reference passes each set-up process takes right after its set-up
SETUP_PASSES = 3
SEED_STRIDE = 1000
MIN_REPS = 2

SETUP_CODE = f"""
import sys, time
t0, c0 = time.perf_counter(), time.thread_time()
sys.path.insert(0, sys.argv[1])
from fuzzy_pomdp import harness
from fuzzy_pomdp.fuzzy import load_fuzzy_model
from fuzzy_pomdp.model import load_env
if sys.argv[2] == "mg_pipeline":
    load_fuzzy_model(harness.asset_path("mg_fuzzy_placeholder.json"))
else:
    load_env(harness.asset_path("synthetic_env.json"))
    load_fuzzy_model(harness.asset_path("expert_fuzzy_synthetic.json"))
wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
sys.path.insert(0, sys.argv[3])
from pace import pace_once
print(repr(wall), repr(cpu), *(repr(pace_once()) for _ in range({SETUP_PASSES})))
"""


def rep_seeds(seed: int, rep: int, per_rep: int) -> list[int]:
    """Paired seeds of the rep-th run_regime call of a run at `seed`."""
    start = seed * SEED_STRIDE + rep * per_rep
    return list(range(start, start + per_rep))


def measure_setups(regime: str) -> list[dict]:
    """Import the package and load the regime's assets in fresh processes.

    Each set-up's CPU time is paced by the reference passes its own process
    takes right after it: a child may run on another core than this process,
    and the cores of a shared host are loaded unevenly. It is the main
    thread's CPU time: numpy's BLAS threads spin for a varying while as they
    start, and the package runs no threads of its own.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), regime, str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, cpu, *passes = map(float, proc.stdout.strip().splitlines()[-1].split())
        setups.append({"wall_s": wall, "cpu_s": cpu,
                       "paced_s": cpu * PACE_REF_S / median(passes)})
    return setups


def run_rep(harness, wl: Workload, seeds: list[int], out_dir: Path,
            clock: PacedClock | None = None) -> dict:
    """One run_regime call; with a clock, the reference passes inside it are
    left out of its wall time, and its span of work time is recorded."""
    config = harness.regime_config(wl.regime, seeds=seeds, out_dir=str(out_dir))
    passes = clock.cost_s if clock else 0.0
    work_start = clock.now() if clock else None
    start = perf_counter()
    report = harness.run_regime(config)
    wall = perf_counter() - start
    rep = {"seeds": seeds, "out_dir": out_dir, "report": report, "wall_s": wall}
    if clock:
        rep.update(wall_s=wall - (clock.cost_s - passes), work=(work_start, clock.now()))
    return rep


def check_rep(rep: dict, source_key: str, regime: str) -> tuple[list[str], str]:
    """Validate a rep's outputs; returns (problems, runs.csv digest)."""
    from fuzzy_pomdp import cli

    out_dir, report, seeds = rep["out_dir"], rep["report"], rep["seeds"]
    problems = []
    files = sorted(str(p) for p in out_dir.glob("*.json"))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["validate", *files])
    if code != 0 or not files:
        problems.append(f"validate exited {code} on {out_dir.name}: {sink.getvalue().strip()}")
    failed = report["num_failures"]
    expected_rows = 2 * (len(seeds) - failed)
    if len(report["rows"]) != expected_rows:
        problems.append(f"{len(report['rows'])} result rows, expected {expected_rows}")
    digest = fitstats.file_digest(out_dir / "runs.csv")
    key = f"{source_key[:16]}/{regime}-" + "-".join(map(str, seeds))
    mismatch = fitstats.check_digest(OUT / "digests", key, digest)
    if mismatch:
        problems.append(mismatch)
    return problems, digest


def quality(wl: Workload, reps: list[dict]) -> dict:
    """Fit-quality figures over every seed of the run (deterministic per seed)."""
    from fuzzy_pomdp.model import model_from_dict

    out: dict[str, float | str | None] = {}
    if wl.has_env:
        em_rows, fm_rows = {}, {}
        for rep in reps:
            for row in rep["report"]["rows"]:
                (fm_rows if row["algorithm"] == "fuzzy_map" else em_rows)[row["seed"]] = row
        l1 = [r["l1_avg"] for r in fm_rows.values()]
        kl = [r["kl_critical"] for r in fm_rows.values()]
        shared = sorted(set(em_rows) & set(fm_rows))
        wins = sum(fm_rows[s]["l1_avg"] < em_rows[s]["l1_avg"] for s in shared)
        out["fm_l1"] = median(l1) if l1 else None
        out["l1_win_rate"] = wins / len(shared) if shared else None
        # a +inf KL (the metrics module's sentinel) sorts as the worst value
        out["fm_kl_critical"] = median(kl) if kl else None
    else:
        seps = []
        for rep in reps:
            for seed in rep["seeds"]:
                path = rep["out_dir"] / f"model_{seed}_fuzzy_map.json"
                if path.exists():
                    m = model_from_dict(json.loads(path.read_text()))
                    seps.append(fitstats.mean_separation(m.obs_means, m.obs_covs))
        out["mg_sep_min"] = min(seps) if seps else None
    return out


def run_context() -> dict:
    import numpy
    import scipy

    ctx = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except OSError:  # no git on this machine
            return ctx
        if proc.returncode == 0:
            ctx["git_commit"] = proc.stdout.strip()
    return ctx


def fit_metrics(fits: list[dict], key: str = "paced_s") -> dict:
    """Per-fit medians, and the pooled milliseconds per iteration, of some fits.

    `key` picks the time: "paced_s" (the default) or wall-clock "s".
    The pooled figure (all fit time over all iterations) is the steadier
    one when fits are short and their iteration counts differ widely.
    """
    return {
        "fit_s": median(f[key] for f in fits),
        "iter_ms": median(1e3 * f[key] / max(f["iterations"], 1) for f in fits),
        "pooled_iter_ms": 1e3 * sum(f[key] for f in fits)
        / max(sum(f["iterations"] for f in fits), 1),
        "iters": median(f["iterations"] for f in fits),
        "converged_frac": sum(f["converged"] for f in fits) / len(fits),
    }


def timed_run(wl: Workload, seed: int, seconds: float, run_dir: Path, source_key: str):
    """Untraced run: end-to-end metrics over as many reps as fit in `seconds`.

    Every time is measured as CPU seconds and paced (see pace.py) by the
    reference passes interleaved with it: a set-up process takes its own
    after its set-up, and this one takes a pass whenever an E-step starts
    after 0.1 s of work since the last.
    The wall-clock figures are reported alongside, ungated.
    """
    run_start = perf_counter()
    setup = measure_setups(wl.regime)
    clock = PacedClock()
    from fuzzy_pomdp import harness
    from layertrace import FitTimer

    reps = []
    start = perf_counter()
    with FitTimer(clock) as timer:
        while True:
            reps.append(run_rep(harness, wl, rep_seeds(seed, len(reps), wl.seeds_per_rep),
                                run_dir / f"rep{len(reps)}", clock))
            # at least two reps, so no metric rests on a single regime run;
            # then another only while a typical one, passes included, still
            # fits the budget, which the set-ups count against
            typical = (perf_counter() - start) / len(reps)
            if len(reps) >= MIN_REPS and perf_counter() - run_start + typical > seconds:
                break
    clock.sample()  # so that the last stretch is paced from both ends
    measured_s = perf_counter() - start
    for piece in timer.fits + reps:
        piece["paced_s"] = clock.paced(*piece["work"])

    problems = []
    for rep in reps:
        problems += check_rep(rep, source_key, wl.regime)[0]
    attempted = sum(len(r["seeds"]) for r in reps)
    failed = sum(r["report"]["num_failures"] for r in reps)
    metrics = {
        "setup_s": median(s["paced_s"] for s in setup),
        "regime_s": median(r["paced_s"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "setup_s": median(s["wall_s"] for s in setup),
        "wall_s": median(r["wall_s"] for r in reps),
    }
    info = {
        "fail_frac": fitstats.fail_frac(attempted, failed),
        "reps": len(reps),
        "seeds": [s for r in reps for s in r["seeds"]],
        "rep_paced_s": [r["paced_s"] for r in reps],
        "rep_wall_s": [r["wall_s"] for r in reps],
        "setups": setup,
        "pace_ms": {"passes": len(clock.samples),
                    "quartiles": [1e3 * q for q in statistics.quantiles(clock.samples, n=4)],
                    "min": 1e3 * min(clock.samples), "max": 1e3 * max(clock.samples)},
        "pace_cost_s": clock.cost_s,
        "measured_s": measured_s,
        "wall": wall,
    }
    em = [f for f in timer.fits if f["kind"] == "em"]
    fm = [f for f in timer.fits if f["kind"] == "fm"]
    if em and fm:
        em_stats, fm_stats = fit_metrics(em), fit_metrics(fm)
        metrics.update({
            "fm_fit_s.p50": fm_stats["fit_s"],
            "fm_iter_ms": fm_stats["iter_ms"],
            "em_iter_ms": em_stats["pooled_iter_ms"],
        })
        em_wall, fm_wall = fit_metrics(em, "s"), fit_metrics(fm, "s")
        wall.update({
            "fm_fit_s.p50": fm_wall["fit_s"],
            "fm_iter_ms": fm_wall["iter_ms"],
            "em_iter_ms": em_wall["pooled_iter_ms"],
            "em_fit_s.p50": em_wall["fit_s"],
            "fm_fit_s.tail": fitstats.tail_percentile([f["s"] for f in fm]),
        })
        info.update({
            # iteration counts, and so plain-EM fit times, vary from seed to
            # seed far more than a bound allows: reported, not gated
            "em_fit_s.p50": em_stats["fit_s"],
            "em_iters": em_stats["iters"],
            "fm_iters": fm_stats["iters"],
            "fm_fit_s.tail": fitstats.tail_percentile([f["paced_s"] for f in fm]),
            "fm_converged_frac": fm_stats["converged_frac"],
            "em_converged_frac": em_stats["converged_frac"],
            "fits": {"em": len(em), "fm": len(fm)},
            "quality": quality(wl, reps),
        })
    else:
        problems.append("no fit completed")
    return metrics, info, attempted, failed, problems


def traced_run(wl: Workload, seed: int, run_dir: Path, source_key: str):
    """One seed list untraced, then traced: per-layer metrics and overhead."""
    from fuzzy_pomdp import harness
    from layertrace import Tracer, layer_report, wrapper_cost_s

    seeds = rep_seeds(seed, 0, wl.seeds_per_rep)
    plain = run_rep(harness, wl, seeds, run_dir / "untraced")
    with Tracer() as tracer:
        traced = run_rep(harness, wl, seeds, run_dir / "traced")
    n_spans = tracer.write_spans(run_dir / "spans.json")

    plain_problems, plain_digest = check_rep(plain, source_key, wl.regime)
    traced_problems, traced_digest = check_rep(traced, source_key, wl.regime)
    problems = plain_problems + traced_problems
    if plain_digest != traced_digest:
        problems.append("traced runs.csv differs from the untraced one")

    m = layer_report(tracer)
    m.update(tracer.counters)
    wall = traced["wall_s"]

    def per(num, den, scale):
        return scale * m[num] / m[den] if m[den] else 0.0

    m["fuzzy_map.matchant_matrix.ms_per_call"] = per(
        "fuzzy_map.matchant_matrix.s", "fuzzy_map.matchant_matrix.calls", 1e3)
    m["metrics.evaluate_model.ms_per_call"] = per(
        "metrics.evaluate_model.s", "metrics.evaluate_model.calls", 1e3)
    m["em.e_step.us_per_obs"] = per("em.e_step.s", "em.estep_obs", 1e6)
    m["fuzzy_map.matchant_matrix.share"] = m["fuzzy_map.matchant_matrix.s"] / wall
    m["em.e_step.share"] = m["em.e_step.s"] / wall
    m["fuzzy_map.pseudocounts.s"] = m["fuzzy_map.compute_from_matchant.s"]
    m["harness.seed_s"] = m["harness.run_paired_seed.s"]
    m["harness.data_s"] = m["harness.synthetic_dataset.s"] + m["harness.generate_fuzzy_trajectories.s"]
    m["harness.init_s"] = m["harness.random_init.s"] + m["harness.kmeans_init.s"]
    m["harness.write_bytes"] = sum(
        p.stat().st_size for p in traced["out_dir"].iterdir() if p.is_file())
    # the measured overhead carries the machine's run-to-run noise; the
    # estimate (spans times the calibrated per-call wrapper cost) does not
    m["trace.overhead_frac"] = wall / plain["wall_s"] - 1.0
    m["trace.overhead_est_frac"] = n_spans * wrapper_cost_s() / plain["wall_s"]
    m["trace.spans"] = n_spans

    info = {
        "seeds": seeds,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": wall,
        "layer_self_share": {k: v / wall for k, v in m.items() if k.endswith(".self_s")},
        "work_counts": {k: m[k] for k in (
            "em.estep_obs", "fuzzy_map.mc_samples", "rngs.derive_rng.calls",
            "model.gaussian_log_density.calls")},
    }
    attempted = 2 * len(seeds)
    failed = plain["report"]["num_failures"] + traced["report"]["num_failures"]
    return m, info, attempted, failed, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    source_key = fitstats.tree_digest(PACKAGE_DIR)

    if args.trace:
        metrics, info, attempted, failed, problems = traced_run(wl, args.seed, run_dir, source_key)
    else:
        metrics, info, attempted, failed, problems = timed_run(
            wl, args.seed, args.seconds, run_dir, source_key)
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"metrics not produced: {missing}")
    context = run_context()
    record = {"workload": args.workload, "regime": wl.regime, "seed": args.seed,
              "trace": args.trace, "metrics": metrics, "info": info,
              "problems": problems, "context": context}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    reported = {name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items() if name in metrics}
    for name, metric in reported.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in {**info, "context": context}.items():
        print(f"# {name}: {json.dumps(value, default=str)}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
