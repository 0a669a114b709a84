"""Tests of the benchmark's own summary rules and tracing wrappers."""

import logging

import numpy as np
import pytest

import fitstats
from layertrace import FitTimer, Tracer, layer_report
from pace import PACE_REF_S, PacedClock

from fuzzy_pomdp import em, fuzzy_map, harness, metrics, model
from fuzzy_pomdp.em import SufficientCounts
from fuzzy_pomdp.model import CovarianceError, PomdpModel, Trajectory


def _tiny_model():
    return PomdpModel(
        num_states=2, num_actions=2, obs_dim=2,
        transitions=np.full((2, 2, 2), 0.5),
        obs_means=np.array([[0.0, 0.0], [1.0, 1.0]]),
        obs_covs=np.tile(np.eye(2), (2, 1, 1)),
    )


def _tiny_dataset():
    rng = np.random.default_rng(0)
    return [Trajectory(observations=rng.normal(size=(4, 2)), actions=np.array([0, 1, 0]))]


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10),
    (40, 75.0, 30),
    (100, 90.0, 90),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    values = list(range(n, 0, -1))  # unsorted input
    tail = fitstats.tail_percentile(values)
    assert tail == {"percentile": percentile, "value": float(rank), "n": n, "beyond": n - rank}
    assert tail["beyond"] >= 10


def test_tail_percentile_undefined_below_twenty_samples():
    assert fitstats.tail_percentile(range(19)) is None
    assert fitstats.tail_percentile([]) is None


def test_fail_frac():
    assert fitstats.fail_frac(4, 0) == 0.0
    assert fitstats.fail_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        fitstats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        fitstats.fail_frac(2, 3)


def test_digest_check_records_first_and_flags_mismatch(tmp_path):
    csv = tmp_path / "runs.csv"
    csv.write_text("regime,seed\nlow_data,1\n")
    first = fitstats.file_digest(csv)
    store = tmp_path / "digests"
    assert fitstats.check_digest(store, "code/low_data-1", first) is None
    assert fitstats.check_digest(store, "code/low_data-1", first) is None
    csv.write_text("regime,seed\nlow_data,2\n")
    changed = fitstats.file_digest(csv)
    assert changed != first
    assert "differs" in fitstats.check_digest(store, "code/low_data-1", changed)
    # another key (other code or seeds) starts its own record
    assert fitstats.check_digest(store, "code/low_data-2", changed) is None


def test_tree_digest_follows_content(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    before = fitstats.tree_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert fitstats.tree_digest(tmp_path) != before


def test_tracer_wraps_every_binding_and_restores():
    originals = {
        (em, "e_step"): em.e_step,
        (fuzzy_map, "e_step"): fuzzy_map.e_step,
        (fuzzy_map, "derive_rng"): fuzzy_map.derive_rng,
        (fuzzy_map, "membership"): fuzzy_map.membership,
        (metrics, "gaussian_log_density"): metrics.gaussian_log_density,
        (harness, "run_em"): harness.run_em,
    }
    em_log = logging.getLogger("fuzzy_pomdp.em")
    log_state = (em_log.level, em_log.propagate, list(em_log.handlers))
    with Tracer():
        for (module, name), fn in originals.items():
            wrapped = getattr(module, name)
            assert wrapped is not fn
            assert wrapped.__wrapped__ is fn
        # one wrapper per function, whichever namespace binds it
        assert em.e_step is fuzzy_map.e_step
        assert metrics.gaussian_log_density is model.gaussian_log_density
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert (em_log.level, em_log.propagate, list(em_log.handlers)) == log_state


def test_tracer_restores_after_an_exception():
    original = model.cholesky_factor
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert model.cholesky_factor is original


def test_fit_timer_restores():
    originals = (harness.run_em, harness.run_fuzzy_map_em, em.e_step, fuzzy_map.e_step)
    with FitTimer(PacedClock()):
        assert harness.run_em is not originals[0]
        assert em.e_step is not originals[2]
    assert (harness.run_em, harness.run_fuzzy_map_em, em.e_step, fuzzy_map.e_step) == originals


def _clock(samples, marks):
    clock = PacedClock()
    for mark, pass_s in zip(marks, samples):
        clock._record(mark, pass_s)
    return clock


def test_paced_time_follows_the_passes_around_each_stretch():
    # passes at work times 0, 1 and 4; the last one ran at a third of the speed
    clock = _clock([PACE_REF_S, PACE_REF_S, 3 * PACE_REF_S], [0.0, 1.0, 4.0])
    assert clock.paced(0.0, 1.0) == pytest.approx(1.0)
    assert clock.paced(1.0, 4.0) == pytest.approx(1.5)
    assert clock.paced(0.5, 2.0) == pytest.approx(0.5 + 0.5)
    assert clock.paced(0.0, 4.0) == pytest.approx(2.5)
    # outside the passes, the nearest one paces alone
    assert clock.paced(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.paced(4.0, 7.0) == pytest.approx(1.0)


def test_clock_sample_builds_the_paced_marks_and_leaves_passes_out():
    clock = PacedClock(stretch_s=1e9)
    assert clock.sample() == 0
    clock.tick()  # not due
    assert len(clock.samples) == 1
    work = clock.now()
    clock.sample()
    assert clock.now() - work < clock.samples[1]  # the pass is not work
    assert clock.cost_s > 0 and clock.cpu_cost_s > 0
    speed = PACE_REF_S / ((clock.samples[0] + clock.samples[1]) / 2)
    elapsed = clock.marks[1] - clock.marks[0]
    assert clock.paced(clock.marks[0], clock.marks[1]) == pytest.approx(elapsed * speed)


def test_fit_timer_ticks_the_clock_on_every_e_step(monkeypatch):
    class Result:
        iterations, converged = 3, True

    def fake_fit():
        em.e_step(_tiny_model(), _tiny_dataset())
        fuzzy_map.e_step(_tiny_model(), _tiny_dataset())
        return Result()

    monkeypatch.setattr(harness, "run_em", fake_fit)
    monkeypatch.setattr(harness, "run_fuzzy_map_em", fake_fit)
    clock = PacedClock(stretch_s=0.0)  # a pass on every E-step
    with FitTimer(clock) as timer:
        harness.run_em()
        harness.run_fuzzy_map_em()
    assert len(clock.samples) == 4
    assert [f["kind"] for f in timer.fits] == ["em", "fm"]
    for fit in timer.fits:
        start, end = fit["work"]
        assert end - start == pytest.approx(fit["cpu_s"])
        # the passes inside the fit are left out of its times
        assert fit["cpu_s"] < sum(clock.samples[:2])
        assert fit["iterations"] == 3


def test_spans_nest_and_counters_fire():
    tracer = Tracer()
    with tracer:
        em.e_step(_tiny_model(), _tiny_dataset())
        with pytest.raises(CovarianceError):
            model.cholesky_factor(-np.eye(2))
        model.regularize_cov(np.zeros((2, 2)), 1e-6)  # singular: lifted
        model.regularize_cov(np.eye(2), 1e-6)  # well-conditioned: untouched
        em.m_step_standard(SufficientCounts.zeros(2, 2, 2), _tiny_model(), em.EmConfig())
    names = [tracer.names[s[0]] for s in tracer.spans]
    e_idx = names.index("em.e_step")
    fb_idx = names.index("em.forward_backward")
    assert tracer.spans[fb_idx][1] == e_idx
    dens = [i for i, n in enumerate(names) if n == "model.gaussian_log_density"]
    assert dens and all(names[tracer.spans[i][1]] == "model.per_state_log_density"
                        for i in dens)
    report = layer_report(tracer)
    assert report["model.errors"] == 1
    assert report["em.errors"] == 0
    assert tracer.counters["em.estep_obs"] == 4
    assert tracer.counters["model.ridge_lifts"] == 1
    # no mass at all: every row goes uniform, every state keeps its parameters
    assert tracer.counters["em.fallback.uniform_row"] == 4
    assert tracer.counters["em.fallback.frozen_obs"] == 2


def test_layer_self_time_excludes_children():
    tracer = Tracer()
    tracer.names[:] = ["em.run_em", "model.gaussian_log_density"]
    tracer.spans[:] = [[0, -1, 7, 0, 100], [1, 0, 7, 10, 40], [1, 0, 7, 50, 60]]
    report = layer_report(tracer)
    assert report["em.run_em.calls"] == 1
    assert report["model.gaussian_log_density.calls"] == 2
    assert report["em.run_em.s"] == pytest.approx(100e-9)
    assert report["em.self_s"] == pytest.approx(60e-9)
    assert report["model.self_s"] == pytest.approx(40e-9)


def test_mean_separation_matches_check_seven():
    means = [[0.0, 0.0], [0.3, 0.1]]
    covs = [np.diag([0.01, 0.04]), np.diag([0.04, 0.01])]
    assert fitstats.mean_separation(means, covs) == pytest.approx(0.3 / 0.2)
