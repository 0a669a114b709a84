"""Command-line interface: exit codes, artifacts, and determinism.

Commands run in-process through cli.main so the suite stays fast; the
console entry point is exercised once via --help.
"""
import json

import numpy as np
import pytest

from fuzzy_pomdp import cli
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.metrics import evaluate_model
from fuzzy_pomdp.model import load_env, model_from_dict


ENV = str(asset_path("synthetic_env.json"))
FUZZY = str(asset_path("expert_fuzzy_synthetic.json"))
MG = str(asset_path("mg_fuzzy_placeholder.json"))


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def gen_small_dataset(tmp_path, seed=7, n=3, horizon=5):
    out = tmp_path / "ds.json"
    rc = run_cli("gen-data", ENV, "--n", n, "--horizon", horizon,
                 "--seed", seed, "--out", out)
    assert rc == 0
    return out


# ------------------------------------------------------------- exit codes

def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_no_arguments_is_usage_error(capsys):
    assert run_cli() == 1


def test_gen_data_rejects_nonpositive_counts(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli("gen-data", ENV, "--n", 0, "--out", out) == 1
    assert run_cli("gen-data", ENV, "--horizon", 0, "--out", out) == 1
    assert run_cli("gen-data", ENV, "--noise", -0.5, "--out", out) == 1
    assert not out.exists()


def test_unknown_flag_and_bad_choice_exit_one(tmp_path):
    assert run_cli("gen-data", ENV, "--frobnicate") == 1
    assert run_cli("reproduce", "--regime", "made-up") == 1


def test_missing_input_file_exits_two(tmp_path):
    assert run_cli("gen-data", str(tmp_path / "missing_env.json"),
                   "--out", tmp_path / "o.json") == 2


def test_train_fuzzy_map_requires_rule_file(tmp_path):
    ds = gen_small_dataset(tmp_path)
    assert run_cli("train", ds, "--algo", "fuzzy-map",
                   "--out", tmp_path / "c.json") == 1


def test_validate_corrupt_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json at all")
    assert run_cli("validate", bad) == 2


# -------------------------------------------------------------- artifacts

def test_gen_data_writes_dataset_and_manifest(tmp_path):
    out = gen_small_dataset(tmp_path)
    data = json.loads(out.read_text())
    assert len(data) == 3
    assert len(data[0]["observations"]) == 5
    manifest = tmp_path / "ds.manifest.json"
    assert manifest.is_file()
    meta = json.loads(manifest.read_text())
    assert meta["command"] == "gen-data"
    assert meta["parameters"]["seed"] == 7


def test_gen_data_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("gen-data", ENV, "--n", 4, "--horizon", 6,
                       "--seed", 3, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run_cli("gen-data", ENV, "--n", 4, "--horizon", 6,
                   "--seed", 4, "--out", c) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_fuzzy_data_shape(tmp_path):
    out = tmp_path / "fds.json"
    assert run_cli("gen-fuzzy-data", MG, "--n", 6, "--horizon", 9,
                   "--seed", 0, "--out", out) == 0
    data = json.loads(out.read_text())
    assert len(data) == 6
    assert len(data[0]["observations"]) == 9
    assert len(data[0]["observations"][0]) == 3


def test_train_em_checkpoint_contents(tmp_path):
    ds = gen_small_dataset(tmp_path)
    ckpt = tmp_path / "em.json"
    assert run_cli("train", ds, "--algo", "em", "--states", 3,
                   "--max-iterations", 20, "--seed", 1, "--out", ckpt) == 0
    payload = json.loads(ckpt.read_text())
    assert payload["config"]["algo"] == "em"
    assert payload["model"]["num_states"] == 3
    assert len(payload["loglik_trace"]) >= 2
    trace = payload["loglik_trace"]
    assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
    assert payload["config"]["max_iterations"] == 20
    assert "prior_data_ratios" not in payload  # fuzzy-map only


def test_train_zero_lambda_fuzzy_map_equals_em(tmp_path):
    ds = gen_small_dataset(tmp_path)
    em_ckpt = tmp_path / "em.json"
    fm_ckpt = tmp_path / "fm.json"
    common = ["--states", "3", "--max-iterations", "15", "--init", "kmeans",
              "--seed", "2"]
    assert run_cli("train", ds, "--algo", "em", *common,
                   "--out", em_ckpt) == 0
    assert run_cli("train", ds, "--algo", "fuzzy-map", "--fuzzy-model",
                   FUZZY, "--lambda-t", 0, "--lambda-o", 0, *common,
                   "--out", fm_ckpt) == 0
    em_m = json.loads(em_ckpt.read_text())["model"]
    fm_m = json.loads(fm_ckpt.read_text())["model"]
    assert np.allclose(em_m["transitions"], fm_m["transitions"], atol=1e-9)
    assert np.allclose(em_m["obs_means"], fm_m["obs_means"], atol=1e-9)


def test_train_fuzzy_map_echoes_lambdas_and_ratios(tmp_path):
    ds = gen_small_dataset(tmp_path)
    ckpt = tmp_path / "fm.json"
    assert run_cli("train", ds, "--algo", "fuzzy-map", "--fuzzy-model", FUZZY,
                   "--lambda-t", 0.1, "--lambda-o", 0.05,
                   "--max-iterations", 10, "--init", "kmeans",
                   "--out", ckpt) == 0
    payload = json.loads(ckpt.read_text())
    assert payload["config"]["algo"] == "fuzzy-map"
    assert payload["config"]["lambda_t"] == 0.1
    assert payload["config"]["lambda_o"] == 0.05
    assert payload["init_summary"]["scheme"] == "kmeans"
    assert payload["init_summary"]["transitions_uniform"] is True
    ratios = payload["prior_data_ratios"]
    assert len(ratios) >= 1
    assert all(r["transition"] >= 0 and r["observation"] >= 0
               for r in ratios)


def test_train_init_file_round_trip(tmp_path):
    ds = gen_small_dataset(tmp_path)
    first = tmp_path / "first.json"
    assert run_cli("train", ds, "--algo", "em", "--states", 2,
                   "--max-iterations", 5, "--out", first) == 0
    # --init file takes a bare model or a whole checkpoint
    model_only = tmp_path / "model.json"
    model_only.write_text(
        json.dumps(json.loads(first.read_text())["model"]))
    second = tmp_path / "second.json"
    assert run_cli("train", ds, "--algo", "em", "--init", "file",
                   "--init-file", model_only, "--max-iterations", 5,
                   "--out", second) == 0
    warm = tmp_path / "warm.json"
    assert run_cli("train", ds, "--algo", "em", "--init", "file",
                   "--init-file", first, "--max-iterations", 5,
                   "--out", warm) == 0
    # both spellings start from the same parameters
    assert (json.loads(warm.read_text())["loglik_trace"]
            == json.loads(second.read_text())["loglik_trace"])
    assert run_cli("train", ds, "--algo", "em", "--init", "file",
                   "--max-iterations", 5, "--out", tmp_path / "x.json") == 1


def test_eval_report(tmp_path):
    ds = gen_small_dataset(tmp_path, n=6, horizon=8)
    ckpt = tmp_path / "ck.json"
    assert run_cli("train", ds, "--algo", "em", "--states", 3,
                   "--init", "kmeans", "--max-iterations", 30,
                   "--out", ckpt) == 0
    report_path = tmp_path / "report.json"
    assert run_cli("eval", ckpt, ENV, "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert sorted(report["state_matching"]) == [0, 1, 2]
    assert report["l1_transition"] >= 0.0
    assert set(report["kl_per_state"]) == {"Healthy", "Sick", "Critical"}
    want = evaluate_model(model_from_dict(json.loads(ckpt.read_text())["model"]),
                          load_env(ENV))
    assert report["kl_per_state"] == pytest.approx(want.kl_per_state, rel=1e-12)


def test_validate_recognizes_every_artifact_kind(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    ckpt = tmp_path / "ck.json"
    assert run_cli("train", ds, "--algo", "em", "--states", 3,
                   "--max-iterations", 5, "--out", ckpt) == 0
    report = tmp_path / "rep.json"
    assert run_cli("eval", ckpt, ENV, "--out", report) == 0
    manifest = tmp_path / "ds.manifest.json"
    rc = run_cli("validate", ds, ckpt, report, manifest, ENV, FUZZY)
    captured = capsys.readouterr().out
    assert rc == 0
    for kind in ("dataset", "checkpoint", "eval-report", "manifest",
                 "env", "fuzzy-model"):
        assert kind in captured
    assert "INVALID" not in captured


def test_validate_flags_broken_model(tmp_path, capsys):
    model = {
        "num_states": 2, "num_actions": 1, "obs_dim": 1,
        "transitions": [[[0.9, 0.3]], [[0.5, 0.5]]],  # first row sums to 1.2
        "obs_means": [[0.0], [1.0]],
        "obs_covs": [[[1.0]], [[1.0]]],
        "initial_dist": [0.5, 0.5],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(model))
    assert run_cli("validate", p) == 2
    assert "INVALID" in capsys.readouterr().out


# ------------------------------------------------------------ experiments

def test_reproduce_low_data_smoke(tmp_path, capsys):
    rc = run_cli("reproduce", "--regime", "low-data", "--seeds", 2,
                 "--out-dir", tmp_path)
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "runs.csv").is_file()
    assert (tmp_path / "summary.json").is_file()
    assert "standard EM" in out and "Fuzzy-MAP EM" in out
    assert "win rate" in out


def test_sweep_grid_and_zero_cell_reduction(tmp_path):
    rc = run_cli("sweep", "--regime", "low-data", "--seeds", 1,
                 "--grid", "0,0.1", "--out-dir", tmp_path)
    assert rc == 0
    sweep_csv = tmp_path / "sweep.csv"
    assert sweep_csv.is_file()
    import csv as _csv
    with open(sweep_csv) as fh:
        rows = list(_csv.DictReader(fh))
    assert len(rows) == 2
    zero = next(r for r in rows if float(r["lambda_t"]) == 0.0)
    # the zero-lambda cell trains the same model twice
    assert abs(float(zero["em_median_l1_avg"])
               - float(zero["fuzzy_map_median_l1_avg"])) < 1e-9


def test_log_level_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUZZY_POMDP_LOG", "debug")
    gen_small_dataset(tmp_path, seed=1)
    monkeypatch.setenv("FUZZY_POMDP_LOG", "not-a-level")
    out = tmp_path / "d2.json"
    assert run_cli("gen-data", ENV, "--n", 2, "--horizon", 3,
                   "--seed", 1, "--out", out) == 0
    assert "unknown FUZZY_POMDP_LOG" in capsys.readouterr().err
