"""Command-line interface: exit codes, artifacts, and determinism.

Commands run in-process through cli.main so the suite stays fast; the
console entry point is exercised once via --help.
"""
import json

import numpy as np
import pytest

from fuzzy_pomdp import cli, harness
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.metrics import evaluate_model
from fuzzy_pomdp.model import Trajectory, load_env, model_from_dict, save_dataset

from conftest import ILL_CONDITIONED


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


def test_reproduce_has_no_noise_is_std_flag(tmp_path):
    # regime_config("high_noise", seeds, noise_sigma=0.25) runs that reading
    assert run_cli("reproduce", "--regime", "high-noise", "--seeds", 1,
                   "--out-dir", tmp_path / "out", "--noise-is-std") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, source", [("gen-data", ENV), ("gen-fuzzy-data", MG)])
@pytest.mark.parametrize("spec, problem", [
    ("bogus", "unknown policy spec 'bogus'"),
    ("fixed:abc", "unknown policy spec 'fixed:abc'"),
    ("fixed:5", "fixed action 5 out of range [0, 2)"),
])
def test_a_bad_policy_is_a_usage_error_and_writes_nothing(command, source, spec, problem,
                                                          tmp_path, capsys):
    assert run_cli(command, source, "--policy", spec, "--out", tmp_path / "out.json") == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == f"usage error: {problem}\n"


def test_missing_input_file_exits_two(tmp_path):
    assert run_cli("gen-data", str(tmp_path / "missing_env.json"),
                   "--out", tmp_path / "o.json") == 2


def test_train_fuzzy_map_requires_rule_file(tmp_path):
    ds = gen_small_dataset(tmp_path)
    assert run_cli("train", ds, "--algo", "fuzzy-map",
                   "--out", tmp_path / "c.json") == 1


def test_train_fuzzy_map_rejects_a_rule_base_of_another_obs_dim(tmp_path, capsys):
    # the mg rule base is 3-D, the generated dataset 2-D
    ds = gen_small_dataset(tmp_path)
    capsys.readouterr()
    ckpt = tmp_path / "c.json"
    for lam in ("0.1", "0"):
        assert run_cli("train", ds, "--algo", "fuzzy-map", "--fuzzy-model", MG,
                       "--lambda-t", lam, "--lambda-o", lam, "--out", ckpt) == 1
        err = capsys.readouterr().err
        assert "fuzzy model has obs_dim 3" in err and "model has obs_dim 2" in err
    assert not ckpt.exists()


def test_train_fuzzy_map_gives_the_init_every_action_of_the_rule_base(tmp_path, capsys):
    # action 1 never appears in this dataset, but the bundled rules 3-5 are
    # gated on it: without --actions the model gets the rule base's 2 actions
    rng = np.random.default_rng(4)
    ds = tmp_path / "one_action.json"
    save_dataset([Trajectory(observations=rng.uniform(size=(5, 2)), actions=np.zeros(4, int))
                  for _ in range(3)], ds)
    for algo, flags, num_actions in (("em", (), 1), ("fuzzy-map", ("--fuzzy-model", FUZZY), 2)):
        ckpt = tmp_path / f"{algo}.json"
        assert run_cli("train", ds, "--algo", algo, *flags, "--max-iterations", 3,
                       "--out", ckpt) == 0
        assert json.loads(ckpt.read_text())["model"]["num_actions"] == num_actions
    capsys.readouterr()
    ckpt = tmp_path / "c.json"
    assert run_cli("train", ds, *FUZZY_MAP, "--actions", 1, "--out", ckpt) == 1
    err = capsys.readouterr().err
    assert "rule 3 is gated on action 1, but the POMDP model has 1 action(s)" in err
    assert not ckpt.exists()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A dataset and a checkpoint trained on it, for train and eval."""
    work = tmp_path_factory.mktemp("inputs")
    ds = gen_small_dataset(work)
    ckpt = work / "ck.json"
    assert run_cli("train", ds, "--max-iterations", 2, "--out", ckpt) == 0
    return {"DATASET": ds, "CHECKPOINT": ckpt}


FUZZY_MAP = ("--algo", "fuzzy-map", "--fuzzy-model", FUZZY)


# each numeric flag, or --grid value, out of its bound, and --grid values
# that would name one sweep cell twice
@pytest.mark.parametrize("argv", [
    ("gen-data", ENV, "--n", "0"),
    ("gen-data", ENV, "--horizon", "0"),
    ("gen-data", ENV, "--noise", "-0.5"),
    ("gen-fuzzy-data", MG, "--n", "0"),
    ("gen-fuzzy-data", MG, "--horizon", "0"),
    ("gen-fuzzy-data", MG, "--noise", "-0.5"),
    ("gen-fuzzy-data", MG, "--noise", "nan"),
    ("train", "DATASET", "--max-iterations", "0"),
    ("train", "DATASET", "--tolerance", "0"),
    ("train", "DATASET", *FUZZY_MAP, "--lambda-t", "-1"),
    ("train", "DATASET", *FUZZY_MAP, "--lambda-o", "inf"),
    ("train", "DATASET", *FUZZY_MAP, "--matchant-samples", "0"),
    ("train", "DATASET", *FUZZY_MAP, "--final-em-iterations", "-1"),
    ("train", "DATASET", "--states", "0"),
    ("train", "DATASET", "--actions", "0"),
    ("reproduce", "--regime", "low-data", "--seeds", "0"),
    ("reproduce", "--regime", "low-data", "--seeds", "1", "--lambda-t", "-1"),
    ("sweep", "--seeds", "1", "--grid", "0,nan"),
    ("sweep", "--seeds", "0"),
    ("sweep", "--seeds", "1", "--grid", "0.1,0.1000001"),
    ("sweep", "--seeds", "1", "--grid", "0.1,0.1"),
    ("sweep", "--seeds", "1", "--grid", "0,0.5,-0"),
    ("gen-data", ENV, "--seed", "-1"),
    ("gen-data", ENV, "--seed", "4294967296"),
    ("gen-fuzzy-data", MG, "--seed", "-1"),
    ("gen-fuzzy-data", MG, "--seed", "4294967296"),
    ("train", "DATASET", "--seed", "-1"),
    ("train", "DATASET", "--seed", "4294967296"),
], ids=lambda argv: " ".join(str(a) for a in argv[:1] + argv[-2:]))
def test_out_of_bound_numbers_exit_one_and_write_nothing(argv, inputs, tmp_path, capsys):
    out = ("--out-dir", tmp_path / "out") if argv[0] in ("reproduce", "sweep") \
        else ("--out", tmp_path / "out.json")
    argv = [inputs.get(a, a) for a in argv]
    assert run_cli(*argv, *out) == 1
    assert list(tmp_path.iterdir()) == []
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "4294967295"])
def test_seed_range_ends_are_accepted(seed, inputs, tmp_path):
    for argv in (("gen-data", ENV, "--n", "1"), ("gen-fuzzy-data", MG, "--n", "1"),
                 ("train", inputs["DATASET"], "--max-iterations", "1")):
        out = tmp_path / f"{argv[0]}.json"
        assert run_cli(*argv, "--seed", seed, "--out", out) == 0
        assert out.exists()


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


def test_train_kmeans_init_honours_actions(tmp_path):
    # a dataset that only ever takes action 0 still gets the requested
    # action count, from either init
    ds = tmp_path / "ds.json"
    assert run_cli("gen-data", ENV, "--n", 4, "--horizon", 6, "--policy", "fixed:0",
                   "--out", ds) == 0
    for init in ("kmeans", "random"):
        ckpt = tmp_path / f"{init}.json"
        assert run_cli("train", ds, "--init", init, "--actions", 2,
                       "--max-iterations", 3, "--out", ckpt) == 0
        assert json.loads(ckpt.read_text())["model"]["num_actions"] == 2


def test_train_rejects_an_invalid_dataset(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    payload = json.loads(ds.read_text())
    payload[1]["observations"][2][0] = float("nan")
    nan_ds = tmp_path / "nan.json"
    nan_ds.write_text(json.dumps(payload))
    ckpt = tmp_path / "ck.json"
    first = next(i for i, t in enumerate(json.loads(ds.read_text())) if 1 in t["actions"])
    for init in ("kmeans", "random"):
        assert run_cli("train", nan_ds, "--init", init, "--out", ckpt) == 1
        assert ("trajectory 1: observations[t=2, dim=0] is not finite (nan)"
                in capsys.readouterr().err)
        # --actions 1 on data that takes action 1
        assert run_cli("train", ds, "--init", init, "--actions", 1, "--out", ckpt) == 1
        err = capsys.readouterr().err
        assert f"trajectory {first}: action index out of range [0, 1)" in err
    # 2 observations cannot seed 3 states
    short = gen_small_dataset(tmp_path / "short", n=1, horizon=2)
    for init in ("kmeans", "random"):
        assert run_cli("train", short, "--init", init, "--out", ckpt) == 1
        assert ("3 states need at least as many observations; the dataset has 2"
                in capsys.readouterr().err)
    assert not ckpt.exists()


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


def test_train_init_file_checks_given_states_and_actions(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    first = tmp_path / "first.json"
    assert run_cli("train", ds, "--states", 2, "--actions", 2,
                   "--max-iterations", 3, "--out", first) == 0
    out = tmp_path / "second.json"
    warm = ("train", ds, "--init", "file", "--init-file", first,
            "--max-iterations", 3, "--out", out)
    assert run_cli(*warm, "--states", 4, "--actions", 2) == 1
    assert ("--states 4 does not match the --init-file model, which has 2"
            in capsys.readouterr().err)
    assert run_cli(*warm, "--actions", 3) == 1
    assert ("--actions 3 does not match the --init-file model, which has 2"
            in capsys.readouterr().err)
    assert not out.exists()
    # a value equal to the model's is accepted
    assert run_cli(*warm, "--states", 2, "--actions", 2) == 0
    model = json.loads(out.read_text())["model"]
    assert (model["num_states"], model["num_actions"]) == (2, 2)


def _defective_model(defect: str) -> dict:
    """A model shaped for the synthetic env with one defect in its content."""
    model = {
        "num_states": 3, "num_actions": 2, "obs_dim": 2,
        "transitions": np.full((3, 2, 3), 1.0 / 3.0).tolist(),
        "obs_means": [[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]],
        "obs_covs": (0.01 * np.stack([np.eye(2)] * 3)).tolist(),
    }
    if defect == "row":
        model["transitions"][0][1] = [0.6, 0.3, 0.3]
    elif defect == "nan":
        model["obs_means"][2][1] = float("nan")
    elif defect == "ill_conditioned":
        model["obs_covs"][1] = ILL_CONDITIONED
    else:
        model["obs_covs"][1] = [[0.01, 0.0], [0.0, -0.01]]
    return model


@pytest.mark.parametrize("defect, problem", [
    ("row", "transitions[s=0, a=1] sums to 1.2, expected 1"),
    ("nan", "obs_means[s=2, dim=1] is not finite (nan)"),
    ("cov", "obs_covs[s=1] is not positive definite (min eigenvalue -0.01)"),
    ("ill_conditioned", "obs_covs[s=1] is not positive definite (min eigenvalue 0.00781)"),
])
def test_eval_and_train_reject_an_invalid_model_file(tmp_path, capsys, defect, problem):
    ds = gen_small_dataset(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_defective_model(defect)))
    # a bare model and a checkpoint holding it alike
    ckpt = tmp_path / "ck.json"
    ckpt.write_text(json.dumps({"model": _defective_model(defect)}))
    for path in (bad, ckpt):
        out = tmp_path / "out.json"
        assert run_cli("eval", path, ENV, "--out", out) == 2
        assert f"error: invalid model: {problem}" in capsys.readouterr().err
        assert run_cli("train", ds, "--init", "file", "--init-file", path,
                       "--max-iterations", 3, "--out", out) == 2
        assert f"error: invalid model: {problem}" in capsys.readouterr().err
        assert not out.exists()


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


def test_validate_flags_nan_dataset(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    payload = json.loads(ds.read_text())
    payload[1]["observations"][2][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))  # written as the JSON token NaN
    assert run_cli("validate", ds, bad) == 2
    out = capsys.readouterr().out
    assert f"{ds}: dataset ok" in out
    assert f"{bad}: dataset INVALID" in out
    assert "trajectory 1: observations[t=2, dim=0] is not finite (nan)" in out


def test_validate_flags_a_dataset_with_non_integer_actions(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    payload = json.loads(ds.read_text())
    payload[1]["actions"][0] = 0.5
    bad = tmp_path / "half.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("validate", bad) == 2
    out = capsys.readouterr().out
    assert f"{bad}: dataset INVALID" in out
    assert "actions must be integers, got 0.5" in out


def test_validate_flags_a_dataset_with_string_actions(tmp_path, capsys):
    ds = gen_small_dataset(tmp_path)
    payload = json.loads(ds.read_text())
    payload[1]["actions"][0] = str(payload[1]["actions"][0])
    bad = tmp_path / "strings.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("validate", bad) == 2
    out = capsys.readouterr().out
    assert f"{bad}: dataset INVALID" in out
    assert f"actions must be integers, got {payload[1]['actions'][0]!r}" in out


def test_validate_flags_a_boolean_among_integer_actions(tmp_path, capsys):
    # numpy would read [0, true] as the actions [0, 1]
    ds = gen_small_dataset(tmp_path)
    payload = json.loads(ds.read_text())
    payload[1]["actions"][2] = True
    bad = tmp_path / "bools.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("validate", bad) == 2
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"{bad}: dataset INVALID", "  - actions must be integers, got True"]


def test_a_missing_key_is_named_as_missing(tmp_path, capsys):
    ds = json.loads(gen_small_dataset(tmp_path).read_text())
    del ds[1]["actions"]
    no_actions = tmp_path / "no_actions.json"
    no_actions.write_text(json.dumps(ds))
    env = json.loads(open(ENV).read())
    del env["beta_params"][0][1]["beta"]
    no_beta = tmp_path / "no_beta.json"
    no_beta.write_text(json.dumps(env))
    capsys.readouterr()
    assert run_cli("validate", no_actions, no_beta) == 2
    assert capsys.readouterr().out.splitlines()[:4] == [
        f"{no_actions}: dataset INVALID", "  - missing key 'actions'",
        f"{no_beta}: env INVALID", "  - missing key 'beta'"]
    out = tmp_path / "out.json"
    assert run_cli("train", no_actions, "--out", out) == 2
    assert capsys.readouterr().err == "error: missing key 'actions'\n"
    ckpt = tmp_path / "ck.json"
    assert run_cli("train", gen_small_dataset(tmp_path), "--max-iterations", 2,
                   "--out", ckpt) == 0
    assert run_cli("eval", ckpt, no_beta) == 2
    assert capsys.readouterr().err == "error: missing key 'beta'\n"
    assert not out.exists()


def test_validate_names_each_env_problem_on_its_own_line(tmp_path, capsys):
    payload = json.loads(open(ENV).read())
    payload["beta_params"][0][0]["alpha"] = -1.0
    payload["beta_params"][2][1]["beta"] = 0.0
    payload["transitions"][1][0][0] += 0.5
    bad = tmp_path / "bad_env.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("validate", ENV, bad) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"{ENV}: env ok", f"{bad}: env INVALID"]
    row = payload["transitions"][1][0]
    assert lines[2:] == [
        f"  - transitions[s=1, a=0] sums to {sum(row):.12g}, expected 1",
        "  - beta_params[s=0, dim=0, k=0] must be strictly positive (-1.0)",
        "  - beta_params[s=2, dim=1, k=1] must be strictly positive (0.0)",
    ]


def test_validate_flags_non_finite_fuzzy_model(tmp_path, capsys):
    payload = json.loads(open(FUZZY).read())
    payload["variables"][0]["terms"][0]["params"][1] = float("nan")
    payload["rules"][3]["consequent"][0][2] = float("inf")
    bad = tmp_path / "nan_rules.json"
    bad.write_text(json.dumps(payload))  # written as the JSON tokens NaN and Infinity
    assert run_cli("validate", FUZZY, bad) == 2
    out = capsys.readouterr().out
    assert f"{FUZZY}: fuzzy-model ok" in out
    assert f"{bad}: fuzzy-model INVALID" in out
    var, term = payload["variables"][0]["name"], payload["variables"][0]["terms"][0]["label"]
    assert f"  - variable {var!r} term {term!r}: params[i=1] is not finite (nan)" in out
    assert "  - rule 3: consequent[out=0, coef=2] is not finite (inf)" in out


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


def test_a_zero_cell_sweep_fits_fuzzy_map_only_for_the_nonzero_cell(tmp_path, monkeypatch):
    calls = {"run_em": [], "run_fuzzy_map_em": []}

    def counted(name):
        fn = getattr(harness, name)

        def wrapper(*args):
            calls[name].append(args[-1])
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    assert run_cli("sweep", "--regime", "low-data", "--seeds", 1, "--grid", "0,0.1",
                   "--out-dir", tmp_path) == 0
    # the (0, 0) cell takes the plain-EM fits, one per restart
    assert len(calls["run_em"]) == harness.RESTARTS
    assert [(c.lambda_t, c.lambda_o) for c in calls["run_fuzzy_map_em"]] == [
        (0.1, 0.1)] * harness.RESTARTS


def test_writing_subcommands_create_missing_directories(tmp_path):
    new = tmp_path / "a" / "b"
    ds, fds, ckpt = new / "gen" / "ds.json", new / "fgen" / "fds.json", new / "ck" / "em.json"
    assert run_cli("gen-data", ENV, "--out", ds) == 0
    assert (new / "gen" / "ds.manifest.json").is_file()
    assert run_cli("gen-fuzzy-data", MG, "--n", 2, "--out", fds) == 0
    assert run_cli("train", ds, "--max-iterations", 3, "--out", ckpt) == 0
    assert run_cli("eval", ckpt, ENV, "--out", new / "eval" / "report.json") == 0
    assert run_cli("reproduce", "--regime", "low-data", "--seeds", 1,
                   "--out-dir", new / "reproduce") == 0
    assert run_cli("sweep", "--seeds", 1, "--grid", "0", "--out-dir", new / "sweep") == 0
    for path in (fds, ckpt, new / "eval" / "report.json", new / "reproduce" / "runs.csv",
                 new / "sweep" / "sweep.csv"):
        assert path.is_file()


def test_log_level_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUZZY_POMDP_LOG", "debug")
    gen_small_dataset(tmp_path, seed=1)
    monkeypatch.setenv("FUZZY_POMDP_LOG", "not-a-level")
    out = tmp_path / "d2.json"
    assert run_cli("gen-data", ENV, "--n", 2, "--horizon", 3,
                   "--seed", 1, "--out", out) == 0
    assert "unknown FUZZY_POMDP_LOG" in capsys.readouterr().err
