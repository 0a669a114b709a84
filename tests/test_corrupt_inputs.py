"""Corrupt input files: `validate` names a problem in each and goes on to
the next file, and the loaders refuse them.

The sweep corrupts one valid file of each kind that validate builds
(dataset, env, fuzzy-model, checkpoint, pomdp-model) in one of the ways a
hand-edited or truncated file goes wrong: a missing key, an array of the
wrong shape, a NaN or infinite entry, a negative Beta parameter, a
transition row that is not stochastic, or a count that is not an integer,
is infinite or is far too large. Counts that numpy would really allocate
(about 10**6 to 10**11) are never tried: 10**12 is refused at once.
"""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzy_pomdp import cli
from fuzzy_pomdp.fuzzy import infer, load_fuzzy_model
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.model import (PomdpModel, env_to_dict, load_dataset, load_env,
                               load_model, validate_dataset)

MODEL = {
    "num_states": 2, "num_actions": 2, "obs_dim": 2,
    "transitions": [[[0.7, 0.3], [0.4, 0.6]], [[0.2, 0.8], [0.5, 0.5]]],
    "obs_means": [[0.2, 0.3], [0.7, 0.6]],
    "obs_covs": [[[0.05, 0.01], [0.01, 0.04]], [[0.03, 0.0], [0.0, 0.06]]],
    "initial_dist": [0.5, 0.5],
    "state_labels": ["low", "high"],
}
DATASET = [
    {"observations": [[0.1, 0.2], [0.3, 0.1], [0.5, 0.9]], "actions": [0, 1]},
    {"observations": [[0.8, 0.7], [0.6, 0.4], [0.2, 0.3], [0.9, 0.1]], "actions": [1, 1, 0]},
]
# the dataset's action count and obs_dim, as a model that scores it has them
DATASET_SPACES = (2, 2)


def _valid(kind: str):
    if kind == "dataset":
        return copy.deepcopy(DATASET)
    if kind == "env":
        return json.loads(asset_path("synthetic_env.json").read_text())
    if kind == "fuzzy-model":
        return json.loads(asset_path("expert_fuzzy_synthetic.json").read_text())
    if kind == "checkpoint":
        return {"model": copy.deepcopy(MODEL), "loglik_trace": [-3.5, -2.25]}
    return copy.deepcopy(MODEL)


KINDS = ("dataset", "env", "fuzzy-model", "checkpoint", "pomdp-model")
# keys whose absence every reader of the kind must notice
REQUIRED = {
    "dataset": {"observations", "actions"},
    "env": {"transitions", "beta_params", "alpha", "beta"},
    "fuzzy-model": {"variables", "name", "terms", "label", "shape", "params", "consequent",
                    "var", "term"},
    "pomdp-model": {"num_states", "num_actions", "obs_dim", "transitions", "obs_means",
                    "obs_covs"},
}
REQUIRED["checkpoint"] = REQUIRED["pomdp-model"] | {"loglik_trace"}
# keys holding arrays of a fixed shape
SHAPED = {
    "dataset": {"observations", "actions"},
    "env": {"transitions", "beta_params"},
    "fuzzy-model": {"params", "range", "consequent"},
    "pomdp-model": {"transitions", "obs_means", "obs_covs", "initial_dist"},
}
SHAPED["checkpoint"] = SHAPED["pomdp-model"]
# counts and the values a file may not give them; a rule base may declare
# more actions than its rules name, so its num_actions may be large
BAD_COUNTS = {
    "num_states": (0.5, 2.5, math.inf, 10**12, 0, -1, True, "2"),
    "num_actions": (2.5, math.inf, 10**12, 0, -1, True),
    "obs_dim": (1.5, math.inf, 10**12, 0, -1),
    "action": (0.5, math.inf, -math.inf, 10**12, -1),
}
FUZZY_NUM_ACTIONS = (2.5, math.inf, 0, -1)
# the counts each kind's loader reads; an env's arrays give its counts, and
# the count fields it also holds must equal them
COUNTS = {"dataset": set(), "env": {"num_states", "num_actions", "obs_dim"},
          "fuzzy-model": {"obs_dim", "num_actions", "action"},
          "pomdp-model": {"num_states", "num_actions", "obs_dim"}}
COUNTS["checkpoint"] = COUNTS["pomdp-model"]


def _walk(value, path=()):
    """Every (path, value) of a JSON value, each container before its items."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _walk(item, path + (key,))


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _inside(path, keys) -> bool:
    return any(key in keys for key in path if isinstance(key, str))


@st.composite
def corrupt_files(draw):
    """(kind, corrupt payload, what was done to it)."""
    kind = draw(st.sampled_from(KINDS))
    payload = _valid(kind)
    nodes = list(_walk(payload))
    ways = {
        "missing key": [(path, key) for path, value in nodes if isinstance(value, dict)
                        for key in value if key in REQUIRED[kind]],
        "wrong shape": [path for path, value in nodes
                        if isinstance(value, list) and value and _inside(path, SHAPED[kind])],
        "non-finite entry": [path for path, value in nodes
                             if _is_number(value) and _inside(path, SHAPED[kind])],
        "bad count": [path for path, value in nodes
                      if path and path[-1] in COUNTS[kind] and value is not None],
        "negative beta": [path for path, value in nodes
                          if _is_number(value) and _inside(path, {"beta_params"})],
        "non-stochastic row": [path for path, value in nodes
                               if kind in ("env", "pomdp-model", "checkpoint")
                               and isinstance(value, list) and value
                               and _is_number(value[0])
                               and _inside(path, {"transitions", "initial_dist"})],
    }
    way = draw(st.sampled_from(sorted(w for w, places in ways.items() if places)))
    place = draw(st.sampled_from(ways[way]))
    if way == "missing key":
        path, key = place
        del _parent(payload, path + (key,))[key]
        return kind, payload, f"{way} {key!r} at {list(path)}"
    parent = _parent(payload, place) if place else None
    if way == "wrong shape":
        target = _parent(payload, place + (0,))
        index = draw(st.integers(0, len(target) - 1))
        if draw(st.booleans()):
            del target[index]
        else:
            target.insert(index, copy.deepcopy(target[index]))
    elif way == "non-finite entry":
        parent[place[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif way == "bad count":
        values = (FUZZY_NUM_ACTIONS if kind == "fuzzy-model" and place[-1] == "num_actions"
                  else BAD_COUNTS[place[-1]])
        parent[place[-1]] = draw(st.sampled_from(values))
    elif way == "negative beta":
        parent[place[-1]] = draw(st.sampled_from([0.0, -1e-3, -abs(parent[place[-1]])]))
    else:
        row = _parent(payload, place + (0,))
        if draw(st.booleans()):
            row[:] = [1.5 * p for p in row]
        else:
            i, j = draw(st.permutations(range(len(row))))[:2]
            row[j] += row[i] + 0.25
            row[i] = -0.25
    return kind, payload, f"{way} at {list(place)}"


def _validate(*paths) -> tuple[int, list[str], str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", *map(str, paths)])
    return code, out.getvalue().splitlines(), err.getvalue()


@given(corrupt_files())
def test_validate_names_a_problem_in_every_corrupt_file_and_goes_on(case):
    kind, payload, how = case
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = Path(tmp, "bad.json"), Path(tmp, "good.json")
        bad.write_text(json.dumps(payload))
        good.write_text(json.dumps(_valid(kind)))
        code, lines, err = _validate(bad, good)
    assert code == 2, how
    assert lines[0].startswith(f"{bad}: ") and lines[0].endswith(" INVALID"), (how, lines)
    assert len(lines) >= 3 and all(line.startswith("  - ") for line in lines[1:-1]), (how, lines)
    assert lines[-1] == f"{good}: {kind} ok", (how, lines)
    assert err == "error: 1 of 2 files failed validation\n", (how, err)


LOADERS = {"dataset": load_dataset, "env": load_env, "fuzzy-model": load_fuzzy_model,
           "checkpoint": load_model, "pomdp-model": load_model}


@given(corrupt_files())
def test_every_loader_refuses_a_corrupt_file(case):
    # the errors validate and every command name: a ValueError, a missing
    # key, or a count too large to convert; a dataset's loader checks its
    # structure only, so its values must fail the check every fit makes.
    # load_model reads only the model of a checkpoint, not its trace
    kind, payload, how = case
    if how.startswith("missing key 'loglik_trace'"):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "bad.json")
        path.write_text(json.dumps(payload))
        try:
            loaded = LOADERS[kind](path)
        except (KeyError, ValueError, OverflowError):
            return
    assert kind == "dataset", how
    assert validate_dataset(loaded, *DATASET_SPACES), how


@pytest.mark.parametrize("count, problem", [
    ("1e400", "cannot convert float infinity to integer"),
    ("1000000000000", "transitions shape (2, 2, 2), expected "
                      "(1000000000000, 2, 1000000000000)"),
])
@pytest.mark.parametrize("kind", ["pomdp-model", "checkpoint"])
def test_validate_reports_an_infinite_or_huge_state_count_and_goes_on(tmp_path, kind, count,
                                                                       problem):
    # an infinite count raised OverflowError, and a huge one made the model
    # allocate its default initial_dist before its shape check: either
    # stopped validate at that file with no word on the files after it
    payload = _valid(kind)
    del (payload["model"] if kind == "checkpoint" else payload)["initial_dist"]
    text = json.dumps(payload).replace('"num_states": 2', f'"num_states": {count}', 1)
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(text)
    good.write_text(json.dumps(_valid(kind)))
    assert _validate(bad, good) == (2, [f"{bad}: {kind} INVALID", f"  - {problem}",
                                        f"{good}: {kind} ok"],
                                    "error: 1 of 2 files failed validation\n")


def test_a_model_checks_its_shapes_before_building_defaults_at_its_counts():
    with pytest.raises(ValueError, match=r"^obs_means shape \(2, 2\), expected \(2, 10+\)$"):
        PomdpModel(2, 2, 10**12, MODEL["transitions"], MODEL["obs_means"], MODEL["obs_covs"])
    with pytest.raises(ValueError,
                       match=r"^transitions shape \(2, 2, 2\), expected \(10+, 2, 10+\)$"):
        PomdpModel(10**15, 2, 2, MODEL["transitions"], MODEL["obs_means"], MODEL["obs_covs"])


@pytest.mark.parametrize("count", [2.5, True, "2"])
def test_a_count_int_would_silently_change_is_refused(tmp_path, count):
    payload = _valid("pomdp-model")
    payload["num_states"] = count
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"^num_states must be an integer, got {count!r}$"):
        load_model(path)
    assert _validate(path)[1] == [f"{path}: pomdp-model INVALID",
                                  f"  - num_states must be an integer, got {count!r}"]


@pytest.mark.parametrize("content, problem", [
    ('{"name": "caf\xe9"}'.encode("latin-1"),
     "'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte"),
    (f'{{"num_states": {"7" * 5000}}}'.encode(),
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
     "digits; use sys.set_int_max_str_digits() to increase the limit"),
], ids=["latin-1", "5000-digit integer"])
def test_validate_reports_an_undecodable_file_as_unreadable_and_goes_on(tmp_path, content,
                                                                         problem):
    # a file that is not UTF-8, or an integer too long to convert, raised a
    # ValueError that stopped validate at that file
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_bytes(content)
    good.write_text(json.dumps(_valid("pomdp-model")))
    assert _validate(bad, good) == (2, [f"{bad}: unreadable ({problem})",
                                        f"{good}: pomdp-model ok"],
                                    "error: 1 of 2 files failed validation\n")


@pytest.mark.parametrize("key, count, problem", [
    ("num_states", 7, "num_states 7 does not match the arrays, which give 3"),
    ("num_actions", 1, "num_actions 1 does not match the arrays, which give 2"),
    ("obs_dim", 2.5, "obs_dim must be an integer, got 2.5"),
], ids=["num_states", "num_actions", "obs_dim"])
def test_an_env_count_must_be_the_integer_its_arrays_give(tmp_path, key, count, problem):
    # an env file's count fields were never read, so these read "env ok"
    payload = _valid("env")
    payload[key] = count
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(payload))
    good.write_text(json.dumps(_valid("env")))
    assert _validate(bad, good) == (2, [f"{bad}: env INVALID", f"  - {problem}",
                                        f"{good}: env ok"],
                                    "error: 1 of 2 files failed validation\n")
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        load_env(bad)


def test_an_env_file_without_counts_still_loads(tmp_path):
    payload = _valid("env")
    for key in COUNTS["env"]:
        del payload[key]
    path = tmp_path / "env.json"
    path.write_text(json.dumps(payload))
    assert env_to_dict(load_env(path)) == _valid("env")


@pytest.mark.parametrize("count", [None, "x", [2]])
@pytest.mark.parametrize("kind", ["env", "pomdp-model"])
def test_a_count_that_is_not_a_number_is_refused_by_name(tmp_path, kind, count):
    # int() raised a TypeError or its own message, which named no key
    payload = _valid(kind)
    payload["num_states"] = count
    path = tmp_path / "file.json"
    path.write_text(json.dumps(payload))
    problem = f"num_states must be an integer, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        LOADERS[kind](path)
    assert _validate(path)[1] == [f"{path}: {kind} INVALID", f"  - {problem}"]


def test_an_integral_float_count_still_loads(tmp_path):
    payload = _valid("pomdp-model")
    payload["num_states"] = 2.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert load_model(path).num_states == 2


def test_a_rule_base_without_a_rule_for_some_action_loads_and_infer_falls_back(tmp_path):
    # by design: inference returns the observation unchanged where no rule
    # fires, so a rule base need not cover every action it declares
    payload = _valid("fuzzy-model")
    payload["rules"] = [rule for rule in payload["rules"] if rule.get("action") == 0]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(payload))
    assert _validate(path) == (0, [f"{path}: fuzzy-model ok"], "")
    fuzzy = load_fuzzy_model(path)
    assert fuzzy.num_actions == 2
    obs = np.array([[0.2, 0.4], [0.9, 0.1]])
    assert np.array_equal(infer(fuzzy, obs, [1, 1]), obs)
    assert not np.array_equal(infer(fuzzy, obs, [0, 0]), obs)


def _repeat_a_term_label(payload):
    # every `low` clause on indicator_1 took the second entry's term
    payload["variables"][0]["terms"].append(
        {"label": "low", "shape": "gaussian", "params": [0.9, 0.3]})
    return "variable 'indicator_1': term label 'low' repeats"


def _repeat_a_variable_name(payload):
    # every clause on muscle_weakness bound to the last variable of the name
    first = payload["variables"][0]
    payload["variables"][2] = dict(payload["variables"][2], name=first["name"],
                                   terms=copy.deepcopy(first["terms"]))
    return "variable name 'muscle_weakness' repeats"


@pytest.mark.parametrize("asset, corrupt", [
    ("expert_fuzzy_synthetic.json", _repeat_a_term_label),
    ("mg_fuzzy_placeholder.json", _repeat_a_variable_name),
], ids=["term label", "variable name"])
def test_a_rule_base_file_that_repeats_a_name_is_refused(tmp_path, asset, corrupt):
    # both loaded, the later entry silently winning, and validate read "ok"
    payload = json.loads(asset_path(asset).read_text())
    problem = corrupt(payload)
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(payload))
    good.write_text(asset_path(asset).read_text())
    assert _validate(bad, good) == (2, [f"{bad}: fuzzy-model INVALID", f"  - {problem}",
                                        f"{good}: fuzzy-model ok"],
                                    "error: 1 of 2 files failed validation\n")
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        load_fuzzy_model(bad)


def test_an_env_file_that_repeats_a_state_label_is_refused(tmp_path):
    # it loaded, and eval reported one KL fewer than there are states
    payload = _valid("env")
    payload["state_labels"] = ["Sick", "Sick", "Critical"]
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(payload))
    good.write_text(json.dumps(_valid("env")))
    problem = "state_labels must be distinct"
    assert _validate(bad, good) == (2, [f"{bad}: env INVALID", f"  - {problem}",
                                        f"{good}: env ok"],
                                    "error: 1 of 2 files failed validation\n")
    with pytest.raises(ValueError, match=f"^{problem}$"):
        load_env(bad)


# a file of the wrong kind, by what each loader expects: its message names
# the JSON type expected and the type found, where it used to be numpy's or
# Python's complaint about indexing one with the other
WRONG_KINDS = [
    ("dataset", {"observations": [[0.1, 0.2]], "actions": []},
     "dataset: expected a JSON array, got a JSON object"),
    ("dataset", [DATASET[0], 7], "trajectory 1: expected a JSON object, got a JSON number"),
    ("dataset", [DATASET[0], [[0.1, 0.2]]],
     "trajectory 1: expected a JSON object, got a JSON array"),
    ("env", DATASET, "environment file: expected a JSON object, got a JSON array"),
    ("fuzzy-model", "rules.json", "fuzzy model file: expected a JSON object, got a JSON string"),
    ("pomdp-model", DATASET, "model file: expected a JSON object, got a JSON array"),
    ("pomdp-model", None, "model file: expected a JSON object, got a JSON null"),
    ("checkpoint", {"model": [MODEL], "loglik_trace": []},
     "model: expected a JSON object, got a JSON array"),
]


@pytest.mark.parametrize("kind, payload, problem", WRONG_KINDS, ids=[
    "dataset-object", "dataset-entry-number", "dataset-entry-array", "env-array",
    "fuzzy-model-string", "pomdp-model-array", "pomdp-model-null", "checkpoint-model-array"])
def test_loaders_name_the_wrong_json_type(tmp_path, kind, payload, problem):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        LOADERS[kind](path)


def test_a_command_given_a_file_of_the_wrong_kind_names_it_and_exits_two(tmp_path):
    dataset = tmp_path / "ds.json"
    dataset.write_text(json.dumps(DATASET))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["eval", str(dataset), str(asset_path("synthetic_env.json"))])
    assert (code, err.getvalue()) == (
        2, "error: model file: expected a JSON object, got a JSON array\n")
    path = tmp_path / "ints.json"
    path.write_text("[1, 2]")
    assert _validate(path) == (2, [f"{path}: dataset INVALID",
                                   "  - trajectory 0: expected a JSON object, got a JSON number"],
                               "error: 1 of 1 files failed validation\n")
