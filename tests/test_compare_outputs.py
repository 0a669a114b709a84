"""scripts/compare_outputs.py: which files differ, and by how much."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_each_differing_file_reports_its_largest_numeric_difference(compare, tmp_path):
    runs = "seed,algorithm,l1\r\n0,em,{}\r\n1,em,0.5\r\n"
    model = {"obs_means": [[1.0, 2.0]], "converged": True}
    parent = _write(tmp_path / "parent", {
        "low_data/runs.csv": runs.format("0.25"),
        "low_data/model_0_em.json": json.dumps(model | {"loglik_trace": [-3.0, -2.0]}),
        "same.txt": "1 2 3\n",
    })
    change = _write(tmp_path / "change", {
        "low_data/runs.csv": runs.format("0.2500001"),
        "low_data/model_0_em.json": json.dumps(model | {"loglik_trace": [-3.0, -2.002]}),
        "same.txt": "1 2 3\n",
    })
    found, notes, sizes = compare.differences(parent, change)
    assert found == ["low_data/model_0_em.json: differs", "low_data/runs.csv: differs"]
    assert notes == []
    model_size, runs_size = sizes
    assert model_size.startswith("low_data/model_0_em.json: 1 of 4 numeric values differ")
    assert "absolute 0.002, relative 0.000999" in model_size
    assert runs_size.startswith("low_data/runs.csv: 1 of 4 numeric values differ")
    assert "absolute 1e-07, relative 4e-07" in runs_size


def test_values_that_do_not_pair_up_are_not_compared(compare, tmp_path):
    a = _write(tmp_path, {"a.json": "[1.0, 2.0]", "b.json": "[1.0, 2.0, 3.0]"})
    assert compare.largest_difference(a / "a.json", a / "b.json") == (
        "2 numeric values against 3: not compared")


def test_a_non_finite_value_against_a_number_is_an_infinite_difference(compare, tmp_path):
    a = _write(tmp_path, {"a.json": '[1.0, "nan", "inf"]', "b.json": '[1.0, "nan", 2.0]'})
    assert compare.largest_difference(a / "a.json", a / "b.json") == (
        "1 of 3 numeric values differ; largest difference absolute inf, relative inf")
