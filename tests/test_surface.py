"""What code outside the package relies on: the package's top-level names
are exactly the README's "Library surface", importing and using it never
loads scipy.stats, a cold start loads neither scipy nor numpy.random, every
function the benchmark times exists, and the bundled assets are what
scripts/make_assets.py writes."""
import functools
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fuzzy_pomdp
from fuzzy_pomdp.fuzzy import fuzzy_model_to_dict
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.model import env_to_dict, json_text

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_surface() -> set[str]:
    section = README.read_text().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = re.search(r"from fuzzy_pomdp import \((.*?)\)", block, re.S).group(1)
    return {name.strip() for name in imports.split(",") if name.strip()}


def test_exports_match_readme_library_surface():
    exported = {
        name for name, obj in vars(fuzzy_pomdp).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == readme_surface()


# imports every entry point, loads every bundled asset and validates them,
# then scores one model; prints validate's exit code, the scipy and
# numpy.random modules loaded before the scoring, and whether scipy.special
# and which scipy.stats modules were loaded after it
_IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
import fuzzy_pomdp, fuzzy_pomdp.cli, fuzzy_pomdp.harness
from fuzzy_pomdp import evaluate_model, load_env, load_fuzzy_model
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.model import PomdpModel

def loaded(*prefixes):
    return sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".")
                                                for p in prefixes))

assets = [asset_path(name) for name in ("synthetic_env.json", "expert_fuzzy_synthetic.json",
                                        "mg_fuzzy_placeholder.json")]
env = load_env(assets[0])
for path in assets[1:]:
    load_fuzzy_model(path)
with contextlib.redirect_stdout(io.StringIO()):
    code = fuzzy_pomdp.cli.main(["validate", *map(str, assets)])
cold = loaded("scipy", "numpy.random")
S, A, d = env.num_states, env.num_actions, env.obs_dim
model = PomdpModel(S, A, d, np.full((S, A, S), 1.0 / S), np.full((S, d), 0.5),
                   np.tile(0.05 * np.eye(d), (S, 1, 1)))
evaluate_model(model, env)
print(json.dumps([code, cold, "scipy.special" in sys.modules, loaded("scipy.stats")]))
"""


@functools.cache
def import_graph() -> tuple[int, list[str], bool, list[str]]:
    """The script's findings, from a fresh interpreter, so that no other
    test's imports leak in."""
    src = str(Path(fuzzy_pomdp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


def test_package_never_imports_scipy_stats():
    # running evaluate_model also catches an import deferred into a function
    assert import_graph()[3] == []


def test_a_cold_start_loads_neither_scipy_nor_numpy_random_until_a_model_is_scored():
    # scipy.special takes longer to import than the package and numpy
    # together, and only evaluate_model's Beta densities need it; nothing
    # before a fit draws from numpy.random
    code, cold, special, _ = import_graph()
    assert code == 0
    assert cold == []
    assert special


def perfbench_timed_functions() -> set[str]:
    """Every `<module>.<function>` whose call count BENCHMARK.json reports
    or whose time perfbench/run.py reads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"].removesuffix(".calls") for m in spec["per_layer"]
             if m["name"].endswith(".calls")}
    run_py = (ROOT / "perfbench" / "run.py").read_text()
    # m["<module>.<function>.s"] read, not assigned
    return names | set(re.findall(r'm\["(\w+\.\w+)\.s"\](?!\s*=[^=])', run_py))


def test_every_function_perfbench_times_exists():
    timed = perfbench_timed_functions()
    assert "metrics.kl_observation" in timed and "harness.kmeans_init" in timed
    missing = []
    for name in sorted(timed):
        layer, function = name.split(".")
        module = importlib.import_module(f"fuzzy_pomdp.{layer}")
        obj = getattr(module, function, None)
        if function.startswith("_") or not inspect.isfunction(obj) \
                or obj.__module__ != module.__name__:
            missing.append(name)
    assert missing == []


def test_bundled_assets_equal_make_assets_output():
    spec = importlib.util.spec_from_file_location("make_assets", ROOT / "scripts" / "make_assets.py")
    make_assets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_assets)
    for name, payload in (
        ("synthetic_env.json", env_to_dict(make_assets.make_synthetic_env())),
        ("expert_fuzzy_synthetic.json", fuzzy_model_to_dict(make_assets.make_expert_fuzzy())),
        ("mg_fuzzy_placeholder.json", fuzzy_model_to_dict(make_assets.make_mg_placeholder())),
    ):
        assert json_text(payload) == asset_path(name).read_text(), name
