"""What code outside the package relies on: the package's top-level names
are exactly the README's "Library surface", importing and using it never
loads scipy.stats, every function the benchmark times exists, and the
bundled assets are what scripts/make_assets.py writes."""
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


# imports every entry point, loads every bundled asset and scores one model,
# then prints the scipy.stats modules that got loaded on the way
_IMPORT_GRAPH_SCRIPT = """
import sys
import numpy as np
import fuzzy_pomdp, fuzzy_pomdp.cli, fuzzy_pomdp.harness
from fuzzy_pomdp import evaluate_model, load_env, load_fuzzy_model
from fuzzy_pomdp.harness import asset_path
from fuzzy_pomdp.model import PomdpModel
env = load_env(asset_path("synthetic_env.json"))
load_fuzzy_model(asset_path("expert_fuzzy_synthetic.json"))
load_fuzzy_model(asset_path("mg_fuzzy_placeholder.json"))
S, A, d = env.num_states, env.num_actions, env.obs_dim
model = PomdpModel(S, A, d, np.full((S, A, S), 1.0 / S), np.full((S, d), 0.5),
                   np.tile(0.05 * np.eye(d), (S, 1, 1)))
evaluate_model(model, env)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]))
"""


def test_package_never_imports_scipy_stats():
    # a fresh interpreter, so no other test's scipy.stats import leaks in;
    # running evaluate_model also catches an import deferred into a function
    src = str(Path(fuzzy_pomdp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
