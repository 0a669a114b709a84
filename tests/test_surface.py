"""The package's top-level names are exactly the README's "Library surface",
and importing and using it never loads scipy.stats."""
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fuzzy_pomdp

README = Path(__file__).resolve().parents[1] / "README.md"


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
