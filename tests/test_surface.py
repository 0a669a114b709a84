"""The package's top-level names are exactly the README's "Library surface"."""
import inspect
import re
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
