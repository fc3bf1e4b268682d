"""Load a second checkout's ``blockpd`` beside this one, for the ladder
scripts' ``--against DIR`` option.

``load_tree(DIR)`` imports ``DIR/src/blockpd`` under the package name
``blockpd_against``, so both trees run in one process and their timings
share one host state.  Modules inside the package import each other
relatively, so every submodule comes from ``DIR`` too.
"""

import importlib.util
import sys
from pathlib import Path

NAME = "blockpd_against"


def load_tree(root):
    pkg = Path(root) / "src" / "blockpd"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"--against: no package at {pkg}")
    spec = importlib.util.spec_from_file_location(
        NAME, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    spec.loader.exec_module(module)
    return module
