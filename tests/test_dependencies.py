"""Every third-party package imported under ``src/repro`` is declared.

CI installs only ``pip install -e .[dev]``, so an import of a package
missing from ``[project].dependencies`` would pass locally and fail on a
clean runner.  This walks every module's AST (imports inside functions
included) and compares top-level third-party names with the declared
distributions.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.S | re.M)
    assert block is not None, "pyproject.toml has no [project].dependencies"
    names = set()
    for spec in re.findall(r'"([^"]+)"', block.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def third_party_imports():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.setdefault(top, path.relative_to(ROOT).as_posix())
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    imports = third_party_imports()
    missing = {
        name: where for name, where in imports.items()
        if name.lower() not in declared
    }
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_the_scan_sees_the_known_dependencies():
    assert {"numpy", "scipy", "networkx"} <= set(third_party_imports())
