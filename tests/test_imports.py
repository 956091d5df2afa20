import ast
import importlib
from pathlib import Path

import actfactors

PACKAGE = Path(actfactors.__file__).parent


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("actfactors")
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if sibling and alias.name.startswith("_")
            ]
    assert found == []


def test_exports_resolve_and_the_package_imports_only_exports():
    # a module without __all__ (errors.py) exports its public names
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"actfactors.{path.stem}")
        problems += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"actfactors.{node.module}")
            exports = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
            problems += [f"__init__ imports {node.module}.{a.name}" for a in node.names if a.name not in exports]
    assert problems == []
