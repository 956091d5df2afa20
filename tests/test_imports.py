import ast
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
