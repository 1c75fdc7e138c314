"""Source-level rules for the package."""

import ast
from pathlib import Path

import burstrecon

PACKAGE_DIR = Path(burstrecon.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so invariants must raise named errors instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
