"""Source-level rules for the package."""

import ast
import re
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


def test_no_environment_reads():
    # every setting is a command-line option or a function argument; a hidden
    # environment knob would change behaviour that no test or --help shows
    readers = {"environ", "environb", "getenv", "getenvb"}

    def reads_environment(node):
        if isinstance(node, ast.Attribute):
            return node.attr in readers and isinstance(node.value, ast.Name) and node.value.id == "os"
        if isinstance(node, ast.ImportFrom):
            return node.module == "os" and any(alias.name in readers for alias in node.names)
        return False

    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if reads_environment(node)]
    assert found == []


def test_readme_api_table_is_the_public_api():
    # one row per exported name in README.md's "Public API" table, no more, no fewer
    readme = (PACKAGE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(burstrecon.__all__)
