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


def unreferenced_definitions(package_dir):
    """Top-level functions and classes that no other top-level statement names.

    Maps each such name to its file and line.  A name counts as referenced
    when it appears as a variable or attribute in any top-level statement of
    the package other than its own definition.
    """
    defined = {}
    referenced = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[own] = f"{path.name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    referenced.add(node.attr)
    return {name: where for name, where in defined.items() if name not in referenced}


def test_every_definition_is_used_or_exported():
    # library code that only the tests call belongs in the tests
    unused = unreferenced_definitions(PACKAGE_DIR)
    assert {name: where for name, where in unused.items() if name not in burstrecon.__all__} == {}


API_ENTRY_POINTS = {
    # the overlap oracle, for direct calls; verify's cells share one table instead
    "max_intersection_exhaustive",
    # the radius-1 census, which has no verify kind
    "count_centers_by_radius1_ball_size",
    # insertion membership, the mirror of is_deletion_descendant
    "is_insertion_descendant",
    # the word-level references that the rank tables, the size rows, the
    # b-cyclic rows and the acceptance criteria are checked against
    "enumerate_insertion_ball",
    "enumerate_deletion_ball",
    # one center's deletion ball size, a public count; verify reads the sizes
    # of all centers off their rank balls instead
    "del_ball_size",
}


def test_every_export_is_run_or_declared():
    # an export that nothing in the package runs is an entry point on
    # purpose or an orphan; a stale entry fails as well as a new orphan
    unused = unreferenced_definitions(PACKAGE_DIR)
    exported = {name: where for name, where in unused.items() if name in burstrecon.__all__}
    assert set(exported) == API_ENTRY_POINTS, exported


RANGE_RULE_PHRASES = (
    "alphabet size must",
    "burst length must be at least 1",
    "radius must be nonnegative",
    "word length must be nonnegative",
    "too short for",
    "cap must be at least 1",
    "seed must be nonnegative",
)
RANGE_RULE_HOMES = {"_check_params", "_check_deletable"}


def range_rule_copies(package_dir):
    """Places outside the range-rule helpers whose string literals word a range refusal."""
    found = []

    def visit(node, inside_home):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_home = inside_home or node.name in RANGE_RULE_HOMES
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and not inside_home:
            found.extend(
                f"{path.name}:{node.lineno}: {phrase}"
                for phrase in RANGE_RULE_PHRASES
                if phrase in node.value
            )
        for child in ast.iter_child_nodes(node):
            visit(child, inside_home)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), False)
    return found


def test_range_rule_is_worded_in_one_place():
    # a second copy of a range check drifts from the first; call the helpers instead
    assert range_rule_copies(PACKAGE_DIR) == []


def cap_refusals_outside_the_rule(package_dir):
    """Calls that build EnumerationCapExceeded anywhere but inside balls._check_cap."""
    found = []

    def visit(node, inside_rule):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_rule = inside_rule or node.name == "_check_cap"
        if isinstance(node, ast.Call) and not inside_rule:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "EnumerationCapExceeded":
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside_rule)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), False)
    return found


def test_cap_is_compared_in_one_place():
    # a requirement meets the cap only in balls._check_cap, which checks the cap's range first
    assert cap_refusals_outside_the_rule(PACKAGE_DIR) == []


CAP_COMPARERS = {
    ("balls.py", "_check_cap"),  # the cap rule
    ("combinatorics.py", "_check_params"),  # the cap's range rule
}


def cap_comparisons_outside_the_rule(package_dir):
    """Comparisons with a name ``cap`` as an operand, outside ``CAP_COMPARERS``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Compare)
            and (path.name, function) not in CAP_COMPARERS
            and any(
                isinstance(operand, ast.Name) and operand.id == "cap"
                for operand in (node.left, *node.comparators)
            )
        ):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_cap_is_compared_only_by_its_rules(tmp_path):
    # a second cap comparison words its refusal its own way; pass the
    # requirement to balls._check_cap instead
    assert cap_comparisons_outside_the_rule(PACKAGE_DIR) == []
    # the guard sees a crude bound that decides whether to count the rounds,
    # even where each counted round then meets the cap in _check_cap
    (tmp_path / "balls.py").write_text(
        "def _check_deletion_rounds(x, t, b, cap):\n"
        "    _check_params(b=b, t=t, cap=cap)\n"
        "    _check_deletable(len(x), t, b)\n"
        "    if (len(x) - b + 1) ** t > cap:\n"
        "        for size in _deletion_ways(x, t, b)[0][1:]:\n"
        "            _check_cap(size, cap)\n"
    )
    assert cap_comparisons_outside_the_rule(tmp_path) == ["balls.py:4"]



CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def module_caches(path):
    """Imports of functools and cache decorators in one module.

    ``balls`` must keep no cache: a cached ball table outlives the call that
    built it, so it escapes the cap that bounds every enumeration.  A table
    belongs to its builder, one ``max_intersection_exhaustive`` call or one
    ``verify`` cell.  The ``lru_cache``s on the integer recurrences in
    ``combinatorics`` hold numbers, not word sets, and are not checked.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "functools"]
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                func = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in CACHE_NAMES:
                    found.append(f"{path.name}:{decorator.lineno}")
    return found


def test_balls_keeps_no_cache():
    # the ball tables die with the cell or the call that built them
    assert module_caches(PACKAGE_DIR / "balls.py") == []
    assert module_caches(PACKAGE_DIR / "cli.py") == []
    assert module_caches(PACKAGE_DIR / "combinatorics.py") != []  # the guard sees a cache


def table_builders(package_dir):
    """Top-level functions, by file, that name ``balls._center_masks``."""
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Name) and node.id == "_center_masks"
                for node in ast.walk(stmt)
            ):
                found.add(f"{path.name}:{stmt.name}")
    return found


def test_ball_tables_have_one_owner_outside_balls():
    # in a sweep only the overlap rows of a cell build a table; balls builds
    # one for a direct max_intersection_exhaustive call
    assert table_builders(PACKAGE_DIR) == {
        "balls.py:max_intersection_exhaustive",
        "cli.py:_table_overlap",
    }


ENUMERATORS = {"enumerate_insertion_ball", "enumerate_deletion_ball"}


def names_outside_balls(package_dir, wanted=ENUMERATORS):
    """Lines outside ``balls`` that name one of ``wanted``, by default the word enumerators.

    A name or an attribute counts in every other module, and so does an
    import, except in ``__init__``, whose re-export is the public API.
    """
    found = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "balls.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names & wanted)]
    return found


def test_only_balls_names_the_enumerators(tmp_path):
    # every table and ball that verify builds is a set of word ranks, so the
    # enumerators stay the independent reference the rank builders are
    # checked against; a caller outside balls would be a second representation
    assert names_outside_balls(PACKAGE_DIR) == []
    # the guard sees an import, a call and an attribute outside balls, and
    # the package's re-export only in __init__
    (tmp_path / "balls.py").write_text("def enumerate_deletion_ball(): pass\n")
    (tmp_path / "__init__.py").write_text("from .balls import enumerate_deletion_ball\n")
    (tmp_path / "cli.py").write_text(
        "from .balls import enumerate_deletion_ball\n"
        "from . import balls\n"
        "enumerate_deletion_ball()\n"
        "balls.enumerate_insertion_ball()\n"
    )
    assert names_outside_balls(tmp_path) == [
        "cli.py:1: enumerate_deletion_ball",
        "cli.py:3: enumerate_deletion_ball",
        "cli.py:4: enumerate_insertion_ball",
    ]


def test_only_balls_names_the_round_gate():
    # each builder of one word's deletion ball gates its own rounds, so no
    # caller can step a ball past the cap or gate it twice
    assert names_outside_balls(PACKAGE_DIR, {"_check_deletion_rounds"}) == []


RANK_BUILDERS = (
    "_center_masks", "_insertion_masks", "_deletion_masks", "_rank_balls", "_stepped_deletion_ranks",
)


def enumerators_named_by_rank_builders(path):
    """Map each rank-numbered ball builder of one module to the enumerators it names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        stmt.name: {
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id in ENUMERATORS
        }
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in RANK_BUILDERS
    }


def test_rank_builders_stay_independent_of_the_enumerators():
    # the tables and size rows are checked against the word enumerators, so
    # they build every ball on ranks alone; a builder that called an
    # enumerator would be checked against itself
    assert enumerators_named_by_rank_builders(PACKAGE_DIR / "balls.py") == {
        name: set() for name in RANK_BUILDERS
    }
