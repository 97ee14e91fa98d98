"""Every name a library module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule: each module of
`src/quiverhopf` except `__init__.py` (whose imports are its exports) is
parsed with `ast`. An import line carrying `# noqa` is exempt, for modules
imported to be looked up by name.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source: str):
    """The names bound by imports of `source` that nothing in it references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_an_unused_name():
    source = "import os\nimport sys  # noqa\nfrom a.b import (\n    c,\n    d,\n)\nprint(c)\n"
    assert unused_imports(source) == ["os", "d"]


def test_library_modules_import_nothing_unused():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "quiverhopf", "*.py")))
    modules = [p for p in paths if os.path.basename(p) != "__init__.py"]
    assert len(modules) == 11
    for path in modules:
        with open(path) as f:
            assert unused_imports(f.read()) == [], os.path.basename(path)
