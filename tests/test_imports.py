"""Every name a library module imports is used in that module, only `cuts`
and `quiver` slice a word's letters, no nested function recurses, the law
checkers never name a monoid, and the library defines no dead helper.

Stdlib stand-ins for lint rules: each module of `src/quiverhopf` except
`__init__.py` (whose imports are its exports) is parsed with `ast`. An import
line carrying `# noqa` is exempt, for modules imported to be looked up by
name. The pieces of every cut are read by one slicing rule in `cuts`
(`_outside`); `quiver` slices letters only to rotate a word. A nested
function that calls itself or a function nested beside it can reach itself
through its own closure, so every call of the enclosing function leaves a
reference cycle for the cyclic collector; recursions are module-level
functions that take their state as arguments. `verify` reads the monoid
(`Monomial` or `Word`) off the coproduct a law checks, so it names neither.
Every function, class and method of the library is named somewhere in the
repository's code besides the line that defines it; dunder methods are
exempt, since Python calls them implicitly.
"""

import ast
import glob
import os
import re

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


def letter_slices(source: str):
    """The line numbers of `source` that take a slice of a sequence named
    `letters`, either a bare name or an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            seq = node.value
            name = seq.id if isinstance(seq, ast.Name) else getattr(seq, "attr", None)
            if name == "letters":
                lines.append(node.lineno)
    return sorted(lines)


def library_sources():
    """{file name: source} of every library module except `__init__.py`."""
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "quiverhopf", "*.py")))
    sources = {}
    for path in paths:
        if os.path.basename(path) != "__init__.py":
            with open(path) as f:
                sources[os.path.basename(path)] = f.read()
    assert len(sources) == 11
    return sources


def test_library_modules_import_nothing_unused():
    for name, source in library_sources().items():
        assert unused_imports(source) == [], name


def test_letter_slice_check_flags_a_slice_of_letters():
    source = "a = letters[1:3]\nb = p.letters[k] + p.letters[:k]\nc = words[1:]\nd = x.letters[0]\n"
    assert letter_slices(source) == [1, 2]


def test_only_cuts_and_quiver_slice_letters():
    for name, source in library_sources().items():
        if name not in ("cuts.py", "quiver.py"):
            assert letter_slices(source) == [], name


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def nested_functions(fn):
    """The functions defined in fn's own scope, not inside another function,
    lambda or class in it."""
    found, stack = [], list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            found.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def recursive_closures(source: str):
    """The names, as outer.inner, of the functions nested in a function of
    `source` that refer to their own name or to a function nested beside them."""
    flagged = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        nested = nested_functions(outer)
        names = {f.name for f in nested}
        for f in nested:
            used = {n.id for stmt in f.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if used & names:
                flagged.append("%s.%s" % (outer.name, f.name))
    return sorted(flagged)


def test_recursive_closure_check_flags_self_and_sibling_calls():
    source = (
        "def f(n):\n"
        "    def g(k):\n        return g(k - 1) if k else 0\n"
        "    def h(k):\n        return k + n\n"
        "    if n:\n"
        "        def a(k):\n            return b(k)\n"
        "        def b(k):\n            return a(k - 1) if k else 0\n"
        "    return g(n) + h(n)\n"
        "def r(n):\n    return r(n - 1) if n else 0\n"
        "class C:\n    def m(self):\n        return self.m()\n"
    )
    assert recursive_closures(source) == ["f.a", "f.b", "f.g"]


def test_no_library_function_recurses_through_a_closure():
    for name, source in library_sources().items():
        assert recursive_closures(source) == [], name


MONOIDS = ("Monomial", "Word")


def monoid_names(source: str):
    """The monoid class names that `source` imports, binds, or reads as a
    name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update((alias.name.rpartition(".")[2], alias.asname))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            names.add(node.name)
    return sorted(names.intersection(MONOIDS))


def test_monoid_name_check_flags_imports_bindings_and_attributes():
    assert monoid_names("from .linear import Monomial as M\nx = linear.Word(())\n") == [
        "Monomial",
        "Word",
    ]
    assert monoid_names("Word = 1\n") == ["Word"]
    assert monoid_names('from .linear import LinComb\n"""A Word."""\nWords = 1\n') == []


def test_verify_names_no_monoid():
    assert monoid_names(library_sources()["verify.py"]) == []


# Where a library definition may be named: the library, its tests, the
# scripts and the benchmark.
CODE_DIRS = ("src", "tests", "scripts", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def code_sources():
    """{path relative to the repository: source} of every Python file in CODE_DIRS."""
    sources = {}
    for top in CODE_DIRS:
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True)):
            with open(path) as f:
                sources[os.path.relpath(path, ROOT)] = f.read()
    return sources


def unnamed_definitions(library: dict, corpus: dict):
    """The non-dunder functions, classes and methods that a module of
    `library` defines and that no line of `corpus` names, lines that define
    that name in the library excepted. Both map a path to its source; the
    library's own files belong to the corpus."""
    defined: dict = {}  # name -> {(path, line) of each library definition}
    for path, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.setdefault(node.name, set()).add((path, node.lineno))
    named = set()
    for path, source in corpus.items():
        for i, line in enumerate(source.splitlines(), 1):
            named.update(
                name for name in IDENTIFIER.findall(line)
                if name in defined and (path, i) not in defined[name]
            )
    return sorted(set(defined) - named)


def test_dead_helper_check_flags_a_definition_named_nowhere_else():
    module = (
        "class A:\n"
        "    def used(self):\n        return self._helper()\n"
        "    def _helper(self):\n        return 0\n"
        "    def __eq__(self, other):\n        return True\n"
        "class B:\n    def _helper(self):\n        return 1\n"
        "def dead():\n    return 0\n"
        "def by_name():\n    return 0\n"
        'NAMES = ("by_name",)\n'
    )
    corpus = {"lib/m.py": module, "tests/t.py": "from m import A\nA().used()\n"}
    assert unnamed_definitions({"lib/m.py": module}, corpus) == ["B", "dead"]
    assert unnamed_definitions({"lib/m.py": module}, {"lib/m.py": module}) == [
        "A", "B", "dead", "used"
    ]


def test_library_defines_no_dead_helper():
    corpus = code_sources()
    library = {path: source for path, source in corpus.items()
               if path.startswith(os.path.join("src", "quiverhopf", ""))}
    assert len(library) == 12
    assert unnamed_definitions(library, corpus) == []
