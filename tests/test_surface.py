"""src/ holds only the program, and tests/oracles.py only what the tests
use: each function, class and method defined in src/coxrack must be
reachable from what runs, and each one in tests/oracles.py from the
tests.

For src/ the roots are cli.py, the top-level statements (imports aside)
of every module in src/coxrack, and every name perfbench/*.py uses as
code or in a dotted string of the tracer's TARGETS and LADDER.  For
tests/oracles.py they are every name used in tests/test_*.py and the
oracles' own top-level statements.  A definition is reached when a
reached body names it, as a name or an attribute; a reached class
reaches its own statements and dunder methods, but not its other
methods, which must be named themselves.  Dunder methods are never
flagged.  Code only tests call belongs in tests/oracles.py, and a check
moved there cannot rot unseen.  The walk goes by name, so it cannot see
a definition that shares its name with a reached one.

A module in src/coxrack also reads no other module's underscore names:
no attribute x._y whose _y it does not define or assign itself, and no
`from .m import _y`.  What one module reads of another is public.
"""

import ast
import functools
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _named(nodes) -> set[str]:
    """Every name and attribute name used inside the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _uses(node) -> set[str]:
    """Names a definition reaches: a function its whole subtree, a class
    its bases, decorators and statements other than non-dunder methods."""
    if not isinstance(node, ast.ClassDef):
        return _named([node])
    own = [s for s in node.body
           if not isinstance(s, DEFS) or _is_dunder(s.name)]
    return _named(node.bases + node.keywords + node.decorator_list + own)


def _bench_names() -> set[str]:
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        text = path.read_text()
        toks = tokenize.generate_tokens(io.StringIO(text).readline)
        names.update(t.string for t in toks if t.type == tokenize.NAME)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("TARGETS", "LADDER")
                    for t in node.targets):
                names.update(part for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str)
                             for part in c.value.split("."))
    return names


def _top_level(tree) -> set[str]:
    """Names a module's top-level statements use, imports aside."""
    return _named(s for s in tree.body if not isinstance(
        s, DEFS + (ast.Import, ast.ImportFrom)))


def _unreached(trees: dict, reached: set[str]) -> tuple[str, ...]:
    """The definitions in `trees` that no name in `reached` leads to."""
    defs: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                defs.setdefault(node.name, []).append(node)
    reached = set(reached)
    frontier = list(reached)
    while frontier:
        for node in defs.get(frontier.pop(), ()):
            new = _uses(node) - reached
            reached |= new
            frontier.extend(new)
    return tuple(f"{path.name}:{node.lineno} {node.name}"
                 for path, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, DEFS) and node.name not in reached
                 and not _is_dunder(node.name))


@functools.cache
def unreached_definitions() -> tuple[str, ...]:
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "coxrack").glob("*.py"))}
    reached = _bench_names()
    for path, tree in trees.items():
        reached |= (_named([tree]) if path.name == "cli.py"
                    else _top_level(tree))
    return _unreached(trees, reached)


def unreached_oracles() -> tuple[str, ...]:
    path = ROOT / "tests" / "oracles.py"
    tree = ast.parse(path.read_text())
    reached = _top_level(tree)
    for test in (ROOT / "tests").glob("test_*.py"):
        reached |= _named([ast.parse(test.read_text())])
    return _unreached({path: tree}, reached)


def test_every_definition_in_src_is_used_by_the_program():
    assert unreached_definitions() == ()


def test_every_oracle_is_used_by_a_test():
    assert unreached_oracles() == ()


def _private(name: str) -> bool:
    return name.startswith("_") and not _is_dunder(name)


def foreign_private_reads(sources: dict[str, str]) -> tuple[str, ...]:
    """Each underscore name a module of `sources` (module name to text)
    reads from another: an attribute it neither defines nor assigns, or
    one imported from the package."""
    out = []
    for name, text in sources.items():
        tree = ast.parse(text)
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                own.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store):
                own.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("coxrack")):
                out += [f"{name}:{node.lineno} import {a.name}"
                        for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in own):
                out.append(f"{name}:{node.lineno} .{node.attr}")
    return tuple(out)


def test_no_module_reads_another_modules_underscore_names():
    sources = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "coxrack").glob("*.py"))}
    assert foreign_private_reads(sources) == ()


def test_foreign_underscore_reads_are_caught():
    sources = {
        "a.py": "class T:\n    def __init__(self):\n        self._x = 1\n"
                "def _helper():\n    return T()._x\n",
        "b.py": "from .a import _helper\nfrom . import __version__\n"
                "def f(t):\n    return t._x + _helper()\n",
    }
    assert foreign_private_reads(sources) == (
        "b.py:1 import _helper", "b.py:4 ._x")
