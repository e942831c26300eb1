"""src/ holds only the program: each function, class and method defined
in src/coxrack must occur as a code name (a NAME token, not a comment or
docstring) in src/coxrack outside its own definition, or in perfbench/*.py
as code or as a dotted string of the tracer's TARGETS and LADDER.  Code
only tests call belongs in tests/oracles.py.  The check goes by name, so
it cannot see a definition that shares its name with a used one.
"""

import ast
import functools
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    # serializes schema/symmetrizer_report.v1.json; read by the schema test
    "to_dict",
    # the paper's corollary that q+ is quadratic iff q- is; ROADMAP item 7
    # rebuilds it from the relation cover
    "is_quadratic_through",
}


def _names(text: str) -> list[tuple[str, int]]:
    """(name, line) of every NAME token of a Python source."""
    toks = tokenize.generate_tokens(io.StringIO(text).readline)
    return [(t.string, t.start[0]) for t in toks if t.type == tokenize.NAME]


def _bench_names() -> set[str]:
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        text = path.read_text()
        names.update(n for n, _ in _names(text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("TARGETS", "LADDER")
                    for t in node.targets):
                names.update(part for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)
                             and isinstance(c.value, str)
                             for part in c.value.split("."))
    return names


@functools.cache
def unused_definitions() -> tuple[str, ...]:
    sources = {p: p.read_text()
               for p in sorted((ROOT / "src" / "coxrack").glob("*.py"))}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, text in sources.items():
        for name, line in _names(text):
            uses.setdefault(name, []).append((path, line))
    bench = _bench_names()
    unused = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name, first, last = node.name, node.lineno, node.end_lineno
            if name.startswith("__") and name.endswith("__") or name in bench:
                continue
            if all(other == path and first <= line <= last
                   for other, line in uses[name]):
                unused.append(f"{path.name}:{first} {name}")
    return tuple(unused)


def test_every_definition_in_src_is_used_by_the_program():
    assert [u for u in unused_definitions()
            if u.split()[-1] not in ALLOWED] == []


def test_each_allowed_name_is_still_needed():
    assert {u.split()[-1] for u in unused_definitions()} == ALLOWED
