"""The package surface: every name defined in ``src/`` has a caller, and every method is reached."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitnorm"
_IDENT = re.compile(r"[A-Za-z_]\w*")
# where a name of src/ may be reached from: tests do not count
CALLERS = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _named(path):
    """(identifier, line) for every name token of a file and every
    identifier inside its strings (names looked up by string, as
    ``perfbench/tracer.py`` does); comments do not count."""
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            out.append((tok.string, tok.start[0]))
        elif tok.type == tokenize.STRING:
            out.extend((word, tok.start[0]) for word in _IDENT.findall(tok.string))
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_src_name_has_a_caller():
    # a def or class that only tests call belongs in tests/helpers.py
    named = {p: _named(p) for p in CALLERS}
    uncalled = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        exported = _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word == name and not (path == module and line in own)
                       for path, words in named.items() for word, line in words):
                uncalled.append(f"{module.name}:{node.lineno} {name}")
    assert not uncalled, uncalled


def _accessed(path):
    """(attribute name, line) for every ``.name`` access in a file."""
    return [(node.attr, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)]


def test_every_src_method_is_accessed():
    # a method is reached as ``.name``; one that nothing reaches is dead
    accessed = {p: _accessed(p) for p in CALLERS}
    unreached = []
    for module in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(module.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                if not any(attr == name and not (path == module and line in own)
                           for path, attrs in accessed.items() for attr, line in attrs):
                    unreached.append(f"{module.name} {cls.name}.{name}")
    assert not unreached, unreached
