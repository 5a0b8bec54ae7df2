"""The package surface: every name defined in ``src/`` has a caller, and every method is reached."""

import ast
import io
import re
import tokenize
from pathlib import Path

from splitnorm.normprofile import newt_constant
from splitnorm.scalars import rat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitnorm"
README = ROOT / "README.md"
_IDENT = re.compile(r"[A-Za-z_]\w*")


def _readme_library_block() -> str:
    """The ```python block of the README's Library section."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "the README holds one python block"
    return blocks[0]


# where a name of src/ may be reached from, path -> source: tests do not count
CALLERS = {p: p.read_text() for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
CALLERS[README] = _readme_library_block()


def _declaring_lines(tree) -> set:
    """Lines that name a thing without using it: imports, the ``__all__``
    assignment and docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _named(source):
    """(identifier, line) for every name token of a source and every
    identifier inside its strings (names looked up by string, as
    ``perfbench/tracer.py`` does).  Comments and the lines of
    ``_declaring_lines`` do not count."""
    skip = _declaring_lines(ast.parse(source))
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skip:
            continue
        if tok.type == tokenize.NAME:
            out.append((tok.string, tok.start[0]))
        elif tok.type == tokenize.STRING:
            out.extend((word, tok.start[0]) for word in _IDENT.findall(tok.string))
    return out


def test_every_src_name_has_a_caller():
    # a def or class that only tests call belongs in tests/helpers.py, and
    # one that nothing calls is deleted: being exported is not a call
    named = {p: _named(text) for p, text in CALLERS.items()}
    uncalled = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word == name and not (path == module and line in own)
                       for path, words in named.items() for word, line in words):
                uncalled.append(f"{module.name}:{node.lineno} {name}")
    assert not uncalled, uncalled


def _accessed(source):
    """(attribute name, line) for every ``.name`` access in a source."""
    return [(node.attr, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)]


def test_every_src_method_is_accessed():
    # a method is reached as ``.name``; one that nothing reaches is dead
    accessed = {p: _accessed(text) for p, text in CALLERS.items()}
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


def test_readme_library_block_runs_as_its_comments_say():
    block = _readme_library_block()
    tree = ast.parse(block)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"imported and never used: {sorted(imported - used)}"
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    prof, gen, num, v = ns["prof"], ns["gen"], ns["num"], ns["v"]
    assert prof.constancy_onset == rat(1, 2)
    assert prof.tail_value == 4 == newt_constant(ns["f"], 4)
    assert prof.value_at(rat(1, 4)) == rat(25, 6)
    assert gen.constancy_onset == rat(5, 4)
    assert num.abs_error <= 1e-3
    assert (v.ok, v.witness) == (False, (rat(19, 2), rat(39, 4)))


def test_no_src_module_imports_a_private_name_of_another():
    # a module's underscore names (the integer layout's helpers among them)
    # stay behind its public names: no other module of src/ imports them
    crossing = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("splitnorm")):
                crossing += [f"{module.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not crossing, crossing
