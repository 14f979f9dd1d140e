"""Every name a module of the package, a test module or a script imports is
used in that module, so a deletion cannot leave an import behind; every
one of them parses as Python 3.10, the oldest version the package
supports; and no line under src/ is longer than 100 characters."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted(p for p in (ROOT / "src" / "rblie").glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` (``__future__`` aside)
    that no expression of it reads, quoted annotations included."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from x import a, b as c, d\ndef f(y: 'd') -> None:\n    return c\n")
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_src_line_is_longer_than_100_characters():
    long = [f"{p.name}:{n}" for p in sorted((ROOT / "src").rglob("*.py"))
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def test_every_module_parses_as_python_3_10():
    """The grammar of the oldest supported version, so syntax newer than
    `requires-python` (``except*``, say) fails here and not only on a 3.10
    interpreter."""
    for path in [ROOT / "src" / "rblie" / "__init__.py", *MODULES]:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
