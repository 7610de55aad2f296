"""No module imports a name it never reads (no linter is installed to check it)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level import whose name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for name in ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        if name not in read
    ]


def test_the_scan_finds_an_unread_import_and_passes_a_read_one():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom re import sub, fullmatch\n" \
             "os.path.join(fullmatch)\n"
    assert unread_imports(source) == [(2, "math"), (4, "sub")]


def test_no_module_imports_a_name_it_never_reads():
    paths = [path for pattern in ("src/ontosearch/*.py", "tests/*.py", "scripts/*.py", "bench/*.py")
             for path in sorted(ROOT.glob(pattern))]
    assert len(paths) > 20
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in paths for line, name in unread_imports(path.read_text(encoding="utf-8"))]
    assert unread == []
