"""Only `data_io.write_file` opens files for writing inside the package.

`write_file` replaces its target atomically, so a killed run never leaves a
torn artifact; a second writer would bring that back. This test reads the
syntax tree of every `src/dpsynth/*.py` and fails on any other `open` in a
write, append, exclusive or update mode, and on any `.write_text` or
`.write_bytes` call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dpsynth"
ALLOWED = ("data_io.py", "write_file")  # (module, function) of the one writer


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    pos = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) vs Path(file).open(mode)
    if mode is None and len(call.args) > pos:
        mode = call.args[pos]
    if mode is None:
        return False  # the default mode reads
    # A mode this test cannot read counts as writing.
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def write_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in `source` that writes a file."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append((function, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_detector_sees_every_kind_of_write():
    writes = 'open(p, "w")\nopen(p, mode="ab")\nPath(p).open("x")\nopen(p, "r+b")\np.write_text(s)\np.write_bytes(b)\nopen(p, m)\n'
    assert [line for _, line in write_calls(writes)] == [1, 2, 3, 4, 5, 6, 7]
    reads = 'open(p)\nopen(p, "rb")\nPath(p).open()\nopen(p, encoding="utf-8")\nwrite_text(s)\n'
    assert write_calls(reads) == []
    assert write_calls('def f():\n    def g():\n        open(p, "w")\n') == [("g", 3)]


def test_only_write_file_writes_files():
    allowed, offenders = [], []
    for path in sorted(SRC.glob("*.py")):
        for function, line in write_calls(path.read_text()):
            (allowed if (path.name, function) == ALLOWED else offenders).append(f"{path.name}:{line} in {function}")
    assert not offenders, f"write through data_io.write_file instead: {offenders}"
    assert len(allowed) == 1, f"expected the one writer in data_io.write_file, found {allowed}"
