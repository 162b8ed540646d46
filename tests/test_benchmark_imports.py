"""The benchmark worker imports only names that the package still exports."""

import ast
from pathlib import Path

import emorag

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_worker_imports_exist_on_package():
    tree = ast.parse(WORKER.read_text(encoding="utf-8"), filename=str(WORKER))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "emorag" and node.level == 0
        for alias in node.names
    ]
    assert len(names) > 10, "expected the worker's `from emorag import (...)` block"
    missing = [name for name in names if not hasattr(emorag, name)]
    assert not missing, f"perfbench/worker.py imports names emorag lacks: {missing}"
