"""The benchmark worker imports only names that the package still exports, and reads only
attributes that what those names return still has."""

import ast
from pathlib import Path

import numpy as np

import emorag

from helpers import build_db

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TREE = ast.parse(WORKER.read_text(encoding="utf-8"), filename=str(WORKER))
# the package calls whose results the worker reads attributes on
RETURNING = ("build_index_bundle", "load_index_bundle", "filter_by_intensity")


def test_worker_imports_exist_on_package():
    names = [
        alias.name
        for node in ast.walk(TREE)
        if isinstance(node, ast.ImportFrom) and node.module == "emorag" and node.level == 0
        for alias in node.names
    ]
    assert len(names) > 10, "expected the worker's `from emorag import (...)` block"
    missing = [name for name in names if not hasattr(emorag, name)]
    assert not missing, f"perfbench/worker.py imports names emorag lacks: {missing}"


def _attributes_read_on_results() -> dict:
    """``{call: {attribute}}``: each attribute the worker reads on a name it bound to the result of
    ``call``, a local name within its function or ``self.<name>`` anywhere in the module."""
    holders = {}  # (function or None for self.<name>, source of the holder) -> call
    reads = set()  # (function, source of the holder, attribute)
    for fn in (node for node in ast.walk(TREE) if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value.func
                if isinstance(call, ast.Name) and call.id in RETURNING:
                    for target in node.targets:
                        scope = None if isinstance(target, ast.Attribute) else fn.name
                        holders[scope, ast.unparse(target)] = call.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((fn.name, ast.unparse(node.value), node.attr))
    found = {call: set() for call in RETURNING}
    for fn, holder, attr in reads:
        call = holders.get((None, holder)) if holder.startswith("self.") else holders.get((fn, holder))
        if call is not None:
            found[call].add(attr)
    return found


def test_worker_reads_only_attributes_the_results_have(tmp_path):
    found = _attributes_read_on_results()
    # the scan sees the reads it is there to guard
    assert {"full", "for_level"} <= found["load_index_bundle"]
    assert {"unit_matrix", "fingerprint"} <= found["filter_by_intensity"]
    db = build_db(np.eye(3, dtype=np.float32), intensities=["weak", "normal", "strong"])
    built = emorag.build_index_bundle(db)
    emorag.save_index_bundle(built, tmp_path / "db.emix")
    results = {
        "build_index_bundle": built,
        "load_index_bundle": emorag.load_index_bundle(tmp_path / "db.emix"),
        "filter_by_intensity": emorag.filter_by_intensity(db, "weak"),
    }
    missing = [f"{call}().{a}" for call, attrs in found.items() for a in sorted(attrs) if not hasattr(results[call], a)]
    assert not missing, f"perfbench/worker.py reads attributes the package's results lack: {missing}"
