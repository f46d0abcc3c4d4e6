"""The package surface."""

import ast
import importlib
from pathlib import Path

import fullerene_belyi

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in fullerene_belyi.__all__
               if not hasattr(fullerene_belyi, name)]
    assert not missing
    assert len(set(fullerene_belyi.__all__)) == len(fullerene_belyi.__all__)


def test_traced_benchmark_stages_resolve():
    # perfbench/tracing.py wraps these (module, function) pairs by name, so
    # deleting or renaming one breaks the benchmark's --trace 1 mode
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table, = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["FUNCTIONS"]]
    pairs = [ast.literal_eval(key) for key in table.keys]
    assert pairs
    missing = [(mod, name) for mod, name in pairs if not hasattr(
        importlib.import_module(f"fullerene_belyi.{mod}"), name)]
    assert not missing
