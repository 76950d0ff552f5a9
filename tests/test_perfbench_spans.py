"""The traced benchmark run wraps program functions at the names their
callers import them by (``perfbench/tracing.py``).  A refactor that drops
or renames one of those names fails here, not only in ``run.py --smoke``."""

import importlib
import sys
from pathlib import Path

import cqgraph.cli  # noqa: F401  the benchmark traces after this import

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SPANS
               if not hasattr(sys.modules.get(module), attr)]
    assert not missing
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()  # the wrappers outside SPANS resolve too
    finally:
        tracer.__exit__(None, None, None)
