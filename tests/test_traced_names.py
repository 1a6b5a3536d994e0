"""The benchmark's tracer wraps library functions by name; a rename in the
library must fail here, not only in the slower benchmark tests."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_library_callable():
    traced = _traced()
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"rm2cover.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rm2cover.{module_name}.{name}"
