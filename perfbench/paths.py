"""Locations inside the checkout, and the import of the library from its
source tree."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"


def use_source_tree() -> None:
    """Import ``rm2cover`` from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "rm2cover" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no rm2cover source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rm2cover

    if Path(rm2cover.__file__).resolve().parent != SRC / "rm2cover":
        raise SystemExit(f"benchmark: rm2cover imported from {rm2cover.__file__}, not {SRC}")
