"""Span tracing of the library's public functions, from outside the library.

``Tracer.installed()`` replaces each traced function by a wrapper in
every ``rm2cover`` module that binds it (``quadratic`` imports
``fwht_rows`` from ``core``, ``search`` imports ``apply_affine`` from
``affine``, and so on) and restores the originals on exit.  A wrapper
records one span per call: name, start, end and parent.  Spans stay in
memory; self time, a span's duration minus its children's, is derived at
the end.  Counters are taken at the same boundaries from the arguments
and results.  Traced runs are single-threaded, so one parent stack
suffices.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TRACED = {
    "core": ("fwht_rows", "walsh_spectrum"),
    "quadratic": (
        "coset_nonlinearities",
        "min_coset_nonlinearity",
        "second_order_nonlinearity",
        "max_nl_over_quadratics",
        "nfh_profile",
        "fh_set",
    ),
    "affine": ("equivalence_search", "apply_affine", "sample_affine_map"),
    "claims": (
        "verify_all",
        "verify_nl2_values",
        "verify_observation_1",
        "verify_profile_claims",
        "verify_remark_1",
        "lemma2_conclusion_check",
        "proposition_spot_checks",
        "condition2_relations",
    ),
    "search": ("witness_search", "exact_nl2_7"),
}
SCANS = {f"quadratic.{fn}" for fn in TRACED["quadratic"]}
ROOT = "bench.op"

# equivalence_search status / rejection reason -> metric suffix
REJECTIONS = {
    "degree mismatch of the degree->=3 part": "degree",
    "weight-parity mismatch of the degree->=3 part": "weight-parity",
    "derivative-spectrum multiset mismatch": "derivative-spectrum",
    "coset-nonlinearity profile mismatch": "profile",
    "derivative-class multiset mismatch": "derivative-class",
    "derivative-pair-class multiset mismatch": "derivative-pair-class",
    None: "search-exhausted",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent (-1: none)
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._scan_depth = 0
        self._seen_scans: set[tuple] = set()

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _exit(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        count = self._counter(name, inspect.signature(fn))
        scan = name in SCANS
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            # scans nested in another scan entry are not counted again
            outer = not scan or self._scan_depth == 0
            self._scan_depth += scan
            index = self._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, start, perf_counter())
                self._scan_depth -= scan
            if count is not None and outer:
                count(args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, signature: inspect.Signature):
        counts = self.counts
        if name in SCANS:

            def scan(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                f = arguments["f"]
                total = 1 << (f.n * (f.n - 1) // 2)
                # what was scanned, whichever entry scanned it: an index range,
                # or an early-exit scan against a threshold
                scanned: tuple = (0, total)
                if name == "quadratic.coset_nonlinearities":
                    scanned = (arguments["start"], total if arguments["stop"] is None else arguments["stop"])
                elif arguments.get("threshold") is not None:
                    scanned = ("threshold", arguments["threshold"])
                key = (f.n, f.bits.tobytes(), scanned)
                counts["quadratic.scan_calls"] += 1
                counts["quadratic.repeat_inputs"] += key in self._seen_scans
                self._seen_scans.add(key)
                if name == "quadratic.min_coset_nonlinearity" and not result[1]:
                    counts["quadratic.early_exits"] += 1  # cosets scanned before the exit are not visible
                elif scanned[0] != "threshold":
                    counts["quadratic.cosets"] += scanned[1] - scanned[0]
                else:
                    counts["quadratic.cosets"] += total  # a threshold scan that found no value below it

            return scan
        if name == "search.exact_nl2_7":

            def exact(args, kwargs, result):
                counts["search.exact_nl2_7.early_exits"] += not result.exact

            return exact
        if name == "affine.equivalence_search":

            def equivalence(args, kwargs, result):
                counts["affine.equivalence_search.nodes"] += result.nodes
                if result.status == "found":
                    counts["affine.equivalence_search.found"] += 1
                elif result.status == "budget-exhausted":
                    counts["affine.equivalence_search.rejected.budget-exhausted"] += 1
                else:
                    suffix = REJECTIONS.get(result.reason, "other")
                    counts[f"affine.equivalence_search.rejected.{suffix}"] += 1

            return equivalence
        if name == "search.witness_search":

            def summary(args, kwargs, result):
                for field in ("candidates", "cond2_passes", "exact_checked", "witnesses"):
                    counts[f"search.{field}"] += getattr(result, field)

            return summary
        return None

    @contextmanager
    def installed(self):
        """Trace the library's public functions for the duration, and time
        the whole block as one root span."""
        modules = [m for n, m in sys.modules.items() if n == "rm2cover" or n.startswith("rm2cover.")]
        swaps = []
        for module_name, functions in TRACED.items():
            home = sys.modules[f"rm2cover.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            swaps.append((module, attr, original))
                            setattr(module, attr, wrapper)
        index = self._enter(ROOT)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, start, time.perf_counter())
            for module, attr, original in reversed(swaps):
                setattr(module, attr, original)
        self.ops += 1

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per name: total self time, total wall time, and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        wall_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            wall_s[name] += end - start
            calls[name] += 1
        return self_s, wall_s, calls
