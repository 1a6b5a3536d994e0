"""Exact 7-variable second-order nonlinearity and the budgeted witness
search over the characterised family for value 42.

The candidate family is ``fun_i1 || (fun_i2(Ax+b) + g)`` with
``i1, i2 in {4, 6}``, A invertible, b arbitrary and g = q_k + l a
homogeneous quadratic plus a linear part.  For each sampled candidate
the six level-set inclusions (condition 2) act as a fast filter; a
passing candidate is confirmed by the exact nl2 computation.  Per the
characterisation, a pass must yield exactly 42 and a failure at most 40
— any counterexample is refutation-grade and aborts the run with a full
candidate dump.  The exact check's early-exit threshold is fixed at
:data:`EXACT_CHECK_THRESHOLD`.  One loop draws, filters, checks and
emits each candidate before drawing the next, so a long run streams its
output and its memory does not grow with the budget.

Condition 2 needs the coset-value array of each candidate half.  The
half lies in fun_i2's affine orbit modulo degree 2, so its array is
fun_i2's cached one permuted: index ``S_A[p] ^ k`` takes the value at
p (:func:`quadratic.form_map`); b and l drop out.  No half is scanned.

fun_4 and fun_6 take coset values in {16, 18, ..., 26}, so the six
inclusions hold exactly when every q has vals1[q] + vals_half[q] >= 42,
and the minimum of that sum is nl2 of the concatenation (the halves
identity of :func:`quadratic.min_coset_nonlinearity`).  A
:class:`FilterContradiction` therefore compares condition 2, computed
from the permuted fun_i2 array, with the n = 7 kernel run on the
concatenation actually built; it does not test the theorem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import quadratic
from .affine import AffineMap, sample_affine_map, apply_affine
from .catalog import catalog_function
from .core import TruthTable, concatenate
from .quadratic import Nl2Result

# early-exit bound of every exact check: a pass must be confirmable as
# exactly 42, and a non-exact result already proves nl2 < 41
EXACT_CHECK_THRESHOLD = 41


def exact_nl2_7(f: TruthTable, threshold: int | None = None) -> Nl2Result:
    """Exact second-order nonlinearity of a 7-variable function.

    The minimum over the 2**21 homogeneous quadratics is taken from the
    two 6-variable halves f1 || f2 as min over q of nl(f1 + q) + nl(f2 + q)
    (:func:`quadratic.min_coset_nonlinearity`): 16 transforms of 2048
    cosets, each of both 64-point halves together.
    With ``threshold`` the result is that of a direct scan in blocks of
    2048 stopped at the end of the first block whose running minimum is
    below it: that minimum, an upper bound proving nl2 < threshold
    without being exact.  Those blocks come from the halves too: each
    is read off two 64-point spectra per q, never a 128-point transform.
    """
    if f.n != 7:
        raise ValueError(f"the exact kernel is for n=7, got n={f.n}")
    return quadratic.min_coset_nonlinearity(f, threshold=threshold)


@dataclass(frozen=True)
class SearchConfig:
    i1: int = 4
    i2: int = 4
    seed: int = 0
    budget: int = 50  # number of (A, b, g) candidates to sample
    fail_check_rate: int = 100  # exact-check every k-th condition-2 failure (at EXACT_CHECK_THRESHOLD)
    # selects nothing: the search runs one loop; kept only because perfbench passes it
    threads: int = 1

    def __post_init__(self) -> None:
        if self.i1 not in (4, 6) or self.i2 not in (4, 6):
            raise ValueError("i1 and i2 must be 4 or 6")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.fail_check_rate < 1 or self.threads < 1:
            raise ValueError("fail_check_rate and threads must be >= 1")


@dataclass
class SearchRecord:
    candidate: int
    map: AffineMap
    quad_index: int
    linear_mask: int
    cond2_pass: bool
    failed_relations: list[dict] = field(default_factory=list)
    nl2_value: int | None = None
    nl2_exact: bool | None = None

    @property
    def is_witness(self) -> bool:
        return bool(self.nl2_exact) and self.nl2_value == 42

    def as_json_dict(self) -> dict:
        d = self.map.as_json_dict()
        return {
            "candidate": self.candidate,
            "A": d["A"],
            "b": d["b"],
            "g_quad_index": self.quad_index,
            "g_linear_mask": self.linear_mask,
            "cond2_pass": self.cond2_pass,
            "failed_relations": self.failed_relations,
            "nl2_value": self.nl2_value,
            "nl2_exact": self.nl2_exact,
            "is_witness": self.is_witness,
        }


@dataclass
class SearchSummary:
    i1: int
    i2: int
    seed: int
    candidates: int = 0
    cond2_passes: int = 0
    exact_checked: int = 0
    max_nl2_exact: int | None = None
    witnesses: int = 0

    def as_json_dict(self) -> dict:
        return dict(self.__dict__)


class FilterContradiction(RuntimeError):
    """A candidate violated the pass=>42 / fail=><=40 characterisation."""

    def __init__(self, message: str, record: SearchRecord):
        super().__init__(f"{message}; candidate dump: {record.as_json_dict()}")
        self.record = record


def condition2_relations(vals1: np.ndarray, vals2: np.ndarray) -> list[dict]:
    """The six level-set inclusions behind the nl2 = 42 characterisation.

    The arguments are the coset-nonlinearity arrays of the two halves
    (:func:`quadratic.coset_values`).  For both orderings:
    level(16) within level(26); level(18) within level(24) u level(26);
    level(20) within level(22) u level(24) u level(26).  Each verdict
    carries a counterexample index on failure.
    """
    relations = []
    for direction, src, dst in (("1->2", vals1, vals2), ("2->1", vals2, vals1)):
        for r, targets in ((16, (26,)), (18, (24, 26)), (20, (22, 24, 26))):
            witness = quadratic.level_set_outside(src, r, dst, targets)
            relations.append(
                {
                    "direction": direction,
                    "r": r,
                    "targets": list(targets),
                    "holds": witness is None,
                    "witness": witness,
                }
            )
    return relations


def witness_search(cfg: SearchConfig, on_record: Callable[[SearchRecord], None] | None = None) -> SearchSummary:
    """Sample candidates, filter by condition 2, exact-check as configured.

    Condition 2 compares fun_i1's cached coset values with the half's,
    which are fun_i2's cached values permuted by the candidate's map and
    q_k; only exact checks build the half's truth table.
    One pass: each candidate is drawn, filtered, exact-checked when due
    and handed to ``on_record`` before the next is drawn, so the first
    record comes after one candidate's time and memory does not grow
    with the budget.  Deterministic for a fixed (seed, budget); the
    ``threads`` setting selects nothing.  Condition-2 passes are always
    exact-checked; failures are cross-checked at the configured 1-in-k
    rate.  Returns the run summary.
    """
    f1 = catalog_function(f"fun_{cfg.i1}")
    vals1 = quadratic.coset_values(f1)
    f2 = catalog_function(f"fun_{cfg.i2}")
    vals2 = quadratic.coset_values(f2)
    rng = np.random.default_rng(cfg.seed)

    # its own scope, so the permutation and the permuted array are freed before the next draw
    def evaluate(k: int, m: AffineMap, quad_index: int, linear_mask: int) -> SearchRecord:
        # the half fun_i2(Ax+b) + q_k + l has at S_A[p] ^ k the value of fun_i2 at p
        target = quadratic.form_map(m.matrix)
        target ^= quad_index
        vals_half = np.empty_like(vals2)
        vals_half[target] = vals2
        failed = [r for r in condition2_relations(vals1, vals_half) if not r["holds"]]
        return SearchRecord(k, m, quad_index, linear_mask, cond2_pass=not failed, failed_relations=failed)

    summary = SearchSummary(cfg.i1, cfg.i2, cfg.seed)
    fails_seen = 0
    for k in range(cfg.budget):
        m = sample_affine_map(6, rng)
        quad_index = int(rng.integers(0, quadratic.form_count(6)))
        record = evaluate(k, m, quad_index, int(rng.integers(0, 64)))
        summary.candidates += 1
        if record.cond2_pass:
            summary.cond2_passes += 1
            check = True
        else:
            check = fails_seen % cfg.fail_check_rate == 0
            fails_seen += 1
        if check:
            half = apply_affine(f2, record.map) ^ quadratic.degree2_table(6, record.quad_index, record.linear_mask)
            result = exact_nl2_7(concatenate(f1, half), threshold=EXACT_CHECK_THRESHOLD)
            record.nl2_value, record.nl2_exact = result.value, result.exact
            summary.exact_checked += 1
            if result.exact:
                summary.max_nl2_exact = max(summary.max_nl2_exact or 0, result.value)
                if result.value > 42:
                    raise FilterContradiction("exact nl2 above the stated global bound 42", record)
            if record.cond2_pass:
                if not (result.exact and result.value == 42):
                    raise FilterContradiction("condition-2 pass without exact nl2 = 42", record)
                summary.witnesses += 1
            elif result.exact and result.value > 40:
                raise FilterContradiction("condition-2 failure with nl2 above 40", record)
        if on_record is not None:
            on_record(record)
    return summary
