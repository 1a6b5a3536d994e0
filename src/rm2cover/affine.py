"""Invertible affine maps over GF(2)^n and equivalence testing modulo
functions of degree at most 2.

Two functions f1, f2 are considered equivalent when
``f2 = f1(Ax + b) + g`` for an invertible matrix A, a translation b and
some g of degree <= 2.  The search enumerates candidate column images of
A with backtracking; candidate pruning uses the absolute Walsh-value
multiset of directional derivatives, which this equivalence preserves
direction-for-direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadratic
from .core import AnfPolynomial, MAX_VARS, TruthTable, _moebius, anf_from_truth_table, truth_table_from_anf, walsh_spectrum

DEFAULT_SEARCH_BUDGET = 10**8

FOUND = "found"
NOT_FOUND = "not-found"
BUDGET_EXHAUSTED = "budget-exhausted"


def is_invertible(matrix) -> bool:
    """GF(2) rank test by Gaussian elimination."""
    m = (np.array(matrix, dtype=np.uint8) & 1).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            return False
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
        for r in range(row + 1, n):
            if m[r, col]:
                m[r] ^= m[row]
        row += 1
    return True


@dataclass(frozen=True)
class AffineMap:
    """x -> Ax + b with A invertible over GF(2)."""

    n: int
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.matrix, dtype=np.uint8) & 1
        b = np.ascontiguousarray(self.offset, dtype=np.uint8) & 1
        if a.shape != (self.n, self.n) or b.shape != (self.n,):
            raise ValueError(f"expected a {self.n}x{self.n} matrix and length-{self.n} offset")
        if not is_invertible(a):
            raise ValueError("matrix is singular over GF(2)")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(n, np.eye(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(self.n, dtype=np.uint8)) and not self.offset.any())

    def as_json_dict(self) -> dict:
        # row i packs A[i, j] at bit j (variable j+1 -> weight 2**j)
        rows = [format(int(sum(int(v) << j for j, v in enumerate(row))), "x") for row in self.matrix]
        b = format(int(sum(int(v) << j for j, v in enumerate(self.offset))), "x")
        return {"A": rows, "b": b}


def random_affine_map(n: int, seed: int) -> AffineMap:
    """Uniform invertible A (rejection sampling) and uniform b, per seed."""
    return sample_affine_map(n, np.random.default_rng(seed))


def sample_affine_map(n: int, rng: np.random.Generator) -> AffineMap:
    while True:
        a = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if is_invertible(a):
            break
    b = rng.integers(0, 2, size=n, dtype=np.uint8)
    return AffineMap(n, a, b)


def apply_affine(f: TruthTable, m: AffineMap) -> TruthTable:
    """Pointwise composition g(x) = f(Ax + b)."""
    if m.n != f.n:
        raise ValueError(f"variable count mismatch: map n={m.n}, table n={f.n}")
    return TruthTable(f.n, f.bits[_target_indices(m.matrix, m.offset)])


def _target_indices(matrix: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Table index of Ax + b for every table index x, as uint32."""
    n = len(offset)
    idx = np.arange(1 << n, dtype=np.uint32)
    x = np.empty((1 << n, n), dtype=np.uint8)
    for v in range(n):
        x[:, v] = (idx >> v) & 1
    y = (x @ matrix.T + offset) & 1
    weights = (1 << np.arange(n)).astype(np.uint32)
    return (y.astype(np.uint32) @ weights).astype(np.uint32)


@dataclass(frozen=True)
class EquivalenceWitness:
    """An (A, b, g) triple with f2 = f1(Ax+b) + g, deg(g) <= 2."""

    map: AffineMap
    g: AnfPolynomial

    def substitute(self, f1: TruthTable) -> TruthTable:
        return apply_affine(f1, self.map) ^ truth_table_from_anf(self.g)

    def as_json_dict(self) -> dict:
        d = self.map.as_json_dict()
        d["g"] = self.g.to_string()
        return d


@dataclass(frozen=True)
class EquivalenceResult:
    status: str  # FOUND / NOT_FOUND / BUDGET_EXHAUSTED
    witness: EquivalenceWitness | None
    nodes: int
    reason: str | None = None


class _BudgetExceeded(Exception):
    pass


def _derivative_keys(f: TruthTable) -> list[bytes]:
    """Per direction a, the sorted |Walsh| values of x -> f(x) + f(x+a).

    Composing with an invertible affine map permutes the directions, and
    adding a degree-<=2 function changes each derivative by an affine
    function; neither changes these keys.
    """
    idx = np.arange(1 << f.n, dtype=np.uint32)
    keys: list[bytes] = [b""]
    for a in range(1, 1 << f.n):
        der = f.bits ^ f.bits[idx ^ a]
        w = np.abs(walsh_spectrum(TruthTable(f.n, der)).values)
        w.sort()
        keys.append(w.tobytes())
    return keys


def _third_derivative_weights(f: TruthTable) -> np.ndarray:
    """T[a, b, c] = Hamming weight of the order-3 derivative along (a, b, c).

    Degree-<=2 additions vanish under three derivatives and an invertible
    affine substitution composes the derivative with a bijection, so any
    witness map must satisfy T2[a, b, c] = T1[Aa, Ab, Ac] exactly.  T is
    symmetric in its arguments and zero whenever an argument repeats.
    """
    size = 1 << f.n
    idx = np.arange(size, dtype=np.uint32)
    xor_table = idx[:, None] ^ idx[None, :]
    t = np.zeros((size, size, size), dtype=np.uint8)
    for a in range(1, size):
        da = f.bits ^ f.bits[idx ^ a]
        second = da[xor_table] ^ da[None, :]  # row b: derivative along (a, b)
        t[a] = (second[:, xor_table] ^ second[:, None, :]).sum(axis=2, dtype=np.uint8)
    return t


def _high_degree_part(f: TruthTable) -> AnfPolynomial:
    anf = anf_from_truth_table(f)
    return AnfPolynomial(f.n, frozenset(m for m in anf.monomials if len(m) >= 3))


def equivalence_search(
    f1: TruthTable,
    f2: TruthTable,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> EquivalenceResult:
    """Search for (A, b, g) with f2 = f1(Ax+b) + g and deg(g) <= 2.

    Returns FOUND with a verified witness, NOT_FOUND only when the
    pruned backtracking was exhausted (or an equivalence invariant
    already differs), and BUDGET_EXHAUSTED when the node budget ran out
    first.  Backtracking order is deterministic: ascending column index,
    ascending candidate value, ascending translation.
    """
    if f1.n != f2.n:
        raise ValueError(f"variable count mismatch: {f1.n} vs {f2.n}")
    if f1.n >= MAX_VARS:
        raise ValueError("equivalence search supports n <= 6")
    n = f1.n
    size = 1 << n

    h1 = _high_degree_part(f1)
    h2 = _high_degree_part(f2)
    if h1.degree != h2.degree:
        return EquivalenceResult(NOT_FOUND, None, 0, reason="degree mismatch of the degree->=3 part")
    if not h1.monomials:
        # both functions are within degree 2 of each other
        witness = EquivalenceWitness(AffineMap.identity(n), anf_from_truth_table(f1 ^ f2))
        return EquivalenceResult(FOUND, witness, 0)
    full = frozenset(range(1, n + 1))
    if (full in h1.monomials) != (full in h2.monomials):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="weight-parity mismatch of the degree->=3 part")

    keys1 = _derivative_keys(f1)
    keys2 = _derivative_keys(f2)
    if sorted(keys1[1:]) != sorted(keys2[1:]):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-spectrum multiset mismatch")

    if quadratic.nfh_profile(f1) != quadratic.nfh_profile(f2):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="coset-nonlinearity profile mismatch")

    t1 = _third_derivative_weights(f1)
    t2 = _third_derivative_weights(f2)

    # refine per-direction and per-pair classes with derivative-cube
    # marginals (the remaining arguments range over everything, so a
    # witness bijection preserves these histograms)
    ids: dict[bytes, int] = {}

    def intern(key: bytes) -> int:
        return ids.setdefault(key, len(ids))

    pair1 = np.zeros((size, size), dtype=np.int32)
    pair2 = np.zeros((size, size), dtype=np.int32)
    for pair, t in ((pair1, t1), (pair2, t2)):
        for a in range(size):
            for b in range(size):
                pair[a, b] = intern(np.bincount(t[a, b], minlength=size + 1).tobytes())
    cls1 = np.array(
        [intern(keys1[a] + np.bincount(t1[a].ravel(), minlength=size + 1).tobytes()) for a in range(size)],
        dtype=np.int32,
    )
    cls2 = np.array(
        [intern(keys2[a] + np.bincount(t2[a].ravel(), minlength=size + 1).tobytes()) for a in range(size)],
        dtype=np.int32,
    )
    if sorted(cls1[1:].tolist()) != sorted(cls2[1:].tolist()):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-class multiset mismatch")
    if sorted(pair1.ravel().tolist()) != sorted(pair2.ravel().tolist()):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-pair-class multiset mismatch")

    # per depth k: the fixed f2-side blocks for directions 2**k .. 2**(k+1)-1
    blocks2 = []
    cls2_new = []
    for depth in range(n):
        old = np.arange(1 << depth)
        new = old + (1 << depth)
        blocks2.append(
            (
                pair2[np.ix_(new, old)],
                pair2[np.ix_(new, new)],
                t2[np.ix_(new, old, old)],
                t2[np.ix_(new, new, old)],
                t2[np.ix_(new, new, new)],
            )
        )
        cls2_new.append(cls2[new])

    # candidate images of basis vectors, grouped by derivative class
    candidates_by_class: dict[int, list[int]] = {}
    for a in range(1, size):
        candidates_by_class.setdefault(int(cls1[a]), []).append(a)

    zeros = np.zeros(n, dtype=np.uint8)
    deep = np.array([a.bit_count() > 2 for a in range(size)])  # monomials of degree >= 3

    nodes = 0
    columns: list[int] = []

    def bump() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded

    def try_translations() -> EquivalenceWitness | None:
        a = np.zeros((n, n), dtype=np.uint8)
        for i, c in enumerate(columns):
            for j in range(n):
                a[j, i] = (c >> j) & 1
        base = _target_indices(a, zeros)
        for b_int in range(size):
            bump()
            diff = f1.bits[base ^ np.uint32(b_int)] ^ f2.bits
            if not _moebius(diff)[deep].any():
                b_vec = np.array([(b_int >> j) & 1 for j in range(n)], dtype=np.uint8)
                g = anf_from_truth_table(TruthTable(n, diff))
                witness = EquivalenceWitness(AffineMap(n, a, b_vec), g)
                assert witness.substitute(f1) == f2
                return witness
        return None

    def extend(depth: int, img: np.ndarray, span: frozenset[int]) -> EquivalenceWitness | None:
        if depth == n:
            return try_translations()
        pair_no, pair_nn, cube_noo, cube_nno, cube_nnn = blocks2[depth]
        for cand in candidates_by_class.get(int(cls2_new[depth][0]), ()):
            if cand in span:
                continue
            bump()
            img_new = img ^ cand
            if not np.array_equal(cls1[img_new], cls2_new[depth]):
                continue
            if not np.array_equal(pair1[np.ix_(img_new, img)], pair_no):
                continue
            if not np.array_equal(pair1[np.ix_(img_new, img_new)], pair_nn):
                continue
            if not (
                np.array_equal(t1[np.ix_(img_new, img, img)], cube_noo)
                and np.array_equal(t1[np.ix_(img_new, img_new, img)], cube_nno)
                and np.array_equal(t1[np.ix_(img_new, img_new, img_new)], cube_nnn)
            ):
                continue
            columns.append(cand)
            result = extend(depth + 1, np.concatenate([img, img_new]), span | {int(v) for v in img_new})
            if result is not None:
                return result
            columns.pop()
        return None

    try:
        witness = extend(0, np.zeros(1, dtype=np.intp), frozenset({0}))
    except _BudgetExceeded:
        return EquivalenceResult(BUDGET_EXHAUSTED, None, nodes)
    if witness is None:
        return EquivalenceResult(NOT_FOUND, None, nodes)
    return EquivalenceResult(FOUND, witness, nodes)
