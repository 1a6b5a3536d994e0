"""Invertible affine maps over GF(2)^n and equivalence testing modulo
functions of degree at most 2.

Two functions f1, f2 are considered equivalent when
``f2 = f1(Ax + b) + g`` for an invertible matrix A, a translation b and
some g of degree <= 2.  The search enumerates candidate column images of
A with backtracking.  It prunes with invariants that this equivalence
preserves direction for direction: the squared Walsh spectrum of each
derivative D_a f and the weights of all third derivatives D_a D_b D_c f.
Both come from Walsh transforms of the whole ``[x, a, b]`` tensor of
second-derivative signs (512 KB at n = 6) through the Wiener-Khinchin
identity (spectrum squared = transform of the autocorrelation).  One
recursive generator yields the verified witnesses in a fixed order, and
the search keeps the first.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import quadratic
from .core import AnfPolynomial, MAX_VARS, TruthTable, _moebius, anf_from_truth_table, fwht_rows, truth_table_from_anf

DEFAULT_SEARCH_BUDGET = 10**8

FOUND = "found"
NOT_FOUND = "not-found"
BUDGET_EXHAUSTED = "budget-exhausted"


def is_invertible(matrix) -> bool:
    """GF(2) rank test: row elimination on rows packed into ints, each
    reduced by the rows kept so far until its leading bit is new."""
    m = np.array(matrix, dtype=np.uint8) & 1
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    leading = {}  # bit length -> the reduced row that has it
    for row in np.packbits(m, axis=1, bitorder="little").tolist():
        r = int.from_bytes(bytes(row), "little")
        while r and r.bit_length() in leading:
            r ^= leading[r.bit_length()]
        if not r:
            return False
        leading[r.bit_length()] = r
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
    bit = np.arange(f.n)
    x = (np.arange(1 << f.n)[:, None] >> bit) & 1  # x[i, v]: bit v of table index i
    y = (x @ m.matrix.T + m.offset) & 1
    return TruthTable(f.n, f.bits[y @ (1 << bit)])


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


def _derivative_invariants(f: TruthTable) -> tuple[np.ndarray, np.ndarray]:
    """``(w2, t)``: row a of ``w2`` is the sorted squared Walsh spectrum of
    D_a f(x) = f(x) + f(x + a), and ``t[a, b, c]`` is the weight of
    D_a D_b D_c f (symmetric, zero wherever an argument repeats).

    An invertible affine substitution permutes the directions, and a
    degree-<=2 addition changes each D_a f by an affine function and no
    third derivative, so a witness map A has ``w2_2[a] = w2_1[Aa]`` and
    ``t2[a, b, c] = t1[Aa, Ab, Ac]``.

    Both come from the signs of D_a D_b f(x) as an ``[x, a, b]`` tensor
    and the Wiener-Khinchin identity: transformed along x, its u = 0
    slice is the autocorrelation of D_a f at b, whose transform along b
    is the squared spectrum of D_a f; squared and transformed again, it
    is 2^n (2^n - 2 t[a, b, c]) at ``[c, a, b]``.  int16 is exact for
    n <= 6: by Parseval no partial sum exceeds 2^(2n).
    """
    n = f.n
    size = 1 << n
    idx = np.arange(size)
    xor = idx[:, None] ^ idx
    s = 1 - 2 * f.bits.astype(np.int16)
    d = s[:, None] * s[xor]  # d[x, a]: sign of D_a f(x)
    g = d[:, :, None] * d[xor[:, None, :], idx[:, None]]  # g[x, a, b]: sign of D_a D_b f(x)
    fwht_rows(g)
    spec = np.ascontiguousarray(g[0].T)
    fwht_rows(spec)
    g *= g
    fwht_rows(g)
    np.subtract(size * size, g, out=g)
    g >>= n + 1
    return np.sort(spec.T, axis=1), g.astype(np.uint8)


def _shared_labels(rows1: np.ndarray, rows2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer labels for the rows of two 2-D arrays of one dtype: equal
    rows, on either side, share a label."""
    rows = np.concatenate([rows1, rows2])
    _, labels = np.unique(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel(), return_inverse=True)
    return labels[: len(rows1)], labels[len(rows1) :]


def _direction_rows(w2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row a: the spectrum row ``w2[a]`` followed by the histogram of ``t[a]``."""
    return np.hstack([w2, [np.bincount(plane.ravel(), minlength=len(t) + 1) for plane in t]])


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
    first.  One recursive generator yields every verified witness in a
    fixed order (ascending column index, ascending candidate value,
    ascending translation), and the search returns the first.
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
    w1, t1 = _derivative_invariants(f1)
    w2, t2 = _derivative_invariants(f2)
    if sorted(w1[1:].tolist()) != sorted(w2[1:].tolist()):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-spectrum multiset mismatch")

    # f1 is the side that repeats across calls, so only its coset values
    # go into the shared cache
    if not np.array_equal(
        np.bincount(quadratic.coset_values(f1)), np.bincount(quadratic.coset_nonlinearities(f2))
    ):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="coset-nonlinearity profile mismatch")

    # refine per-direction and per-pair classes with derivative-cube
    # marginals (the remaining arguments range over everything, so a
    # witness bijection preserves these histograms); a sorted row of t
    # stands for its histogram
    cls1, cls2 = _shared_labels(_direction_rows(w1, t1), _direction_rows(w2, t2))
    pair1, pair2 = (
        labels.reshape(size, size)
        for labels in _shared_labels(*(np.sort(t, axis=2).reshape(-1, size) for t in (t1, t2)))
    )
    if sorted(cls1[1:].tolist()) != sorted(cls2[1:].tolist()):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-class multiset mismatch")
    if not np.array_equal(np.sort(pair1, axis=None), np.sort(pair2, axis=None)):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-pair-class multiset mismatch")

    # candidate images of basis vectors, grouped by derivative class
    candidates_by_class: dict[int, list[int]] = {}
    for a in range(1, size):
        candidates_by_class.setdefault(int(cls1[a]), []).append(a)

    deep = np.array([a.bit_count() > 2 for a in range(size)])  # monomials of degree >= 3
    bit = np.arange(n)

    nodes = 0

    def bump() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded

    def witnesses(depth: int, img: np.ndarray) -> Iterator[EquivalenceWitness]:
        # img[j] is the image of direction j < 2**depth; directions
        # 2**depth + j map to img[j] ^ cand.  pair and t are symmetric,
        # so matching the new rows against every direction so far
        # checks every constraint among the first 2**(depth+1) directions
        if depth == n:
            # img is x -> Ax, whose column i is img[2**i]
            for b in range(size):
                bump()
                diff = f1.bits[img ^ b] ^ f2.bits
                if _moebius(diff)[deep].any():
                    continue
                a = (img[1 << bit] >> bit[:, None]) & 1
                g = anf_from_truth_table(TruthTable(n, diff))
                witness = EquivalenceWitness(AffineMap(n, a, (b >> bit) & 1), g)
                if witness.substitute(f1) != f2:
                    raise RuntimeError(f"equivalence witness fails its own check: {witness.as_json_dict()}")
                yield witness
            return
        new = slice(1 << depth, 2 << depth)
        full = slice(0, 2 << depth)
        cls_new, pair_new, cube_new = cls2[new], pair2[new, full], t2[new, full, full]
        for cand in candidates_by_class.get(int(cls_new[0]), ()):
            if cand in img:
                continue
            bump()
            img_new = img ^ cand
            if not np.array_equal(cls1[img_new], cls_new):
                continue
            img_full = np.concatenate([img, img_new])
            if not np.array_equal(pair1[np.ix_(img_new, img_full)], pair_new):
                continue
            if not np.array_equal(t1[np.ix_(img_new, img_full, img_full)], cube_new):
                continue
            yield from witnesses(depth + 1, img_full)

    try:
        witness = next(witnesses(0, np.zeros(1, dtype=np.intp)), None)
    except _BudgetExceeded:
        return EquivalenceResult(BUDGET_EXHAUSTED, None, nodes)
    finally:
        # witnesses refers to itself, a reference cycle that would keep
        # t1 and t2 alive until the next cyclic garbage collection
        del witnesses
    if witness is None:
        return EquivalenceResult(NOT_FOUND, None, nodes)
    return EquivalenceResult(FOUND, witness, nodes)
