"""Invertible affine maps over GF(2)^n and equivalence testing modulo
functions of degree at most 2.

Two functions f1, f2 are considered equivalent when
``f2 = f1(Ax + b) + g`` for an invertible matrix A, a translation b and
some g of degree <= 2.  The search enumerates candidate column images of
A with backtracking.  It prunes with invariants that this equivalence
preserves direction for direction: the squared Walsh spectrum of each
derivative D_a f and the weights of all third derivatives D_a D_b D_c f.
Both come from Walsh transforms of the whole ``[x, a, b]`` tensor of
second-derivative signs (256 KB of int8 at n = 6) through the
Wiener-Khinchin identity (spectrum squared = transform of the
autocorrelation).  Directions and pairs of directions are classed by
how often each third-derivative weight occurs along them, and each depth
of the backtracking checks the classes of all its candidates in one
gather.  One recursive generator yields the verified witnesses in a
fixed order: ``equivalence_search`` keeps the first, and
``automorphisms`` takes them all.  The coset-nonlinearity profiles, one
full scan of f2, are compared last, only when no witness was found: a
witness implies equal profiles, so a found pair never scans f2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import quadratic
from .core import AnfPolynomial, MAX_VARS, TruthTable, anf_from_truth_table, degree, fwht_rows, truth_table_from_anf
from .core import _anf_from_coefficients, _bit_array, _check_n, _moebius, _monomial_degrees, _points, _row_ints

DEFAULT_SEARCH_BUDGET = 10**8

FOUND = "found"
NOT_FOUND = "not-found"
BUDGET_EXHAUSTED = "budget-exhausted"


def is_invertible(matrix) -> bool:
    """GF(2) rank test: row elimination on rows packed into ints, each
    reduced by the rows kept so far until its leading bit is new."""
    m = _bit_array(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    leading = {}  # bit length -> the reduced row that has it
    for r in _row_ints(m).tolist():
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
        _check_n(self.n)
        # own copies, so freezing them leaves the caller's arrays writable
        a, b = _bit_array(self.matrix, "matrix").copy(), _bit_array(self.offset, "offset").copy()
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
        *rows, b = (format(r, "x") for r in _row_ints(np.vstack([self.matrix, self.offset])).tolist())
        return {"A": rows, "b": b}


def random_affine_map(n: int, seed: int) -> AffineMap:
    """Uniform invertible A (rejection sampling) and uniform b, per seed."""
    return sample_affine_map(n, np.random.default_rng(seed))


def sample_affine_map(n: int, rng: np.random.Generator) -> AffineMap:
    _check_n(n)
    while True:
        a = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if is_invertible(a):
            return _unchecked_map(n, a, rng.integers(0, 2, size=n, dtype=np.uint8))


def _unchecked_map(n: int, matrix: np.ndarray, offset: np.ndarray) -> AffineMap:
    """AffineMap without the checks, for a contiguous uint8 0/1 invertible
    matrix and offset; sets both read-only, as the constructor does."""
    matrix.setflags(write=False)
    offset.setflags(write=False)
    m = object.__new__(AffineMap)
    m.__dict__.update(n=n, matrix=matrix, offset=offset)
    return m


def apply_affine(f: TruthTable, m: AffineMap) -> TruthTable:
    """Pointwise composition g(x) = f(Ax + b)."""
    if m.n != f.n:
        raise ValueError(f"variable count mismatch: map n={m.n}, table n={f.n}")
    return TruthTable(f.n, f.bits[_row_ints((_points(f.n) @ m.matrix.T + m.offset) & 1)])


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


def _checked(witness: EquivalenceWitness, f1: TruthTable, f2: TruthTable) -> EquivalenceWitness:
    """witness, once it maps f1 to f2; the check is explicit, so it also
    runs under python -O."""
    if witness.substitute(f1) != f2:
        raise RuntimeError(f"equivalence witness fails its own check: {witness.as_json_dict()}")
    return witness


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
    is 2^n (2^n - 2 t[a, b, c]) at ``[c, a, b]``.  The tensor is built
    from whole rows: D_a D_b f(x) = D_b f(x + a) + D_b f(x), so its
    ``[x, a]`` row is the product of rows x + a and x of the ``[x, b]``
    signs of D_b f.  The first transform, of +-1 entries over at most 64
    points, is exact in int8; the squares and the later transforms are
    exact in int16 for n <= 6: by Parseval no partial sum exceeds 2^(2n).
    """
    n = f.n
    size = 1 << n
    idx = np.arange(size)
    xor = idx[:, None] ^ idx
    s = 1 - 2 * f.bits.astype(np.int8)
    d = s[:, None] * s[xor]  # d[x, a]: sign of D_a f(x)
    g = d[xor]
    g *= d[:, None, :]  # g[x, a, b]: sign of D_a D_b f(x)
    fwht_rows(g)
    spec = np.ascontiguousarray(g[0].T, dtype=np.int16)
    fwht_rows(spec)
    c = np.square(g, dtype=np.int16)
    fwht_rows(c)
    np.subtract(size * size, c, out=c)
    c >>= n + 1
    return np.sort(spec.T, axis=1), c.astype(np.uint8)


def _value_counts(t1: np.ndarray, t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``h[i, a, b]``, the number of c with ``t[a, b, c] = V[i]``, for each
    side, where V holds the values present in t1 or t2 but the largest.

    Every row ``t[a, b]`` has ``len(t)`` entries, so the count of the
    largest value follows from the others, and two rows, on either side,
    have equal counts exactly when they are equal as multisets.  V is
    found one value at a time: in uint8, ``t - (v + 1)`` wraps every entry
    up to v above every entry beyond it, so its minimum marks the next
    value present.  t is symmetric, so the counts run along its first
    axis, where numpy adds whole contiguous planes.
    """
    values = []
    v, top = min(t1.min(), t2.min()), max(t1.max(), t2.max())
    while v < top:
        values.append(v)
        step = np.uint8(v + 1)
        v = step + min((t1 - step).min(), (t2 - step).min())
    return tuple(np.array([(t == v).sum(axis=0, dtype=np.uint8) for v in values]) for t in (t1, t2))


def _shared_labels(rows1: np.ndarray, rows2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer labels for the rows of two 2-D arrays of one dtype: equal
    rows, on either side, share a label."""
    rows = np.ascontiguousarray(np.concatenate([rows1, rows2]))
    _, labels = np.unique(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel(), return_inverse=True)
    return labels[: len(rows1)], labels[len(rows1) :]


def _class_labels(
    w1: np.ndarray, t1: np.ndarray, w2: np.ndarray, t2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cls1, cls2, pair1, pair2)``, labels shared by the invariants of
    two functions: directions a, on either side, share a label exactly
    when their rows ``w2[a]`` and the histograms of ``t[a]`` agree, and
    pairs (a, b) exactly when the histograms of ``t[a, b]`` agree.

    A row of ``_value_counts`` stands for a histogram.  A direction's
    counts (at most 4096) fit the spectrum's int16.  A pair's label is its
    counts read as digits in base ``size + 1``.  That fits in int64:
    D_a D_b D_c f is invariant under translation by a, b and c, and zero
    unless they are independent (D_a D_b f is invariant under a + b), so
    every weight is a multiple of 8 and there are at most ``size / 8``
    counts per pair, below 65^8 at n = 6.
    """
    h1, h2 = _value_counts(t1, t2)
    cls1, cls2 = _shared_labels(*(np.hstack([w, h.sum(axis=1, dtype=np.int16).T]) for w, h in ((w1, h1), (w2, h2))))
    place = (len(t1) + 1) ** np.arange(len(h1), dtype=np.int64)
    pair1, pair2 = (np.tensordot(place, h, axes=1) for h in (h1, h2))
    return cls1, cls2, pair1, pair2


def _witnesses(f1: TruthTable, f2: TruthTable, inv1, inv2, budget: float, nodes: list[int]) -> Iterator[EquivalenceWitness]:
    """Every verified witness (A, b, g) of f2 = f1(Ax+b) + g, deg(g) <= 2,
    for two functions of equal, nonzero degree->=3 part and equal
    derivative spectra (their ``_derivative_invariants`` inv1 and inv2),
    in a fixed order (ascending column index, ascending candidate value,
    ascending translation).  Raises ``_BudgetExceeded`` when
    ``nodes[0]``, the count of visited nodes, passes ``budget``.
    """
    n = f1.n
    deep = _monomial_degrees(n) > 2
    (w1, t1), (w2, t2) = inv1, inv2

    # refine per-direction and per-pair classes with derivative-cube
    # marginals (the remaining arguments range over everything, so a
    # witness bijection preserves these histograms); a class or pair
    # label that differs prunes every candidate below
    cls1, cls2, pair1, pair2 = _class_labels(w1, t1, w2, t2)

    # candidates[d]: images of basis vector d, the directions of f1 in the class of f2's direction 2**d
    candidates = [np.flatnonzero(cls1[1:] == cls2[1 << d]) + 1 for d in range(n)]

    points = np.arange(1 << n)

    def bump() -> None:
        nodes[0] += 1
        if nodes[0] > budget:
            raise _BudgetExceeded

    def witnesses(depth: int, img: np.ndarray) -> Iterator[EquivalenceWitness]:
        # img[j] is the image of direction j < 2**depth; directions
        # 2**depth + j map to img[j] ^ cand.  pair and t are symmetric,
        # so matching the new rows against every direction so far
        # checks every constraint among the first 2**(depth+1) directions
        if depth == n:
            # img is x -> Ax, whose column i is img[2**i]; row b of diffs
            # is f1(Ax + b) + f2(x), and one transform gives the ANF of
            # every row: g where its degree->=3 part is zero
            coeffs = _moebius(f1.bits[img ^ points[:, None]] ^ f2.bits)
            too_deep = coeffs[:, deep].any(axis=1).tolist()
            a = _points(n)[img[1 << np.arange(n)]].T.copy()  # column i: the bits of img[2**i]
            for b, row in enumerate(coeffs):
                bump()
                if too_deep[b]:
                    continue
                m = _unchecked_map(n, a, _points(n)[b].copy())
                yield _checked(EquivalenceWitness(m, _anf_from_coefficients(n, row)), f1, f2)
            return
        new = slice(1 << depth, 2 << depth)
        full = slice(0, 2 << depth)
        cls_new, pair_new, cube_new = cls2[new], pair2[new, full], t2[new, full, full]
        cands = candidates[depth]
        # the class and pair checks of every candidate in one gather; row k
        # of imgs_new holds the new images under cands[k], and a zero in it
        # means cands[k] is already in img
        imgs_new = img ^ cands[:, None]
        imgs_full = np.hstack([np.broadcast_to(img, imgs_new.shape), imgs_new])
        passed = (cls1[imgs_new] == cls_new).all(axis=1)
        tried = np.flatnonzero(passed)
        passed[tried] = (pair1[imgs_new[tried, :, None], imgs_full[tried, None, :]] == pair_new).all(axis=(1, 2))
        for cand, fresh, ok in zip(cands.tolist(), imgs_new.all(axis=1).tolist(), passed.tolist()):
            if not fresh:
                continue
            bump()
            if not ok:
                continue
            img_new = img ^ cand
            img_full = np.concatenate([img, img_new])
            # the cube check, one survivor at a time; chained row gathers
            # are several times faster here than one np.ix_ gather
            if not np.array_equal(t1[img_new][:, img_full][:, :, img_full], cube_new):
                continue
            yield from witnesses(depth + 1, img_full)

    try:
        yield from witnesses(0, np.zeros(1, dtype=np.intp))
    finally:
        # witnesses refers to itself, a reference cycle that would keep
        # t1 and t2 alive until the next cyclic garbage collection
        del witnesses


def equivalence_search(f1: TruthTable, f2: TruthTable, budget: int = DEFAULT_SEARCH_BUDGET) -> EquivalenceResult:
    """Search for (A, b, g) with f2 = f1(Ax+b) + g and deg(g) <= 2.

    Returns FOUND with a verified witness, NOT_FOUND only when the
    pruned backtracking was exhausted (or an equivalence invariant
    already differs), and BUDGET_EXHAUSTED when the node budget ran out
    first.  The witness is the first that ``_witnesses`` yields.

    Checks run in order: degree->=3 part, derivative spectra, the
    backtracking and, only when it ends without a witness, the coset
    profiles.  A profile mismatch then returns what checking it first
    would (NOT_FOUND, 0 nodes), after at most ``budget`` nodes.
    """
    if f1.n != f2.n:
        raise ValueError(f"variable count mismatch: {f1.n} vs {f2.n}")
    if f1.n >= MAX_VARS:
        raise ValueError("equivalence search supports n <= 6")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    degree1, degree2 = (max(degree(f), 2) for f in (f1, f2))
    if degree1 != degree2:
        return EquivalenceResult(NOT_FOUND, None, 0, reason="degree mismatch of the degree->=3 part")
    if degree1 == 2:
        # both functions are within degree 2 of each other
        witness = EquivalenceWitness(AffineMap.identity(f1.n), anf_from_truth_table(f1 ^ f2))
        return EquivalenceResult(FOUND, _checked(witness, f1, f2), 0)
    inv1, inv2 = _derivative_invariants(f1), _derivative_invariants(f2)
    if sorted(inv1[0][1:].tolist()) != sorted(inv2[0][1:].tolist()):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="derivative-spectrum multiset mismatch")
    nodes = [0]
    search = _witnesses(f1, f2, inv1, inv2, budget, nodes)
    try:
        witness = next(search, None)
        status = NOT_FOUND if witness is None else FOUND
    except _BudgetExceeded:
        witness, status = None, BUDGET_EXHAUSTED
    finally:
        search.close()
    # f1 is the side that repeats across calls, so only its coset values
    # go into the shared cache
    if witness is None and not np.array_equal(
        np.bincount(quadratic.coset_values(f1)), np.bincount(quadratic.coset_nonlinearities(f2))
    ):
        return EquivalenceResult(NOT_FOUND, None, 0, reason="coset-nonlinearity profile mismatch")
    return EquivalenceResult(status, witness, nodes[0])


def automorphisms(f: TruthTable) -> Iterator[EquivalenceWitness]:
    """Every (A, b, g) with f = f(Ax+b) + g and deg(g) <= 2, in the order
    of ``equivalence_search``, without a node budget.

    f must have a degree->=3 part: otherwise every affine map qualifies.
    """
    if f.n >= MAX_VARS:
        raise ValueError("equivalence search supports n <= 6")
    if degree(f) <= 2:
        raise ValueError("f has degree <= 2, so every affine map is an automorphism")
    inv = _derivative_invariants(f)
    return _witnesses(f, f, inv, inv, math.inf, [0])

