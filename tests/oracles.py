"""Independent references used as test oracles.

Nothing here goes through the library's code paths.  The brute-force
oracles evaluate functions monomial by monomial at explicit points and
take distances by XOR + popcount against explicitly enumerated codeword
tables.  ``row_layout_coset_nl`` is the coset scan in its earlier
layout, one row per coset, with its own sign tables and its own Walsh
butterflies.  ``derivative_walsh_keys`` and ``third_derivative_weights``
build the equivalence-search invariants by explicit gathers and a
Hadamard matrix product, without the library's transform.
``sorted_row_labels`` is the equivalence search's earlier class
labelling: sorted third-derivative rows and per-plane histograms, each
labelled by a void-row ``np.unique``.  ``brute_automorphisms`` tries
every map of AGL(n, 2) with its own subset-sum ANF transform.
``numpy_is_invertible`` is the earlier element-wise GF(2) elimination.
``int16_coset_nl`` is the scan's previous block kernel, a direct int16
sign block of ``2**n`` points per coset (128 at n=7); it shares only
``core.fwht_rows``, which ``test_core`` checks against a Hadamard
matrix product.  ``profile_first_search`` is the one exception: it
is the equivalence search with the coset profiles compared before the
backtracking, as the search once did, so it ends in the library's
``equivalence_search``; its own checks use the oracles above.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from rm2cover.affine import NOT_FOUND, equivalence_search
from rm2cover.core import fwht_rows


def eval_anf_pointwise(monomials, n: int) -> list[int]:
    """Evaluate a set of monomials (tuples of variable indices) at all
    points, index = sum x_i 2^(i-1)."""
    out = []
    for point in range(1 << n):
        xs = [(point >> i) & 1 for i in range(n)]
        value = 0
        for mono in monomials:
            term = 1
            for v in mono:
                term &= xs[v - 1]
            value ^= term
        out.append(value)
    return out


def affine_tables(n: int) -> np.ndarray:
    """All 2^(n+1) affine truth tables, one per row."""
    rows = []
    for mask in range(1 << n):
        for const in (0, 1):
            row = []
            for point in range(1 << n):
                dot = bin(mask & point).count("1") & 1
                row.append(dot ^ const)
            rows.append(row)
    return np.array(rows, dtype=np.uint8)


def brute_nonlinearity(bits: np.ndarray, n: int) -> int:
    tables = affine_tables(n)
    return int((tables ^ np.asarray(bits, dtype=np.uint8)[None, :]).sum(axis=1).min())


def rm2_basis(n: int) -> np.ndarray:
    """Truth tables of 1, x1..xn and all x_i x_j: a basis of the degree-<=2 code."""
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    rows = [np.ones(size, dtype=np.uint8)]
    for i in range(1, n + 1):
        rows.append(((idx >> (i - 1)) & 1).astype(np.uint8))
    for i, j in combinations(range(1, n + 1), 2):
        xi = (idx >> (i - 1)) & 1
        xj = (idx >> (j - 1)) & 1
        rows.append((xi & xj).astype(np.uint8))
    return np.array(rows, dtype=np.uint8)


def span_tables(basis: np.ndarray) -> np.ndarray:
    """All XOR combinations of the given rows (doubling construction)."""
    out = np.zeros((1 << len(basis), basis.shape[1]), dtype=np.uint8)
    for p in range(len(basis)):
        half = 1 << p
        out[half : 2 * half] = out[:half] ^ basis[p]
    return out


def brute_second_order_nl(bits: np.ndarray, n: int) -> int:
    """Min distance to every degree-<=2 codeword by direct enumeration."""
    basis = rm2_basis(n)
    k = len(basis)
    lowk = min(k, 11)
    low = span_tables(basis[:lowk])
    high = span_tables(basis[lowk:])
    f = np.asarray(bits, dtype=np.uint8)
    best = 1 << n
    for h in range(high.shape[0]):
        d = int(((f ^ high[h])[None, :] ^ low).sum(axis=1).min())
        if d < best:
            best = d
    return best


def brute_nfh_profile(bits: np.ndarray, n: int) -> dict[int, int]:
    """Coset profile {r: number of homogeneous quadratic forms q with nl(f+q) = r}.

    The 2^(n(n-1)/2) forms are spanned from the explicit x_i x_j tables,
    and each nl(f+q) is the XOR + popcount minimum over every affine
    table; forms go through in chunks to bound memory.
    """
    chunk = 512
    forms = span_tables(rm2_basis(n)[n + 1 :])
    affine = affine_tables(n)
    f = np.asarray(bits, dtype=np.uint8)
    counts = Counter()
    for start in range(0, len(forms), chunk):
        cosets = forms[start : start + chunk] ^ f[None, :]
        dist = (cosets[:, None, :] ^ affine[None, :, :]).sum(axis=2, dtype=np.int64).min(axis=1)
        counts.update(dist.tolist())
    return dict(counts)


def row_layout_coset_nl(bits: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """nl(f + q) for the quadratic indices in [start, stop), as uint8.

    Blocks of 2048 consecutive indices (fewer for n <= 5) are built as
    ``(cosets, 2**n)`` sign arrays, one row per coset, and transformed
    along the rows.  Bit p of an index selects the p-th variable pair in
    lexicographic order, as in the library.
    """
    pairs = rm2_basis(n)[n + 1 :]
    low_bits = min(len(pairs), 11)
    chi_low = 1 - 2 * span_tables(pairs[:low_bits]).astype(np.int16)
    chi_high = 1 - 2 * span_tables(pairs[low_bits:]).astype(np.int16)
    chi_f = 1 - 2 * np.asarray(bits, dtype=np.int16)
    width, block = 1 << n, 1 << low_bits
    out = []
    for lo0 in range(start - start % block, stop, block):
        w = (chi_f * chi_high[lo0 >> low_bits])[None, :] * chi_low
        h = 1
        while h < width:
            b = w.reshape(w.shape[0], -1, 2, h)
            x = b[:, :, 0, :].copy()
            y = b[:, :, 1, :].copy()
            b[:, :, 0, :] = x + y
            b[:, :, 1, :] = x - y
            h *= 2
        vals = (width >> 1) - np.abs(w).max(axis=1) // 2
        out.append(vals[max(start - lo0, 0) : stop - lo0])
    return np.concatenate([np.empty(0, dtype=np.int64), *out]).astype(np.uint8)


def _block_nl(chi_f: np.ndarray, chi_high_row: np.ndarray, chi_low: np.ndarray, half: int) -> np.ndarray:
    """nl(f + q) for one block: column k of the int16 spectrum block is coset k."""
    w = ((chi_f * chi_high_row)[:, None] * chi_low).astype(np.int16)
    fwht_rows(w)
    np.abs(w, out=w)
    return (half - (w.max(axis=0) >> 1)).astype(np.uint8)


def int16_coset_nl(bits: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """nl(f + q) for the quadratic indices in [start, stop) by the previous
    kernel: each block of 2048 consecutive indices (fewer for n <= 5) is a
    ``(2**n, 2048)`` sign block, coset axis innermost, copied to int16
    and transformed whole, also at n = 7."""
    pairs = rm2_basis(n)[n + 1 :]
    low_bits = min(len(pairs), 11)
    chi_low = np.ascontiguousarray((1 - 2 * span_tables(pairs[:low_bits]).astype(np.int8)).T)
    chi_high = 1 - 2 * span_tables(pairs[low_bits:]).astype(np.int8)
    chi_f = 1 - 2 * np.asarray(bits, dtype=np.int8)
    block = 1 << low_bits
    out = [
        _block_nl(chi_f, chi_high[lo0 >> low_bits], chi_low, 1 << (n - 1))[max(start - lo0, 0) : stop - lo0]
        for lo0 in range(start - start % block, stop, block)
    ]
    return np.concatenate([np.empty(0, dtype=np.uint8), *out])


def derivative_walsh_keys(bits: np.ndarray, n: int) -> np.ndarray:
    """Row a: the sorted |Walsh| values of x -> f(x) + f(x+a).

    The spectrum is a product with the explicit +-1 Hadamard matrix
    (-1)^(u.x), one derivative at a time.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    idx = np.arange(1 << n, dtype=np.uint32)
    parity = np.array([[bin(int(u) & int(x)).count("1") & 1 for x in idx] for u in idx])
    hadamard = 1 - 2 * parity
    keys = []
    for a in range(1 << n):
        der = bits ^ bits[idx ^ a]
        keys.append(np.sort(np.abs(hadamard @ (1 - 2 * der.astype(np.int64)))))
    return np.array(keys)


def third_derivative_weights(bits: np.ndarray, n: int) -> np.ndarray:
    """T[a, b, c] = Hamming weight of the order-3 derivative along (a, b, c),
    gathered through explicit XOR index tables."""
    bits = np.asarray(bits, dtype=np.uint8)
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    xor_table = idx[:, None] ^ idx[None, :]
    t = np.zeros((size, size, size), dtype=np.uint8)
    for a in range(1, size):
        da = bits ^ bits[idx ^ a]
        second = da[xor_table] ^ da[None, :]  # row b: derivative along (a, b)
        t[a] = (second[:, xor_table] ^ second[:, None, :]).sum(axis=2, dtype=np.uint8)
    return t


def _void_labels(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    return np.unique(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel(), return_inverse=True)[1]


def sorted_row_labels(w1, t1, w2, t2):
    """``(cls1, cls2, pair1, pair2)`` as the search labelled them before
    counting: a direction's row is its spectrum row followed by the
    ``size + 1``-bin histogram of ``t[a]``, a pair's row is ``t[a, b]``
    sorted, and equal rows on either side share a label."""
    size = len(t1)
    directions = np.concatenate(
        [np.hstack([w, [np.bincount(plane.ravel(), minlength=size + 1) for plane in t]]) for w, t in ((w1, t1), (w2, t2))]
    )
    pairs = np.concatenate([np.sort(t, axis=2).reshape(-1, size) for t in (t1, t2)])
    cls, pair = _void_labels(directions), _void_labels(pairs).reshape(2, size, size)
    return cls[:size], cls[size:], pair[0], pair[1]


@lru_cache(maxsize=None)
def _search_invariants(bits: bytes, n: int) -> tuple[int, list, list]:
    """The degree of the degree->=3 part (ANF by the subset-sum matrix),
    the sorted derivative spectra of the directions a != 0 and the coset
    profile (row-layout scan) of the table packed in ``bits``."""
    table = np.frombuffer(bits, dtype=np.uint8)
    u = np.arange(1 << n)
    subset = ((u[:, None] & u) == u[:, None]).astype(np.int64)  # subset[y, u]: y is a subset of u
    popcount = np.array([bin(int(a)).count("1") for a in u])
    anf = (table.astype(np.int64) @ subset) & 1
    deep = int((popcount * anf)[popcount > 2].max(initial=0))
    spectra = sorted(derivative_walsh_keys(table, n)[1:].tolist())
    profile = np.bincount(row_layout_coset_nl(table, n, 0, 1 << (n * (n - 1) // 2))).tolist()
    return deep, spectra, profile


def profile_first_search(f1, f2, budget: int) -> tuple:
    """``(status, reason, nodes, witness JSON)`` of the equivalence search
    with the coset profiles compared right after the degree->=3 parts
    and the derivative spectra, before any backtracking: a mismatch
    there is NOT_FOUND at 0 nodes, and every other pair ends as
    ``equivalence_search`` ends it."""
    (deep1, spectra1, profile1), (deep2, spectra2, profile2) = (
        _search_invariants(f.bits.tobytes(), f.n) for f in (f1, f2)
    )
    if deep1 == deep2 != 0 and spectra1 == spectra2 and profile1 != profile2:
        return NOT_FOUND, "coset-nonlinearity profile mismatch", 0, None
    result = equivalence_search(f1, f2, budget=budget)
    return result.status, result.reason, result.nodes, result.witness and result.witness.as_json_dict()


def brute_automorphisms(bits: np.ndarray, n: int) -> list[tuple[bytes, int]]:
    """Every (A, b) with f(Ax + b) + f(x) of degree <= 2, as
    ``(A.tobytes(), b)`` with A a uint8 matrix and bit i of b its entry
    i, by trying all of AGL(n, 2) (322,560 maps at n = 4).  A is
    invertible exactly when it maps the 2^n points to 2^n distinct
    points; the ANF comes from the subset-sum matrix [y subset of u]."""
    size = 1 << n
    codes = np.arange(1 << (n * n))
    mats = ((codes[:, None] >> np.arange(n * n)) & 1).astype(np.uint8).reshape(-1, n, n)
    points = (np.arange(size)[:, None] >> np.arange(n)) & 1  # points[p, j]: bit j of point p
    images = ((np.einsum("mij,pj->mpi", mats, points) & 1) << np.arange(n)).sum(axis=2)
    invertible = (np.sort(images, axis=1) == np.arange(size)).all(axis=1)
    mats, images = mats[invertible], images[invertible]
    u = np.arange(size)
    subset = ((u[:, None] & u) == u[:, None]).astype(np.uint8)  # subset[y, u]: y is a subset of u
    deep = np.array([bin(int(a)).count("1") > 2 for a in u])
    bits = np.asarray(bits, dtype=np.uint8)
    found = []
    for b in range(size):
        diffs = bits[images ^ b] ^ bits
        anf = (diffs @ subset) & 1
        for m in np.flatnonzero(~anf[:, deep].any(axis=1)):
            found.append((mats[m].tobytes(), b))
    return found


def brute_second_order_nl_batch(tables: np.ndarray, n: int) -> np.ndarray:
    """Vectorised version for many small-n tables at once (n <= 4)."""
    codewords = span_tables(rm2_basis(n))
    best = np.full(tables.shape[0], 1 << n, dtype=np.int64)
    for c in codewords:
        d = (tables ^ c[None, :]).sum(axis=1, dtype=np.int64)
        np.minimum(best, d, out=best)
    return best


def numpy_is_invertible(matrix) -> bool:
    """GF(2) rank test by Gaussian elimination on a numpy bit array, one
    element at a time."""
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


def gl2_order_fraction(n: int) -> float:
    """Probability that a uniform n x n bit matrix is invertible."""
    p = 1.0
    for k in range(1, n + 1):
        p *= 1.0 - 2.0**-k
    return p


def random_tables(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=(count, 1 << n), dtype=np.uint8)


def all_points(n: int):
    return product((0, 1), repeat=n)
