"""Homogeneous quadratic forms and exact coset-nonlinearity scans.

The central object is the map ``index -> nl(f + q_index)`` where
``q_index`` ranges over all ``2**(n*(n-1)/2)`` homogeneous quadratic
forms.  Indexing is canonical: bit ``p`` of the index is the coefficient
of the p-th variable pair in lexicographic order
``(1,2),(1,3),...,(1,n),(2,3),...,(n-1,n)``.

From one scan everything else follows: the second-order nonlinearity is
the minimum, the per-value histogram is the coset-nonlinearity profile,
and the index sets at a fixed value are the level sets used in the
concatenation-bound checks.  :func:`coset_values` is that one full scan
per table: for the 256 most recently read tables of n <= 6 (at most
32 KB each, 8 MB in all) the cache keeps the read-only array together with
the table's :class:`NlProfile`; an n=7 table is scanned afresh at each
read and its 2 MB array is not kept.  Profiles, level sets, the maximum
and the condition-2 inclusions all read it.  Minimum scans and
``coset_nonlinearities`` scan afresh.  :func:`degree2_table` XORs the
cached monomial rows of its n; the scan's sign tables are XOR spans of
those rows (:func:`_xor_span`).  A table in the affine orbit
of f modulo degree 2, f(Ax + b) + q_k + l, needs no scan: its array is
f's permuted by :func:`form_map`, the XOR span of the pairs' images.

The minimum comes from the halves f = f1 || f2 on x_n = 0 and
x_n = 1.  A homogeneous quadratic in n variables is q + x_n * l with q
a quadratic in the first n - 1 variables and l linear, and the linear
part is absorbed by the affine functions on each half (the (u | u + v)
construction of Reed-Muller codes), so

    min over Q of nl(f + Q) = min over q of s[q],
    s[q] = nl(f1 + q) + nl(f2 + q).

One pass transforms both halves together, one range of q at a time:
at n = 7, 16 transforms of 2048 cosets of two 64-point halves instead
of one scan of 2**21 cosets of 128 points.  Threshold mode returns what
a direct block scan returns (see :func:`min_coset_nonlinearity`) in
three steps:

1. scan the whole blocks among the first ``form_count(n - 1)`` indices
   block by block (16 at n = 7 over 8 q-ranges, none at n <= 6), and
   return at the first block whose minimum is below the threshold;
2. otherwise, if ``min s`` (the pass above) is not below the
   threshold, it is the exact minimum;
3. otherwise scan on from the end of step 1, in index order, and
   return the first block minimum below the threshold; steps 1 and 3
   are one scan, so step 3 reuses the q-ranges step 1 transformed.

The scan is vectorised, and :func:`_spectra` alone builds and transforms
coset blocks: the signs of g + q for k tables g and up to 2048
consecutive indices, from two cached sign tables (low / high index
bits), as a ``(2**m, k, count)`` int8 array with the coset axis
innermost, so every stage of the in-place Walsh transform along axis 0
is one contiguous operation over whole rows of cosets.  Its input is
always the halves (k = 2).  ``min s`` is one reduction on top, and the
block scan, the one kernel for every n from 2 to 7, two more: a block's
2048 forms (all of them at n <= 5) are Q = q + x_n * l for consecutive
(n-1)-variable q and linear l (512 q and 4 l at n = 6 and 7), and

    nl(f + Q) = 2**(n-1) - max over u of (|W_(f1+q)(u)| + |W_(f2+q)(u ^ l)|) / 2,

so one transform of both halves serves every block of the same q-range
in a scan call.  No transform has more than 64 points, so every one
runs in int8 (partial sums lie in [-64, 64]).  One block iterator feeds
every other reduction (values, threshold blocks, maximum, histogram).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .core import AnfPolynomial, TruthTable, _bits_to_hex, _check_n, _points, _row_ints, fwht_rows, truth_table_from_anf

# Block size: 2**LOW_BITS cosets per block.  It is part of
# the results, not only of the speed: threshold mode returns the minimum
# of the first block below the threshold, so its upper bound
# (``SearchRecord.nl2_value``, ``rm2cover nl2 --threshold``) depends on
# where blocks end, also where the halves' minimum decides that no block
# exits.  Changing it changes those outputs.
_LOW_BITS = 11


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def variable_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Variable pairs (i, j), i < j, in index-bit order."""
    return tuple(itertools.combinations(range(1, n + 1), 2))


def form_count(n: int) -> int:
    return 1 << pair_count(n)


@dataclass(frozen=True)
class QuadraticForm:
    """One homogeneous quadratic form, identified by its canonical index."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0 <= self.index < form_count(self.n):
            raise ValueError(f"index {self.index} out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "QuadraticForm":
        pos = {pq: p for p, pq in enumerate(variable_pairs(n))}
        index = 0
        for i, j in pairs:
            if (bit := pos.get((min(i, j), max(i, j)))) is None:
                raise ValueError(f"pair ({i}, {j}) is not two distinct variables of 1..{n}")
            index ^= 1 << bit  # a pair listed twice cancels, as over GF(2)
        return cls(n, index)

    def coefficient_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = variable_pairs(self.n)
        return tuple(pairs[p] for p in range(len(pairs)) if (self.index >> p) & 1)

    def anf(self) -> AnfPolynomial:
        return AnfPolynomial(self.n, frozenset(frozenset(pq) for pq in self.coefficient_pairs()))

    def truth_table(self) -> TruthTable:
        return truth_table_from_anf(self.anf())


def form_map(matrix) -> np.ndarray:
    """S_A[p]: the index of the homogeneous quadratic part of q_p(Ax + b).

    Substituting x_i -> (row i of A) . x + b_i turns x_i x_j into
    sum over k < l of (A_ik A_jl + A_il A_jk) x_k x_l plus affine terms,
    so S_A is GF(2)-linear and does not depend on b; for invertible A it
    is a permutation.  Since nl is invariant under affine maps and under
    adding affine functions, a table h = f(Ax + b) + q_k + l has

        coset values of h at S_A[p] ^ k = coset values of f at p.
    """
    a = np.asarray(matrix, dtype=np.uint8) & 1
    n = len(a)
    rows, cols = np.triu_indices(n, 1)  # variable pairs in index-bit order, 0-based
    prod = a[rows][:, :, None] & a[cols][:, None, :]  # A_ik A_jl for every pair (i, j)
    coeff = prod[:, rows, cols] ^ prod[:, cols, rows]
    return _xor_span(_row_ints(coeff))


def _xor_span(rows: np.ndarray) -> np.ndarray:
    """All 2**len(rows) XOR combinations of rows (a 1-D int array or a
    2-D 0/1 array): entry k is the XOR of the rows at the set bits of k."""
    out = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    for p, row in enumerate(rows):
        out[1 << p : 2 << p] = out[: 1 << p] ^ row
    return out


@lru_cache(maxsize=None)
def _degree2_rows(n: int) -> np.ndarray:
    """Truth tables of the pair monomials x_i x_j in index-bit order, then
    of x_1 .. x_n, one row each."""
    var = _points(n).T  # var[v]: x_(v+1)
    rows, cols = np.triu_indices(n, 1)
    out = np.concatenate([var[rows] & var[cols], var])
    out.setflags(write=False)
    return out


def degree2_table(n: int, quad_index: int, linear_mask: int, constant: int = 0) -> TruthTable:
    """Truth table of q_quad_index + sum of x_(v+1) over set bits v of
    linear_mask + constant: the XOR of the selected monomial rows."""
    m = pair_count(n)
    if not (0 <= quad_index < 1 << m and 0 <= linear_mask < 1 << n and constant in (0, 1)):
        raise ValueError(f"index {quad_index}, linear mask {linear_mask} or constant {constant} out of range for n={n}")
    word = quad_index | linear_mask << m
    chosen = ((word >> np.arange(m + n)) & 1).astype(bool)
    return TruthTable(n, np.bitwise_xor.reduce(_degree2_rows(n)[chosen], axis=0) ^ np.uint8(constant))


@dataclass(frozen=True)
class NlProfile:
    """Histogram r -> number of quadratic forms q with nl(f + q) = r.

    ``counts`` is read-only: :func:`nfh_profile` hands every caller the
    one cached profile of a table of n <= 6.
    """

    n: int
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        counts = {int(r): int(c) for r, c in self.counts.items() if c}
        total = sum(counts.values())
        if total != form_count(self.n):
            raise ValueError(f"profile sums to {total}, expected {form_count(self.n)}")
        if self.n >= 3 and len({r & 1 for r in counts}) > 1:
            raise ValueError("profile mixes parities, which cannot happen for n >= 3")
        object.__setattr__(self, "counts", MappingProxyType(counts))

    def count(self, r: int) -> int:
        return self.counts.get(r, 0)

    @property
    def min_r(self) -> int:
        return min(self.counts)

    @property
    def max_r(self) -> int:
        return max(self.counts)

    def as_json_dict(self) -> dict:
        ordered = {str(r): self.counts[r] for r in sorted(self.counts)}
        return {"n": self.n, "counts": ordered, "sum": sum(self.counts.values())}

    def csv_rows(self) -> list[tuple[int, int]]:
        return [(r, self.counts[r]) for r in sorted(self.counts)]


@dataclass(frozen=True)
class FhSet:
    """Level set of quadratic-form indices q with nl(f + q) = r, as a bitset."""

    n: int
    r: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.mask, dtype=bool)
        if m.shape != (form_count(self.n),):
            raise ValueError("bitset length must be 2**(n*(n-1)/2)")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, index: int) -> bool:
        return bool(self.mask[index])

    def to_hex(self) -> str:
        """Bitset packed as an integer with bit k = membership of index k."""
        return _bits_to_hex(self.mask)


# --------------------------------------------------------------------------
# vectorised scan machinery


def _low_bits(n: int) -> int:
    """Index bits below a block boundary: each block holds 2**low_bits cosets."""
    return min(pair_count(n), _LOW_BITS)


@lru_cache(maxsize=None)
def _sign_tables(n: int):
    """Cached (chi_low, chi_high, low_bits) sign tables for n = 1 .. 6.

    chi_low[:, k] (a column) is the +-1 table of the quadratic whose index
    is k over the low index bits, so chi_low has shape
    ``(2**n, 2**low_bits)`` with the coset axis innermost.  chi_high[k]
    (a row) is the table of the quadratic whose index is k over the
    remaining bits: the XOR spans of :func:`_degree2_rows`' pair rows.
    """
    low_bits = _low_bits(n)
    monomials = _degree2_rows(n)[: pair_count(n)].view(np.int8)
    chi_low = 1 - 2 * _xor_span(monomials[:low_bits])
    return np.ascontiguousarray(chi_low.T), 1 - 2 * _xor_span(monomials[low_bits:]), low_bits


def _spectra(chi: np.ndarray, start: int, count: int) -> np.ndarray:
    """|W_(g+q)| for each column g of chi and the ``count`` forms q from
    index ``start``, as a ``(2**m, k, count)`` uint8 array.

    chi is a C-contiguous ``(2**m, k)`` int8 +-1 array of k tables of m
    variables; the range lies in one row of ``_sign_tables(m)``.  Every
    partial sum of a transform of at most 64 points lies in [-64, 64], so
    int8 holds it exactly; other dtypes and longer inputs raise ValueError.
    """
    if chi.dtype != np.int8 or chi.shape[0] > 64:
        raise ValueError(f"int8 transforms take at most 64 points, got {chi.shape[0]} of {chi.dtype}")
    chi_low, chi_high, low_bits = _sign_tables(chi.shape[0].bit_length() - 1)
    col = start & ((1 << low_bits) - 1)
    w = (chi * chi_high[start >> low_bits][:, None])[:, :, None] * chi_low[:, None, col : col + count]
    fwht_rows(w)
    np.abs(w, out=w)
    return w.view(np.uint8)


@lru_cache(maxsize=None)
def _halves_layout(n: int):
    """(offsets, q0, l0, q_span) for n-variable blocks built from the halves.

    A form index splits as Q = q + x_n * l: its bit of a pair (i, n) is
    bit i - 1 of the linear l, its other bits are those of q's
    (n-1)-variable index, in the same order.  The low index bits hold
    the pairs (1, n) .. (k, n) and a prefix of q's bits, so block ``hi``
    is the ``q_span`` consecutive q from ``q0[hi]`` times the 2**k l
    from ``l0[hi]``, and index ``(hi << low_bits) + j`` reads entry
    ``offsets[j]`` of the block's (2**k, q_span) values (row l ^ l0[hi],
    column q - q0[hi]).  The q and l parts of the low and high index
    bits are XOR spans of their weights.
    """
    low_bits = _low_bits(n)
    q_bit = {pq: p for p, pq in enumerate(variable_pairs(n - 1))}
    q_l = np.array([(0, 1 << (i - 1)) if j == n else (1 << q_bit[i, j], 0) for i, j in variable_pairs(n)])
    (q_low, l_low), (q0, l0) = _xor_span(q_l[:low_bits]).T, _xor_span(q_l[low_bits:]).T
    q_span = int(q_low.max()) + 1
    return l_low * q_span + q_low, q0, l0, q_span


def _halves_chi(f: TruthTable) -> np.ndarray:
    """The halves f = f1 || f2 as the columns of a C-contiguous
    ``(2**(n-1), 2)`` int8 +-1 array: the input of every coset scan."""
    if f.n < 2:
        raise ValueError("coset scans need n >= 2")
    return np.ascontiguousarray((1 - 2 * f.bits.astype(np.int8)).reshape(2, -1).T)


def _halves_blocks(f: TruthTable):
    """The block kernel: max over u of |W_(f1+q)(u)| + |W_(f2+q)(u ^ l)|
    for each Q = q + x_n * l of block hi, from the halves f = f1 || f2 by
    W_(f+Q)(u, u_n) = W_(f1+q)(u) +- W_(f2+q)(u ^ l).

    The halves' spectra over a q-range, (2**(n-1), 2, q_span) uint8, are
    kept for the scan call's other blocks of that range: at n = 7, 64 KB
    each and at most 4 MB over the 64 ranges of a full scan.
    """
    chi_halves = _halves_chi(f)
    offsets, q0, l0, q_span = _halves_layout(f.n)
    rows = np.arange(len(chi_halves))[:, None] ^ np.arange(offsets.size // q_span)  # u ^ l over the block's low l bits
    spectra = lru_cache(maxsize=None)(lambda q: _spectra(chi_halves, q, q_span))  # this scan call's q-ranges

    def block_max(hi: int) -> np.ndarray:
        spec = spectra(int(q0[hi]))
        sums = spec[rows ^ l0[hi], 1]  # |W_(f2+q)(u ^ l)|, shape (2**(n-1), 2**k, q_span)
        sums += spec[:, None, 0]  # at most 64 + 64: fits uint8
        return sums.max(axis=0).ravel()[offsets]

    return block_max


def _scan(f: TruthTable, start: int = 0, stop: int | None = None) -> Iterator[np.ndarray]:
    """nl(f + q) = 2**(n-1) - max / 2 for the quadratic indices in [start, stop), one block at a time."""
    block_max = _halves_blocks(f)
    total = form_count(f.n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad index range [{start}, {stop}) for n={f.n}")
    if start == stop:
        return
    low_bits = _low_bits(f.n)
    half = 1 << (f.n - 1)
    for hi in range(start >> low_bits, ((stop - 1) >> low_bits) + 1):
        lo0 = hi << low_bits
        yield half - (block_max(hi)[max(start - lo0, 0) : stop - lo0] >> 1)


def coset_nonlinearities(f: TruthTable, start: int = 0, stop: int | None = None) -> np.ndarray:
    """nl(f + q) for every quadratic index in [start, stop), as uint8."""
    return np.concatenate([np.empty(0, dtype=np.uint8), *_scan(f, start, stop)])  # an empty range yields no block


def _first_below(blocks: Iterator[np.ndarray], threshold: int) -> int | None:
    """Minimum of the first block whose minimum is below threshold, if any."""
    for vals in blocks:
        best = int(vals.min())
        if best < threshold:
            return best
    return None


class Nl2Result(NamedTuple):
    """value is exact when ``exact``; otherwise an upper bound proving
    the minimum lies below the requested threshold."""

    value: int
    exact: bool


def min_coset_nonlinearity(f: TruthTable, threshold: int | None = None) -> Nl2Result:
    """Minimum of nl(f + q) over all quadratics q.

    This is min over (n-1)-variable forms q of
    s[q] = nl(f1 + q) + nl(f2 + q) for the halves f = f1 || f2, from one
    uncached pass that transforms both halves together per range of q
    (16 at n = 7, one below; at n = 2 the only q is 0).  Without a
    threshold the result is exact.

    With ``threshold`` the result is that of a direct block-by-block
    scan stopped at the end of the first block whose running minimum is
    below it: that block's minimum, an upper bound proving the minimum
    is below the threshold (``exact`` False).  It is found in three
    steps: (1) scan the whole blocks among the first ``form_count(n - 1)``
    indices block by block; (2) else return ``min s`` as exact if it is
    not below the threshold; (3) else scan the later blocks, in index
    order.  A returned True always means the exact minimum.
    """
    if threshold is not None:
        blocks = _scan(f)
        head = form_count(f.n - 1) >> _low_bits(f.n)  # 16 blocks at n = 7, none below
        best = _first_below(itertools.islice(blocks, head), threshold)
        if best is not None:
            return Nl2Result(best, False)
    chi_halves, size = _halves_chi(f), 1 << _low_bits(f.n - 1)
    maxima = (_spectra(chi_halves, q, size).max(axis=0) for q in range(0, form_count(f.n - 1), size))
    top = max(int((m[0] + m[1]).max()) for m in maxima)  # the halves' max |W| summed: at most 128, fits uint8
    best = (1 << (f.n - 1)) - (top >> 1)
    if threshold is None or best >= threshold:
        return Nl2Result(best, True)
    return Nl2Result(_first_below(blocks, threshold), False)


def second_order_nonlinearity(f: TruthTable) -> int:
    """Exact distance to the set of all functions of degree at most 2.

    Minimising nl(f + q) over homogeneous quadratics q suffices: nl
    already minimises over the affine part of the degree-2 coset.
    """
    return min_coset_nonlinearity(f).value


@lru_cache(maxsize=256)
def _scanned(f: TruthTable) -> tuple[np.ndarray, NlProfile]:
    """One full scan of f: its read-only coset values and their profile."""
    vals = coset_nonlinearities(f)
    vals.setflags(write=False)
    return vals, NlProfile(f.n, dict(enumerate(np.bincount(vals))))


def _table(f: TruthTable) -> tuple[np.ndarray, NlProfile]:
    """f's scan, cached at n <= 6 and made afresh at n = 7."""
    return (_scanned if f.n <= 6 else _scanned.__wrapped__)(f)


def coset_values(f: TruthTable) -> np.ndarray:
    """nl(f + q) for every quadratic index: the one full scan of a table.

    Cached with its profile for the 256 most recently read tables of
    n <= 6, so each is scanned once per process while it stays in the
    cache; an n=7 array (2 MB) is scanned afresh and not kept.  Callers
    share the array, so it is read-only.  Safe to call from several
    threads: ``functools.lru_cache`` keeps the cache consistent, though
    two threads that miss on one table at once may each get their own
    equal array.  ``coset_values.cache_info()`` and
    ``coset_values.cache_clear()`` report on and empty the cache,
    profiles included.
    """
    return _table(f)[0]


coset_values.cache_info = _scanned.cache_info
coset_values.cache_clear = _scanned.cache_clear


def max_nl_over_quadratics(f: TruthTable) -> int:
    """Largest r with a nonempty level set (affine parts cannot raise it)."""
    return int(coset_values(f).max())


def nfh_profile(f: TruthTable) -> NlProfile:
    """Full coset-nonlinearity histogram of f: the one profile cached
    with :func:`coset_values`, shared by every caller."""
    return _table(f)[1]


def fh_set(f: TruthTable, r: int) -> FhSet:
    """Exact level set {q : nl(f + q) = r}."""
    return FhSet(f.n, r, coset_values(f) == r)


def level_set_outside(src_vals: np.ndarray, r: int, dst_vals: np.ndarray, rs) -> int | None:
    """First index q with src_vals[q] == r and dst_vals[q] outside rs.

    The arguments are coset-nonlinearity arrays of two functions, so
    None means the level set of the first at r lies within the union of
    the second's level sets over rs; otherwise the index is a
    counterexample to that inclusion.  Arrays of two shapes raise ValueError.
    """
    if src_vals.shape != dst_vals.shape:
        raise ValueError(f"coset-value arrays differ in shape: {src_vals.shape} vs {dst_vals.shape}")
    bad = src_vals == r
    for s in rs:
        bad &= dst_vals != s
    first = int(bad.argmax())
    return first if bad[first] else None
