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
per table: the cache keeps the read-only array together with the
table's :class:`NlProfile`, least recently used first, while the arrays
add up to at most ``CACHE_BYTES`` (8 MB: every 32 KB n=6 array of the
catalog and three 2 MB n=7 arrays).  Profiles, level sets, the maximum
and the condition-2 inclusions all read it.  Minimum scans and
``coset_nonlinearities`` scan afresh.  :func:`degree2_table` XORs the
cached monomial rows of its n.  A table in the affine orbit
of f modulo degree 2, f(Ax + b) + q_k + l, needs no scan: its array is
f's permuted by :func:`form_map`.

The minimum at n >= 3 comes from the halves f = f1 || f2 on x_n = 0 and
x_n = 1.  A homogeneous quadratic in n variables is q + x_n * l with q
a quadratic in the first n - 1 variables and l linear, and the linear
part is absorbed by the affine functions on each half (the (u | u + v)
construction of Reed-Muller codes), so

    min over Q of nl(f + Q) = min over q of s[q],
    s[q] = nl(f1 + q) + nl(f2 + q).

At n = 7 that is two scans of 2**15 cosets of 64 points instead of one
of 2**21 cosets of 128.  Threshold mode returns what a direct block
scan returns (see :func:`min_coset_nonlinearity`) in three steps:

1. scan the whole blocks among the first ``form_count(n - 1)`` indices
   block by block (16 at n = 7 over 8 q-ranges, none at n <= 6), and
   return at the first block whose minimum is below the threshold;
2. otherwise, if ``min s`` is not below the threshold, it is the exact
   minimum;
3. otherwise scan on from the end of step 1, in index order, and
   return the first block minimum below the threshold; steps 1 and 3
   are one scan, so step 3 reuses the q-ranges step 1 transformed.

The scan is vectorised.  At n <= 6 the signs of ``f + q`` for a block
of 2048 consecutive indices are built from two cached sign tables (low
/ high index bits) as a ``(2**n, 2048)`` int8 array, one column per
coset.  The coset axis is innermost, so every stage of the in-place
Walsh transform along axis 0 is one contiguous operation over whole
rows of 2048 cosets, and the spectrum maximum is a reduction over rows.
At n = 7 a block is built from the halves instead: its 2048 forms are
Q = q + x_7 * l for 512 consecutive 6-variable q and 4 linear l, and

    nl(f + Q) = 64 - max over u of (|W_(f1+q)(u)| + |W_(f2+q)(u ^ l)|) / 2,

so one 64-point transform of both halves' signs serves every block of
the same q-range within a scan call.  No transform has more than 64
points, so every one runs in int8 (partial sums lie in [-64, 64]).  One
block iterator feeds every reduction (values, minimum, maximum,
histogram).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .core import AnfPolynomial, TruthTable, _bits_to_hex, fwht_rows, split, truth_table_from_anf

# Block size: 2**LOW_BITS cosets per batched transform.  It is part of
# the results, not only of the speed: threshold mode returns the minimum
# of the first block below the threshold, so its upper bound
# (``SearchRecord.nl2_value``, ``rm2cover nl2 --threshold``) depends on
# where blocks end, also where the halves' minimum decides that no block
# exits.  Changing it changes those outputs.
_LOW_BITS = 11

# Bytes of coset-value arrays the table cache may hold (see coset_values).
CACHE_BYTES = 8 << 20


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
        if not 0 <= self.index < form_count(self.n):
            raise ValueError(f"index {self.index} out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "QuadraticForm":
        pos = {pq: p for p, pq in enumerate(variable_pairs(n))}
        index = 0
        for i, j in pairs:
            index ^= 1 << pos[(min(i, j), max(i, j))]
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
    images = coeff.astype(np.int64) @ (1 << np.arange(len(rows), dtype=np.int64))
    out = np.zeros(1 << len(rows), dtype=np.int64)
    for p, image in enumerate(images):
        out[1 << p : 2 << p] = out[: 1 << p] ^ image
    return out


@lru_cache(maxsize=None)
def _degree2_rows(n: int) -> np.ndarray:
    """Truth tables of the pair monomials x_i x_j in index-bit order, then
    of x_1 .. x_n, one row each."""
    idx = np.arange(1 << n, dtype=np.uint32)
    var = ((idx >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)  # var[v]: x_(v+1)
    rows, cols = np.triu_indices(n, 1)
    out = np.concatenate([var[rows] & var[cols], var])
    out.setflags(write=False)
    return out


def degree2_table(n: int, quad_index: int, linear_mask: int, constant: int = 0) -> TruthTable:
    """Truth table of q_quad_index + sum of x_(v+1) over set bits v of
    linear_mask + constant: the XOR of the selected monomial rows."""
    m = pair_count(n)
    if not 0 <= quad_index < 1 << m:
        raise ValueError(f"index {quad_index} out of range for n={n}")
    word = quad_index | (linear_mask & ((1 << n) - 1)) << m
    chosen = ((word >> np.arange(m + n)) & 1).astype(bool)
    return TruthTable(n, np.bitwise_xor.reduce(_degree2_rows(n)[chosen], axis=0) ^ np.uint8(constant))


@dataclass(frozen=True)
class NlProfile:
    """Histogram r -> number of quadratic forms q with nl(f + q) = r.

    ``counts`` is read-only: :func:`nfh_profile` hands every caller the
    one cached profile of a table.
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
    """Cached (chi_low, chi_high, low_bits) sign tables for n <= 6.

    chi_low[:, k] (a column) is the +-1 table of the quadratic whose index
    is k over the low index bits, so chi_low has shape
    ``(2**n, 2**low_bits)`` with the coset axis innermost.  chi_high[k]
    (a row) is the table of the quadratic whose index is k over the
    remaining bits.
    """
    m = pair_count(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    mono_chi = np.empty((m, 1 << n), dtype=np.int8)
    for p, (i, j) in enumerate(variable_pairs(n)):
        xi = (idx >> (i - 1)) & 1
        xj = (idx >> (j - 1)) & 1
        mono_chi[p] = 1 - 2 * (xi & xj).astype(np.int8)
    low_bits = _low_bits(n)

    def span(rows: np.ndarray) -> np.ndarray:
        out = np.ones((1 << len(rows), 1 << n), dtype=np.int8)
        for p in range(len(rows)):
            half = 1 << p
            out[half : 2 * half] = out[:half] * rows[p]
        return out

    return np.ascontiguousarray(span(mono_chi[:low_bits]).T), span(mono_chi[low_bits:]), low_bits


def _abs_spectra(w: np.ndarray) -> np.ndarray:
    """|Walsh spectra| of the columns of an int8 +-1 block, as uint8.

    The block is transformed in place.  Every butterfly partial sum of a
    +-1 input of at most 64 points lies in [-64, 64], so int8 holds the
    whole transform exactly; a longer leading axis raises ValueError.
    """
    if w.dtype != np.int8 or w.shape[0] > 64:
        raise ValueError(f"int8 transforms take at most 64 points, got {w.shape[0]} of {w.dtype}")
    fwht_rows(w)
    np.abs(w, out=w)
    return w.view(np.uint8)


def _direct_blocks(f: TruthTable):
    """Block kernel for n <= 6: the (2**n, 2048) sign block, transformed."""
    chi_low, chi_high, _ = _sign_tables(f.n)
    chi_f = 1 - 2 * f.bits.astype(np.int8)
    half = 1 << (f.n - 1)

    def block_nl(hi: int, part: slice) -> np.ndarray:
        w = (chi_f * chi_high[hi])[:, None] * chi_low
        return half - (_abs_spectra(w).max(axis=0)[part] >> 1)

    return block_nl


@lru_cache(maxsize=None)
def _halves_layout(n: int):
    """(offsets, q0, l0) for n-variable blocks built from the halves.

    A form index splits as Q = q + x_n * l: its bit of a pair (i, n) is
    bit i - 1 of the linear l, its other bits are those of q's
    (n-1)-variable index, in the same order.  At n = 7 the low 11 bits
    hold the pairs (1, 7) and (2, 7), so block ``hi`` is the 512
    consecutive q from ``q0[hi]`` times the 4 l from ``l0[hi]``, and
    index ``(hi << 11) + k`` reads entry ``offsets[k]`` of the block's
    (4, 512) values (row l ^ l0[hi], column q - q0[hi]).
    """
    m, low_bits = pair_count(n), _low_bits(n)
    to_l = np.array([j == n for _, j in variable_pairs(n)])
    weight = np.array([1 << (i - 1) for i, _ in variable_pairs(n)])  # l bit of a pair (i, n)
    weight[~to_l] = 1 << np.arange(np.count_nonzero(~to_l))  # q bit of every other pair

    def parts(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The q and l parts of every index over the index bits lo .. hi - 1."""
        index_bits = (np.arange(1 << (hi - lo))[:, None] >> np.arange(hi - lo)) & 1
        return index_bits @ (weight[lo:hi] * ~to_l[lo:hi]), index_bits @ (weight[lo:hi] * to_l[lo:hi])

    q_low, l_low = parts(0, low_bits)
    q0, l0 = parts(low_bits, m)
    return l_low * (int(q_low.max()) + 1) + q_low, q0, l0


def _halves_blocks(f: TruthTable):
    """Block kernel for n = 7 from the halves f = f1 || f2, by
    W_(f+Q)(u, u_7) = W_(f1+q)(u) +- W_(f2+q)(u ^ l) for Q = q + x_7 * l.

    One 64-point transform of a (64, 2 * 512) int8 block gives both
    halves' |W| for a q-range and is kept for the scan call's other
    blocks of that range: 64 KB each, at most 4 MB over the 64 ranges
    of a full scan.
    """
    offsets, q0, l0 = _halves_layout(f.n)
    chi_low, chi_high, low_bits = _sign_tables(f.n - 1)
    chi_halves = (1 - 2 * f.bits.astype(np.int8)).reshape(2, -1).T  # column h: half h's signs
    width = chi_halves.shape[0]
    q_span = offsets.size // 4
    rows = np.arange(width)[:, None] ^ np.arange(4)  # u ^ l over the block's 4 low l bits
    half = 1 << (f.n - 1)
    spectra: dict[int, np.ndarray] = {}

    def block_nl(hi: int, part: slice) -> np.ndarray:
        q = int(q0[hi])
        spec = spectra.get(q)
        if spec is None:
            col = q & ((1 << low_bits) - 1)
            signs = (chi_halves * chi_high[q >> low_bits][:, None])[:, :, None] * chi_low[:, None, col : col + q_span]
            spec = spectra[q] = _abs_spectra(signs.reshape(width, -1)).reshape(width, 2, q_span)
        sums = spec[rows ^ l0[hi], 1]  # |W_(f2+q)(u ^ l)|, shape (64, 4, 512)
        sums += spec[:, None, 0]  # at most 64 + 64: fits uint8
        return half - (sums.max(axis=0).ravel()[offsets[part]] >> 1)

    return block_nl


def _scan(f: TruthTable, start: int = 0, stop: int | None = None) -> Iterator[np.ndarray]:
    """nl(f + q) for the quadratic indices in [start, stop), one block at a time."""
    if f.n < 2:
        raise ValueError("coset scans need n >= 2")
    total = form_count(f.n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad index range [{start}, {stop}) for n={f.n}")
    if start == stop:
        return
    low_bits = _low_bits(f.n)
    block_nl = _halves_blocks(f) if f.n == 7 else _direct_blocks(f)
    for hi in range(start >> low_bits, ((stop - 1) >> low_bits) + 1):
        lo0 = hi << low_bits
        yield block_nl(hi, slice(max(start - lo0, 0), stop - lo0))


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

    At n >= 3 this is min over (n-1)-variable forms q of
    s[q] = nl(f1 + q) + nl(f2 + q) for the halves f = f1 || f2, from two
    uncached half scans; at n = 2 it is the one block of the direct scan.
    Without a threshold the result is exact.

    With ``threshold`` the result is that of a direct block-by-block
    scan stopped at the end of the first block whose running minimum is
    below it: that block's minimum, an upper bound proving the minimum
    is below the threshold (``exact`` False).  It is found in three
    steps: (1) scan the whole blocks among the first ``form_count(n - 1)``
    indices block by block; (2) else return ``min s`` as exact if it is
    not below the threshold; (3) else scan the later blocks, in index
    order.  A returned True always means the exact minimum.
    """
    if f.n < 3:  # one block, and 1-variable halves have no quadratic forms
        best = int(coset_nonlinearities(f).min())
        return Nl2Result(best, threshold is None or best >= threshold)
    if threshold is not None:
        blocks = _scan(f)
        head = form_count(f.n - 1) >> _low_bits(f.n)  # 16 blocks at n = 7, none below
        best = _first_below(itertools.islice(blocks, head), threshold)
        if best is not None:
            return Nl2Result(best, False)
    f1, f2 = split(f)
    s = coset_nonlinearities(f1) + coset_nonlinearities(f2)  # below 2**(n-1): fits uint8
    best = int(s.min())
    if threshold is None or best >= threshold:
        return Nl2Result(best, True)
    return Nl2Result(_first_below(blocks, threshold), False)


def second_order_nonlinearity(f: TruthTable) -> int:
    """Exact distance to the set of all functions of degree at most 2.

    Minimising nl(f + q) over homogeneous quadratics q suffices: nl
    already minimises over the affine part of the degree-2 coset.
    """
    return min_coset_nonlinearity(f).value


_CacheInfo = namedtuple("CacheInfo", "hits misses currsize nbytes")


class _TableCache:
    """(coset values, profile) per table, least recently used first,
    evicted while the arrays add up to more than ``max_bytes``.  Safe to
    call from several threads; as with ``functools.lru_cache``, the scan
    runs outside the lock, and a table scanned by two threads at once
    keeps the entry stored first."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict[TruthTable, tuple[np.ndarray, NlProfile]] = OrderedDict()
        self._nbytes = self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, f: TruthTable) -> tuple[np.ndarray, NlProfile]:
        with self._lock:
            entry = self._entries.get(f)
            if entry is not None:
                self._entries.move_to_end(f)
                self._hits += 1
                return entry
            self._misses += 1
        vals = coset_nonlinearities(f)
        vals.setflags(write=False)
        entry = vals, NlProfile(f.n, dict(enumerate(np.bincount(vals))))
        with self._lock:
            if f not in self._entries:
                self._entries[f] = entry
                self._nbytes += vals.nbytes
                while self._nbytes > self.max_bytes:
                    self._nbytes -= self._entries.popitem(last=False)[1][0].nbytes
            return self._entries.get(f, entry)  # an array above the bound alone is not kept

    def info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, len(self._entries), self._nbytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = self._hits = self._misses = 0


_TABLES = _TableCache(CACHE_BYTES)


def coset_values(f: TruthTable) -> np.ndarray:
    """nl(f + q) for every quadratic index: the one full scan of a table.

    Cached per table with its profile, so each table is scanned once per
    process while it stays in the cache.  A 6-variable table's array
    takes 32 KB (2 MB at n=7); the cache keeps at most ``CACHE_BYTES``
    of them.  Callers share the array, so it is read-only.
    ``coset_values.cache_info()`` and ``coset_values.cache_clear()``
    report on and empty the cache, profiles included.
    """
    return _TABLES(f)[0]


coset_values.cache_info = _TABLES.info
coset_values.cache_clear = _TABLES.clear


def max_nl_over_quadratics(f: TruthTable) -> int:
    """Largest r with a nonempty level set (affine parts cannot raise it)."""
    return int(coset_values(f).max())


def nfh_profile(f: TruthTable) -> NlProfile:
    """Full coset-nonlinearity histogram of f: the one profile cached
    with :func:`coset_values`, shared by every caller."""
    return _TABLES(f)[1]


def fh_set(f: TruthTable, r: int) -> FhSet:
    """Exact level set {q : nl(f + q) = r}."""
    return FhSet(f.n, r, coset_values(f) == r)


def level_set_outside(src_vals: np.ndarray, r: int, dst_vals: np.ndarray, rs) -> int | None:
    """First index q with src_vals[q] == r and dst_vals[q] outside rs.

    The arguments are coset-nonlinearity arrays of two functions, so
    None means the level set of the first at r lies within the union of
    the second's level sets over rs; otherwise the index is a
    counterexample to that inclusion.
    """
    bad = src_vals == r
    for s in rs:
        bad &= dst_vals != s
    first = int(bad.argmax())
    return first if bad[first] else None
