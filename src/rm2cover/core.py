"""Truth-table representation of Boolean functions and the basic metrics.

Conventions used throughout the package:

* A function of ``n`` variables (``1 <= n <= 7``) is stored as its
  evaluation vector of length ``2**n``.  The entry at index
  ``sum(x_i * 2**(i-1))`` holds ``f(x_1, ..., x_n)``, i.e. ``x_1`` is the
  least-significant coordinate of the index.  Points, ANF monomials and
  0/1 rows all pack this way, in :func:`_points` and :func:`_row_ints` only.
* Hex serialisation packs the evaluation vector into an integer whose
  bit ``i`` (weight ``2**i``) is the table entry at index ``i``; the
  integer prints as lowercase hex, most-significant nibble first
  (16 digits for n=6, 32 digits for n=7).
* ANF text uses terms joined by ``+``, each term a product such as
  ``x1x2x3``; the constant term is ``1``.  Whitespace is ignored.

All operations are pure functions on immutable values; nothing here
keeps shared mutable state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_VARS = 7

# hex length -> variable count (whole-nibble tables only, so n >= 2)
_HEX_LEN_TO_N = {1 << (n - 2): n for n in range(2, MAX_VARS + 1)}

_TERM_RE = re.compile(r"^(x[1-7])+$")


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {n}")


def _bit_array(values, what: str) -> np.ndarray:
    """values as a C-contiguous uint8 array; entries other than 0 or 1
    raise ValueError, checked before the cast can wrap or truncate them."""
    if getattr(values, "dtype", None) not in (np.uint8, np.bool_) and not np.isin(values, (0, 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    b = np.ascontiguousarray(values, dtype=np.uint8)
    if b.max(initial=0) > 1:
        raise ValueError(f"{what} entries must be 0 or 1")
    return b


def _bits_to_hex(bits: np.ndarray) -> str:
    """The bits as an integer with bit i = entry i, in len/4 hex digits."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return format(int.from_bytes(packed, "little"), f"0{len(bits) // 4}x")


@lru_cache(maxsize=None)
def _points(n: int) -> np.ndarray:
    """Read-only ``(2**n, n)`` uint8: row i is index i's bits, column v the table of x_(v+1)."""
    points = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    points.setflags(write=False)
    return points


@lru_cache(maxsize=None)
def _monomial_degrees(n: int) -> np.ndarray:
    """Read-only uint8: the degree of the monomial at each ANF index, its count of set bits."""
    degrees = _points(n).sum(axis=1, dtype=np.uint8)
    degrees.setflags(write=False)
    return degrees


def _row_ints(rows: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 array as int64, entry v at bit v, as :func:`_points` unpacks them."""
    if rows.shape[-1] > 63:
        raise ValueError(f"rows of {rows.shape[-1]} bits do not fit int64")
    return rows @ (1 << np.arange(rows.shape[-1], dtype=np.int64))


@dataclass(frozen=True)
class TruthTable:
    """Bit-packed evaluation vector of an n-variable Boolean function."""

    n: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        _check_n(self.n)
        b = _bit_array(self.bits, "table")
        if b.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} table entries, got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @classmethod
    def zeros(cls, n: int) -> "TruthTable":
        return cls(n, np.zeros(1 << n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "TruthTable":
        return cls(n, np.ones(1 << n, dtype=np.uint8))

    @classmethod
    def from_int(cls, n: int, value: int) -> "TruthTable":
        _check_n(n)
        size = 1 << n
        if not 0 <= value < (1 << size):
            raise ValueError("packed value out of range for table size")
        return cls(n, np.fromiter(((value >> i) & 1 for i in range(size)), dtype=np.uint8, count=size))

    @classmethod
    def from_hex(cls, text: str) -> "TruthTable":
        """The table whose hex form is ``text``; its length fixes n."""
        s = text.strip().lower()
        if not s or any(c not in "0123456789abcdef" for c in s):
            raise ValueError(f"not a hex truth table: {text!r}")
        if len(s) not in _HEX_LEN_TO_N:
            raise ValueError(
                f"hex length {len(s)} does not match any table size "
                f"(expected one of {sorted(_HEX_LEN_TO_N)})"
            )
        return cls.from_int(_HEX_LEN_TO_N[len(s)], int(s, 16))

    def to_hex(self) -> str:
        if self.n < 2:
            raise ValueError("hex form needs whole nibbles (n >= 2)")
        return _bits_to_hex(self.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")
        return TruthTable(self.n, self.bits ^ other.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        if self.n >= 2:
            return f"TruthTable(n={self.n}, hex={self.to_hex()!r})"
        return f"TruthTable(n={self.n}, bits={self.bits.tolist()})"


@dataclass(frozen=True)
class AnfPolynomial:
    """Algebraic normal form: a set of monomials over variables 1..n.

    Each monomial is a frozenset of variable indices; the empty set is
    the constant term 1.  Set membership means coefficient 1.
    """

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        _check_n(self.n)
        monos = frozenset(frozenset(m) for m in self.monomials)
        for m in monos:
            if any(not 1 <= v <= self.n for v in m):
                raise ValueError(f"monomial {sorted(m)} uses a variable outside 1..{self.n}")
        object.__setattr__(self, "monomials", monos)

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "AnfPolynomial":
        """Parse ``x1x2x3+x1x4x5`` style text; repeated terms cancel (GF(2))."""
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ValueError("empty ANF string")
        monos: set[frozenset[int]] = set()
        for term in s.split("+"):
            if term == "0":
                continue
            if term == "1":
                mono: frozenset[int] = frozenset()
            elif _TERM_RE.match(term):
                mono = frozenset(int(c) for c in term if c.isdigit())
            else:
                raise ValueError(f"cannot parse ANF term {term!r}")
            monos.symmetric_difference_update({mono})
        if n is None:
            n = max((max(m) for m in monos if m), default=1)
        return cls(n, frozenset(monos))

    def to_string(self) -> str:
        if not self.monomials:
            return "0"
        keys = sorted((len(m), tuple(sorted(m))) for m in self.monomials)
        terms = ["1" if not vs else "".join(f"x{v}" for v in vs) for _, vs in keys]
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"AnfPolynomial(n={self.n}, {self.to_string()!r})"


@dataclass(frozen=True)
class WalshSpectrum:
    """Integer spectrum W(u) = sum_x (-1)^(f(x) + u.x), indexed like the table."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.int32)
        if v.shape != (1 << self.n,):
            raise ValueError("spectrum length must be 2**n")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def max_abs(self) -> int:
        return int(np.abs(self.values).max())


def fwht_rows(a: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform along the leading axis.

    Integer arithmetic only; the leading axis length must be a power of
    two and ``a`` must be C-contiguous, so every reshape below is a view.
    Each butterfly pairs slabs of ``h`` whole rows, so for a 2-D array a
    stage is one contiguous operation over every column at once.  One
    scratch buffer serves every stage: a fresh temporary per stage
    doubled the time of an n=7 scan block.

    Arithmetic wraps in ``a``'s dtype, so the caller picks one that holds
    every partial sum: for a +-1 input of ``N`` points each one lies in
    [-N, N], so int8 holds transforms of up to 64 points exactly, int16
    of up to 16384.
    """
    if not a.flags.c_contiguous:
        raise ValueError("fwht_rows transforms in place and needs a C-contiguous array")
    width = a.shape[0]
    inner = a.size // width
    scratch = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < width:
        b = a.reshape(-1, 2, h * inner)
        x = b[:, 0]
        y = b[:, 1]
        t = scratch.reshape(x.shape)
        np.subtract(x, y, out=t)
        x += y
        y[:] = t
        h *= 2


def truth_table_from_anf(p: AnfPolynomial) -> TruthTable:
    """Evaluate an ANF at every point (binary Moebius transform)."""
    coeffs = np.zeros(1 << p.n, dtype=np.uint8)
    for mono in p.monomials:
        coeffs[sum(1 << (v - 1) for v in mono)] = 1
    return TruthTable(p.n, _moebius(coeffs))


def anf_from_truth_table(t: TruthTable) -> AnfPolynomial:
    """Inverse of :func:`truth_table_from_anf` (the transform is an involution)."""
    return _anf_from_coefficients(t.n, _moebius(t.bits))


def _anf_from_coefficients(n: int, coeffs: np.ndarray) -> AnfPolynomial:
    """The polynomial with a monomial at each nonzero entry of the
    Moebius coefficients ``coeffs`` (index bit v - 1 set: x_v in it)."""
    monos = (frozenset(v + 1 for v in range(n) if (idx >> v) & 1) for idx in np.flatnonzero(coeffs).tolist())
    return AnfPolynomial(n, frozenset(monos))


def _moebius(bits: np.ndarray) -> np.ndarray:
    """XOR butterfly over subset lattice along the last axis, so the rows
    of a 2-D array transform independently; self-inverse."""
    a = bits.copy()
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(-1, 2, h)
        b[:, 1, :] ^= b[:, 0, :]
        h *= 2
    return a


def weight(t: TruthTable) -> int:
    return int(np.count_nonzero(t.bits))


def distance(f: TruthTable, g: TruthTable) -> int:
    if f.n != g.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {g.n}")
    return int(np.count_nonzero(f.bits ^ g.bits))


def walsh_spectrum(t: TruthTable) -> WalshSpectrum:
    w = 1 - 2 * t.bits.astype(np.int32)
    fwht_rows(w)
    return WalshSpectrum(t.n, w)


def nonlinearity(t: TruthTable) -> int:
    """Distance to the nearest affine function, via the spectrum."""
    return (1 << (t.n - 1)) - walsh_spectrum(t).max_abs() // 2


def degree(t: TruthTable) -> int:
    return int((_monomial_degrees(t.n) * _moebius(t.bits)).max())


def concatenate(f1: TruthTable, f2: TruthTable) -> TruthTable:
    """Join two n-variable halves into the (n+1)-variable function that
    is f1 where the new top variable is 0 and f2 where it is 1."""
    if f1.n != f2.n:
        raise ValueError(f"variable count mismatch: {f1.n} vs {f2.n}")
    if f1.n >= MAX_VARS:
        raise ValueError(f"concatenation of n={f1.n} halves exceeds n={MAX_VARS}")
    return TruthTable(f1.n + 1, np.concatenate([f1.bits, f2.bits]))


def split(f: TruthTable) -> tuple[TruthTable, TruthTable]:
    """Inverse of :func:`concatenate`: the halves on x_n = 0 and x_n = 1."""
    if f.n < 2:
        raise ValueError("cannot split a 1-variable table")
    half = 1 << (f.n - 1)
    return TruthTable(f.n - 1, f.bits[:half]), TruthTable(f.n - 1, f.bits[half:])
