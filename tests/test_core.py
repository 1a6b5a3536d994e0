import numpy as np
import pytest

from rm2cover import (
    AnfPolynomial,
    TruthTable,
    anf_from_truth_table,
    catalog_anf,
    catalog_function,
    catalog_names,
    concatenate,
    degree,
    distance,
    nonlinearity,
    split,
    truth_table_from_anf,
    walsh_spectrum,
    weight,
)
from rm2cover.core import _monomial_degrees, _points, _row_ints, fwht_rows
from oracles import brute_nonlinearity, eval_anf_pointwise, random_tables


def table(anf: str, n=None) -> TruthTable:
    return truth_table_from_anf(AnfPolynomial.from_string(anf, n=n))


class TestTruthTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(8, np.zeros(256, dtype=np.uint8))
        with pytest.raises(ValueError):
            TruthTable(3, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            TruthTable(2, np.array([0, 1, 2, 0], dtype=np.uint8))

    @pytest.mark.parametrize("entries", [[256, 0, 0, 1], [-255, 0, 0, 1], [0.5, 1, 0, 1], [np.nan, 0, 0, 1]])
    def test_entries_are_checked_before_the_uint8_cast(self, entries):
        # the cast alone would wrap 256 to 0 and -255 to 1 and truncate 0.5 to 0
        for bits in (entries, np.array(entries)):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                TruthTable(2, bits)

    def test_entries_of_other_dtypes_that_are_0_or_1(self):
        expected = TruthTable(2, np.array([0, 1, 1, 1], dtype=np.uint8))
        for bits in ([0, 1, 1, 1], [False, True, True, True], np.array([0.0, 1, 1, 1]), np.int8([0, 1, 1, 1])):
            assert TruthTable(2, bits) == expected

    def test_bits_frozen(self):
        t = TruthTable.zeros(3)
        with pytest.raises(ValueError):
            t.bits[0] = 1

    def test_index_convention_x1_is_lsb(self):
        # single variable x1 at n=2: indices (00, 10, 01, 11) -> 0,1,0,1
        t = table("x1", n=2)
        assert t.bits.tolist() == [0, 1, 0, 1]

    def test_hex_round_trip(self, rng):
        for n in (2, 4, 6, 7):
            bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
            t = TruthTable(n, bits)
            assert TruthTable.from_hex(t.to_hex()) == t
        assert len(TruthTable.zeros(6).to_hex()) == 16
        assert len(TruthTable.zeros(7).to_hex()) == 32

    def test_hex_golden(self):
        assert catalog_function("fun_1").to_hex() == "e9704c802a808080"

    def test_hex_errors(self):
        with pytest.raises(ValueError):
            TruthTable.from_hex("zz")
        with pytest.raises(ValueError):
            TruthTable.from_hex("0" * 5)

    def test_xor_and_eq(self):
        t = catalog_function("fun_1") ^ catalog_function("fun_2")
        assert weight(t) == 1
        with pytest.raises(ValueError):
            TruthTable.zeros(5) ^ TruthTable.zeros(6)


class TestAnf:
    def test_parse_and_format(self):
        p = AnfPolynomial.from_string(" x1x2x3 + x1 + 1 ")
        assert p.to_string() == "1+x1+x1x2x3"
        assert p.degree == 3

    def test_parse_cancellation(self):
        assert AnfPolynomial.from_string("x1+x1", n=2).monomials == frozenset()
        assert AnfPolynomial.from_string("0", n=2).to_string() == "0"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            AnfPolynomial.from_string("x1*x2")
        with pytest.raises(ValueError):
            AnfPolynomial.from_string("x8")
        with pytest.raises(ValueError):
            AnfPolynomial.from_string("")

    def test_constant_one_table(self):
        t = table("1", n=6)
        assert weight(t) == 64

    def test_single_monomial(self):
        t = table("x1x2", n=2)
        assert t.bits.tolist() == [0, 0, 0, 1]
        assert anf_from_truth_table(t).monomials == frozenset({frozenset({1, 2})})

    def test_fun_1_against_pointwise_oracle(self, rng):
        monos = [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
        expected = eval_anf_pointwise(monos, 6)
        assert catalog_function("fun_1").bits.tolist() == expected
        # frozen from the pointwise oracle
        assert weight(catalog_function("fun_1")) == 18
        # the same for every catalog ANF and seeded random ANFs at n=1..7:
        # the involution tests below share the transform with the code they
        # test, this oracle does not
        anfs = [catalog_anf(name) for name in catalog_names()]
        for n in range(1, 8):
            for _ in range(20):
                masks = np.flatnonzero(rng.integers(0, 2, size=1 << n))
                anfs.append(AnfPolynomial(n, frozenset(frozenset(v + 1 for v in range(n) if m >> v & 1) for m in masks)))
        for p in anfs:
            expected = eval_anf_pointwise([tuple(m) for m in p.monomials], p.n)
            assert truth_table_from_anf(p).bits.tolist() == expected, p

    def test_all_zero_table(self):
        assert anf_from_truth_table(TruthTable.zeros(4)).monomials == frozenset()

    def test_moebius_involution_exhaustive_small(self):
        for n in (1, 2, 3):
            for packed in range(1 << (1 << n)):
                t = TruthTable.from_int(n, packed)
                assert truth_table_from_anf(anf_from_truth_table(t)) == t

    def test_moebius_involution_random_large(self, rng):
        for n in (6, 7):
            for bits in random_tables(rng, 100, n):
                t = TruthTable(n, bits)
                assert truth_table_from_anf(anf_from_truth_table(t)) == t


class TestMetrics:
    def test_weight_trivials(self):
        assert weight(TruthTable.zeros(6)) == 0
        assert weight(table("x1", n=6)) == 32

    def test_distance(self):
        f = catalog_function("fun_3")
        assert distance(f, f) == 0
        assert distance(table("x1", n=6), table("x2", n=6)) == 32
        assert distance(catalog_function("fun_2"), catalog_function("fun_1")) == 1
        with pytest.raises(ValueError):
            distance(TruthTable.zeros(5), TruthTable.zeros(6))

    def test_walsh_trivials(self):
        w = walsh_spectrum(TruthTable.zeros(6)).values
        assert w[0] == 64 and not w[1:].any()
        w = walsh_spectrum(table("x1", n=6)).values
        assert w[1] == 64
        assert np.count_nonzero(w) == 1

    def test_walsh_bent_example(self):
        w = walsh_spectrum(catalog_function("bent_example")).values
        assert set(np.abs(w).tolist()) == {8}

    def test_parseval_and_entry_parity(self, rng):
        for n in (3, 6, 7):
            for bits in random_tables(rng, 20, n):
                w = walsh_spectrum(TruthTable(n, bits)).values
                assert int((w.astype(np.int64) ** 2).sum()) == 1 << (2 * n)
                assert not (w & 1).any()  # every entry of a +-1 transform is even

    def test_nonlinearity_trivials(self):
        for anf in ("1", "x1", "x3+x5+1"):
            assert nonlinearity(table(anf, n=6)) == 0
        assert nonlinearity(catalog_function("bent_example")) == 28
        assert nonlinearity(table("x1x2", n=6)) == 16
        assert brute_nonlinearity(table("x1x2", n=6).bits, 6) == 16

    def test_nonlinearity_matches_bruteforce_exhaustive_n_le_4(self):
        for n in (2, 3):
            for packed in range(1 << (1 << n)):
                t = TruthTable.from_int(n, packed)
                assert nonlinearity(t) == brute_nonlinearity(t.bits, n)
        # n=4 exhaustively, with the oracle vectorised over all tables
        from oracles import affine_tables

        idx = np.arange(1 << 16, dtype=np.uint32)
        shifts = np.arange(16, dtype=np.uint32)
        tables = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        aff = affine_tables(4)
        best = np.full(1 << 16, 16, dtype=np.int64)
        for a in aff:
            np.minimum(best, (tables ^ a[None, :]).sum(axis=1, dtype=np.int64), out=best)
        w = np.ascontiguousarray((1 - 2 * tables.astype(np.int16)).T)  # one column per table
        fwht_rows(w)
        via_spectrum = 8 - np.abs(w).max(axis=0) // 2
        assert np.array_equal(via_spectrum, best)

    def test_nonlinearity_matches_bruteforce_random_n6(self, rng):
        for bits in random_tables(rng, 1000, 6):
            t = TruthTable(6, bits)
            assert nonlinearity(t) == brute_nonlinearity(bits, 6)

    def test_degree(self):
        assert degree(TruthTable.ones(4)) == 0
        assert degree(catalog_function("fun_1")) == 3
        assert degree(catalog_function("fun_2")) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_degree_matches_anf_route_on_every_table(self, n):
        tables = [TruthTable.from_int(n, value) for value in range(1 << (1 << n))]
        assert [degree(t) for t in tables] == [anf_from_truth_table(t).degree for t in tables]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_degree_matches_anf_route_on_seeded_tables(self, n):
        rng = np.random.default_rng(500 + n)
        tables = [TruthTable(n, bits) for bits in random_tables(rng, 300, n)]
        for d in range(n + 1):
            # truncated to degree d: a random table almost always has degree n or n - 1
            monomials = [m for m in anf_from_truth_table(tables[d]).monomials if len(m) <= d]
            tables.append(truth_table_from_anf(AnfPolynomial(n, frozenset(monomials))))
        assert [degree(t) for t in tables] == [anf_from_truth_table(t).degree for t in tables]

    def test_even_weight_of_low_degree_functions(self, rng):
        # degree <= 2 functions have even weight at n >= 3, so distances to
        # them share the parity of weight(f)
        from rm2cover.quadratic import QuadraticForm, form_count

        for _ in range(50):
            q = QuadraticForm(6, int(rng.integers(0, form_count(6)))).truth_table()
            assert weight(q) % 2 == 0
            f = TruthTable(6, rng.integers(0, 2, 64, dtype=np.uint8))
            assert distance(f, q) % 2 == weight(f) % 2


class TestBitOrder:
    """The one packing of points, ANF monomials and 0/1 rows into integers."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_points_and_degrees_are_read_only_and_match_the_index_bits(self, n):
        points, degrees = _points(n), _monomial_degrees(n)
        assert not points.flags.writeable and not degrees.flags.writeable
        assert points.dtype == degrees.dtype == np.uint8
        assert points.tolist() == [[(i >> v) & 1 for v in range(n)] for i in range(1 << n)]
        assert degrees.tolist() == [i.bit_count() for i in range(1 << n)]
        assert np.array_equal(_row_ints(points), np.arange(1 << n))
        # column v is the table of x_(v+1)
        for v in range(n):
            assert np.array_equal(points[:, v], table(f"x{v + 1}", n).bits)

    def test_row_ints_packs_entry_v_at_bit_v(self):
        rows = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
        assert _row_ints(rows).tolist() == [1, 6, 7]
        assert _row_ints(np.ones((1, 63), dtype=np.uint8)).tolist() == [2**63 - 1]
        with pytest.raises(ValueError, match="do not fit int64"):
            _row_ints(np.ones((1, 64), dtype=np.uint8))


class TestFwht:
    """fwht_rows along the leading axis (the coset-innermost scan layout)."""

    SHAPES = [(64, 5), (128, 12), (8, 3, 4), (32, 2, 6)]

    @staticmethod
    def _random(rng, shape, dtype):
        bound = 3 if dtype == np.int16 else 1000
        return rng.integers(-bound, bound + 1, size=shape).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_axis0_equals_hadamard_product(self, rng, shape, dtype):
        a = self._random(rng, shape, dtype)
        width = shape[0]
        u = np.arange(width)
        hadamard = 1 - 2 * (np.bitwise_count(u[:, None] & u[None, :]) & 1).astype(np.int64)
        expected = (hadamard @ a.reshape(width, -1).astype(np.int64)).reshape(shape)
        fwht_rows(a)
        assert a.dtype == dtype
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_axis0_twice_scales_by_length(self, rng, shape, dtype):
        a = self._random(rng, shape, dtype)
        b = a.copy()
        fwht_rows(b)
        fwht_rows(b)
        assert np.array_equal(b, shape[0] * a)

    def test_rejects_non_contiguous(self):
        a = np.ones((8, 8), dtype=np.int16).T[:, :4]
        with pytest.raises(ValueError):
            fwht_rows(a)

    def test_walsh_spectrum_matches_pointwise_sum(self, rng):
        for n in range(1, 8):
            bits = random_tables(rng, 1, n)[0].tolist()
            expected = [
                sum(1 - 2 * ((bits[x] + bin(u & x).count("1")) & 1) for x in range(1 << n)) for u in range(1 << n)
            ]
            assert walsh_spectrum(TruthTable(n, bits)).values.tolist() == expected


class TestConcatenation:
    def test_zero_one_gives_top_variable(self):
        t = concatenate(TruthTable.zeros(1), TruthTable.ones(1))
        assert t == table("x2", n=2)

    def test_self_concatenation_ignores_top_variable(self):
        f = catalog_function("fun_3")
        t = concatenate(f, f)
        lo, hi = split(t)
        assert lo == hi == f
        assert degree(t) == degree(f)

    def test_split_round_trip(self, rng):
        cases = [
            (TruthTable.zeros(3), TruthTable.ones(3)),
            (table("x1", n=4), table("x3", n=4)),
            (TruthTable(6, rng.integers(0, 2, 64, dtype=np.uint8)),
             TruthTable(6, rng.integers(0, 2, 64, dtype=np.uint8))),
        ]
        for f1, f2 in cases:
            assert split(concatenate(f1, f2)) == (f1, f2)

    def test_errors(self):
        with pytest.raises(ValueError):
            concatenate(TruthTable.zeros(3), TruthTable.zeros(4))
        with pytest.raises(ValueError):
            concatenate(TruthTable.zeros(7), TruthTable.zeros(7))
        with pytest.raises(ValueError):
            split(TruthTable.zeros(1))
