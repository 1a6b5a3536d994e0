import math
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rm2cover import (
    AnfPolynomial,
    QuadraticForm,
    TruthTable,
    anf_from_truth_table,
    catalog_function,
    concatenate,
    coset_nonlinearities,
    fh_set,
    level_set_outside,
    max_nl_over_quadratics,
    min_coset_nonlinearity,
    nfh_profile,
    nonlinearity,
    second_order_nonlinearity,
    truth_table_from_anf,
)
from rm2cover.affine import apply_affine, random_affine_map, sample_affine_map
from rm2cover.cli import resolve_function
from rm2cover import quadratic
from rm2cover.catalog import catalog_names
from rm2cover.quadratic import NlProfile, form_count, pair_count, variable_pairs
from oracles import (
    brute_second_order_nl,
    brute_second_order_nl_batch,
    int16_coset_nl,
    random_tables,
    row_layout_coset_nl,
)

STEP3_TABLE = "109bc89eac728b88e5f3d596fb123488"  # fun_4||fun_6 + q_506521 at n=7


def _oracle_block_mins(f: TruthTable):
    """Minimum of each block of 2048 indices of the row-layout oracle kernel, lazily."""
    total, block = form_count(f.n), 2048
    for lo in range(0, total, block):
        yield int(row_layout_coset_nl(f.bits, f.n, lo, min(lo + block, total)).min())


def _oracle_threshold_min(block_mins, threshold: int | None) -> tuple[int, bool]:
    """Threshold mode over block minima: stop after the first block whose
    running minimum is below the threshold; without one, scan them all."""
    best = math.inf
    for block_min in block_mins:
        best = min(best, block_min)
        if threshold is not None and best < threshold:
            return best, False
    return best, True


@pytest.fixture
def transforms(monkeypatch):
    """Records the point count (leading axis) of each transform the scan makes."""
    calls = []
    fwht_rows = quadratic.fwht_rows

    def counting(a):
        calls.append(a.shape[0])
        fwht_rows(a)

    monkeypatch.setattr(quadratic, "fwht_rows", counting)
    quadratic.coset_values.cache_clear()  # a cached table is not transformed again
    return calls


class TestEnumeration:
    def test_counts_small(self):
        assert [QuadraticForm(2, i).coefficient_pairs() for i in range(form_count(2))] == [(), ((1, 2),)]
        tables = {QuadraticForm(3, i).truth_table().bits.tobytes() for i in range(form_count(3))}
        assert form_count(3) == 8 and len(tables) == 8

    def test_count_n6(self):
        assert pair_count(6) == 15 and form_count(6) == 32768
        assert coset_nonlinearities(TruthTable.zeros(6)).size == 32768

    def test_count_n7_and_range_iteration(self):
        assert form_count(7) == 2097152
        assert QuadraticForm(7, form_count(7) - 1).coefficient_pairs() == variable_pairs(7)
        f = truth_table_from_anf(AnfPolynomial.from_string("x1x2x3x4+x5x6x7+x1", n=7))
        total = form_count(7)
        for start, stop in ((0, 5), (total - 3, total)):
            direct = [nonlinearity(f ^ QuadraticForm(7, i).truth_table()) for i in range(start, stop)]
            assert coset_nonlinearities(f, start, stop).tolist() == direct

    def test_range_errors(self):
        for index in (-1, form_count(3)):
            with pytest.raises(ValueError):
                QuadraticForm(3, index)
        with pytest.raises(ValueError):
            coset_nonlinearities(TruthTable.zeros(1))
        with pytest.raises(ValueError):
            coset_nonlinearities(TruthTable.zeros(3), 5, 2)
        with pytest.raises(ValueError):
            coset_nonlinearities(TruthTable.zeros(3), 0, form_count(3) + 1)

    def test_index_pair_bijection(self, rng):
        for n in (3, 4):
            seen = set()
            for index in range(form_count(n)):
                q = QuadraticForm(n, index)
                pairs = q.coefficient_pairs()
                assert QuadraticForm.from_pairs(n, pairs).index == q.index
                seen.add(pairs)
            assert len(seen) == form_count(n)
        for n in (6, 7):
            for index in rng.integers(0, form_count(n), size=50):
                q = QuadraticForm(n, int(index))
                assert QuadraticForm.from_pairs(n, q.coefficient_pairs()).index == q.index

    def test_index_bit_order_is_lexicographic(self):
        assert variable_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        q = QuadraticForm(4, 0b000101)
        assert q.coefficient_pairs() == ((1, 2), (1, 4))

    def test_form_degree(self):
        assert QuadraticForm(5, 0).anf().degree == 0
        for index in (1, 7, 1023):
            assert QuadraticForm(5, index).anf().degree == 2


class TestSecondOrderNonlinearity:
    def test_low_degree_functions_have_nl2_zero(self, rng):
        for anf in ("x1x2", "x1x2+x3+1", "x5x6+x1x4+x2"):
            f = truth_table_from_anf(AnfPolynomial.from_string(anf, n=6))
            assert second_order_nonlinearity(f) == 0

    def test_catalog_values_match_independent_bruteforce(self):
        # fun_1 and fun_8 recomputed against direct codeword enumeration
        for name, expected in (("fun_1", 18), ("fun_8", 15)):
            f = catalog_function(name)
            assert second_order_nonlinearity(f) == expected
            assert brute_second_order_nl(f.bits, 6) == expected

    def test_exhaustive_n3(self):
        for packed in range(256):
            t = TruthTable.from_int(3, packed)
            assert second_order_nonlinearity(t) == brute_second_order_nl(t.bits, 3)

    def test_exhaustive_n4(self):
        idx = np.arange(1 << 16, dtype=np.uint32)
        shifts = np.arange(16, dtype=np.uint32)
        tables = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        expected = brute_second_order_nl_batch(tables, 4)
        sign = np.ascontiguousarray((1 - 2 * tables.astype(np.int16)).T)  # one column per table
        chi = {i: 1 - 2 * QuadraticForm(4, i).truth_table().bits.astype(np.int16) for i in range(form_count(4))}
        from rm2cover.core import fwht_rows

        best = np.full(1 << 16, 16, dtype=np.int64)
        for q_chi in chi.values():
            w = sign * q_chi[:, None]
            fwht_rows(w)
            np.minimum(best, 8 - np.abs(w).max(axis=0) // 2, out=best)
        assert np.array_equal(best, expected)
        # spot check the library entry point agrees with the batch route
        for packed in (0, 1, 0x8001, 0x6996, 0xFFFF):
            t = TruthTable.from_int(4, packed)
            assert second_order_nonlinearity(t) == expected[packed]

    def test_random_n6_against_bruteforce(self, rng):
        for bits in random_tables(rng, 50, 6):
            t = TruthTable(6, bits)
            assert second_order_nonlinearity(t) == brute_second_order_nl(bits, 6)

    def test_threshold_scan_consistency(self, rng):
        for bits in random_tables(rng, 10, 6):
            t = TruthTable(6, bits)
            exact, is_exact = min_coset_nonlinearity(t)
            assert is_exact
            bounded, bounded_exact = min_coset_nonlinearity(t, threshold=exact + 1)
            assert not bounded_exact and exact <= bounded < exact + 1
            same, same_exact = min_coset_nonlinearity(t, threshold=exact)
            assert same_exact and same == exact

    @pytest.mark.parametrize(
        "spec, threshold, exit_block",
        [
            ("fun_4||fun_6", 41, 0),  # n=7 at the search threshold
            ("fun_5", 17, 9),  # nl2 + 1: the first 16 lies in block 9
            ("fun_10", 17, 0),  # block 0 holds a 16 before its minimum 12
            ("24bc4fd3167e58de", 15, 3),  # block 4 holds an 11, below the exit value 13
            (STEP3_TABLE, 35, 167),  # no exit in the 16 head blocks; exit value 34, nl2 32
        ],
    )
    def test_early_exit_stops_after_first_block_below_threshold(self, spec, threshold, exit_block):
        halves = [resolve_function(s) for s in spec.split("||")]
        f = concatenate(*halves) if len(halves) == 2 else halves[0]
        block = 2048
        k, running = 0, threshold
        while running >= threshold:
            running = min(running, int(coset_nonlinearities(f, k * block, (k + 1) * block).min()))
            k += 1
        assert k - 1 == exit_block
        expected = int(coset_nonlinearities(f, 0, k * block).min())
        assert min_coset_nonlinearity(f, threshold) == (expected, False)
        assert _oracle_threshold_min(_oracle_block_mins(f), threshold) == (expected, False)


class TestHalvesRoute:
    """The minimum from the halves' sums s[q] = nl(f1 + q) + nl(f2 + q)
    against the oracles, and the three steps of threshold mode."""

    def assert_matches(self, f: TruthTable, block_mins: list[int], exact: int) -> None:
        assert min_coset_nonlinearity(f) == _oracle_threshold_min(block_mins, None) == (exact, True)
        for offset in (-1, 0, 1, 2, 4):
            threshold = exact + offset
            assert min_coset_nonlinearity(f, threshold) == _oracle_threshold_min(block_mins, threshold)

    @pytest.mark.parametrize("n, count", [(3, 8), (4, 8), (5, 4), (6, 3)])
    def test_random_tables_against_both_oracles(self, rng, n, count):
        for bits in random_tables(rng, count, n):
            f = TruthTable(n, bits)
            self.assert_matches(f, list(_oracle_block_mins(f)), brute_second_order_nl(bits, n))

    @pytest.mark.parametrize("spec", ["random", "fun_4||fun_6"])
    def test_n7_against_row_layout_oracle(self, rng, spec):
        if spec == "random":
            f = TruthTable(7, random_tables(rng, 1, 7)[0])
        else:
            f = concatenate(*map(catalog_function, spec.split("||")))
        block_mins = list(_oracle_block_mins(f))
        self.assert_matches(f, block_mins, min(block_mins))

    def test_catalog_concatenations_against_direct_blocks(self):
        # block minima of the direct n=7 scan, which the row-layout tests check
        for i, j in ((4, 6), (6, 4), (4, 4), (1, 8), (2, 3), (12, 15)):
            f = concatenate(catalog_function(f"fun_{i}"), catalog_function(f"fun_{j}"))
            block_mins = coset_nonlinearities(f).reshape(-1, 2048).min(axis=1).tolist()
            self.assert_matches(f, block_mins, min(block_mins))

    def test_step3_scans_on_from_the_head_blocks(self, transforms):
        # STEP3_TABLE is the first fun_4||fun_6 + q_k, k drawn by default_rng(2024)
        # from form_count(7), whose 16 head blocks hold no value below 35
        f = TruthTable.from_hex(STEP3_TABLE)
        assert min_coset_nonlinearity(f, 35) == (34, False)
        # 8 q-ranges for the 16 head blocks, 2 x 16 blocks for the halves, then
        # the q-ranges of blocks 16 .. 167 (the exit block) in the same scan:
        # 56, of which the 8 of the head are already transformed
        assert Counter(transforms) == {64: 8 + 32 + 48}

    def test_step2_returns_exact_minimum_of_halves(self, transforms):
        f = concatenate(catalog_function("fun_4"), catalog_function("fun_6"))
        assert min_coset_nonlinearity(f, 32) == (32, True)
        assert Counter(transforms) == {64: 8 + 32}

    def test_exhaustive_n7_scans_only_the_halves(self, monkeypatch):
        scans = Counter()
        scan = quadratic._scan

        def counting_scan(f, *args):
            scans[f.n] += 1
            return scan(f, *args)

        monkeypatch.setattr(quadratic, "_scan", counting_scan)
        f = concatenate(catalog_function("fun_4"), catalog_function("fun_6"))
        assert min_coset_nonlinearity(f) == (32, True)
        assert scans == {6: 2}

    def test_fresh_halves_are_not_cached(self, rng):
        quadratic.coset_values(catalog_function("fun_4"))
        before = quadratic.coset_values.cache_info().currsize
        f = TruthTable(7, random_tables(rng, 1, 7)[0])
        min_coset_nonlinearity(f)
        min_coset_nonlinearity(f, 0)
        assert quadratic.coset_values.cache_info().currsize == before


class TestRowLayoutOracle:
    """The coset-innermost scan against the earlier row-per-coset kernel."""

    def test_every_coset_n6(self, rng):
        functions = [catalog_function(name) for name in catalog_names()]
        functions += [TruthTable(6, bits) for bits in random_tables(rng, 5, 6)]
        for f in functions:
            assert f.n == 6
            assert np.array_equal(coset_nonlinearities(f), row_layout_coset_nl(f.bits, 6, 0, form_count(6)))

    def test_every_coset_small_n(self, rng):
        tables = {3: [TruthTable.from_int(3, packed).bits for packed in range(256)]}
        tables[4] = list(random_tables(rng, 512, 4))
        tables[5] = list(random_tables(rng, 64, 5))
        for n, rows in tables.items():
            for bits in rows:
                got = coset_nonlinearities(TruthTable(n, bits))
                assert np.array_equal(got, row_layout_coset_nl(bits, n, 0, form_count(n)))

    def test_n7_head_tail_and_middle_blocks(self, rng):
        total, block = form_count(7), 2048
        middle = rng.choice(np.arange(1, total // block - 1), size=3, replace=False)
        starts = [0, total - block, *(int(k) * block for k in middle)]
        functions = [
            concatenate(catalog_function("fun_4"), catalog_function("fun_6")),
            TruthTable(7, random_tables(rng, 1, 7)[0]),
        ]
        for f in functions:
            for lo in starts:
                expected = row_layout_coset_nl(f.bits, 7, lo, lo + block)
                assert np.array_equal(coset_nonlinearities(f, lo, lo + block), expected)


class TestHalvesBlocks:
    """n=7 blocks from the halves' int8 spectra against the row-layout
    oracle and the previous int16 kernel, at the edges of the int8 and
    uint8 ranges."""

    TOTAL = form_count(7)
    BLOCK = 2048

    def assert_ranges(self, f: TruthTable, ranges) -> None:
        for start, stop in ranges:
            expected = row_layout_coset_nl(f.bits, 7, start, stop)
            assert np.array_equal(coset_nonlinearities(f, start, stop), expected), (start, stop)

    def index_of(self, q6: int, linear: int) -> int:
        """The n=7 index of q + x_7 * l for a 6-variable q index and l mask."""
        pairs = QuadraticForm(6, q6).coefficient_pairs()
        pairs += tuple((i + 1, 7) for i in range(6) if (linear >> i) & 1)
        return QuadraticForm.from_pairs(7, pairs).index

    @pytest.mark.parametrize("q6, linear", [(0, 0), (5, 0), (30000, 0b100001), (12345, 0b111111)])
    def test_quadratic_pairs_reach_nl_zero(self, q6, linear):
        # f = q || q + l: nl(f + q + x_7 * l) = 0, where |W| + |W| = 64 + 64
        q = QuadraticForm(6, q6).truth_table()
        f = concatenate(q, q ^ quadratic.degree2_table(6, 0, linear))
        k = self.index_of(q6, linear)
        assert coset_nonlinearities(f, k, k + 1).tolist() == [0]
        lo = k - k % self.BLOCK
        self.assert_ranges(f, [(lo, lo + self.BLOCK), (max(k - 700, 0), k + 900)])

    def test_zero_table(self):
        f = TruthTable.zeros(7)
        self.assert_ranges(f, [(0, self.BLOCK), (self.TOTAL - self.BLOCK, self.TOTAL), (3000, 7000)])
        assert coset_nonlinearities(f, 0, 1).tolist() == [0]

    def test_bent_halves(self):
        # Maiorana-McFarland bent halves: |W| = 8 at every u
        bent = truth_table_from_anf(AnfPolynomial.from_string("x1x4+x2x5+x3x6+x4x5x6", n=6))
        from rm2cover.core import walsh_spectrum

        assert set(np.abs(walsh_spectrum(bent).values).tolist()) == {8}
        for f in (concatenate(bent, bent), concatenate(bent, bent ^ TruthTable.ones(6))):
            self.assert_ranges(f, [(0, self.BLOCK), (517 * self.BLOCK, 518 * self.BLOCK)])

    def test_last_block_and_ranges_cut_mid_block(self, rng):
        f = TruthTable(7, random_tables(rng, 1, 7)[0])
        total, block = self.TOTAL, self.BLOCK
        self.assert_ranges(
            f,
            [
                (total - block, total),
                (total - 3000, total - 7),
                (1000, 5000),
                (block + 1, 2 * block - 1),
                (77 * block + 513, 77 * block + 514),
            ],
        )

    def test_full_n7_values_match_int16_kernel(self):
        f = TruthTable.from_hex(STEP3_TABLE)
        assert np.array_equal(quadratic.coset_values(f), int16_coset_nl(f.bits, 7, 0, self.TOTAL))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_direct_blocks_match_int16_kernel(self, rng, n):
        tables = [TruthTable(n, bits) for bits in random_tables(rng, 3, n)]
        tables += [TruthTable.zeros(n), TruthTable.ones(n)]
        if n == 6:
            tables.append(catalog_function("fun_6"))
        for f in tables:
            assert np.array_equal(coset_nonlinearities(f), int16_coset_nl(f.bits, n, 0, form_count(n)))

    def test_no_128_point_transform(self, monkeypatch):
        from rm2cover import affine, claims, core, search

        points = Counter()
        fwht_rows = core.fwht_rows

        def counting(a):
            points[a.shape[0]] += 1
            fwht_rows(a)

        for module in (core, quadratic, affine):
            monkeypatch.setattr(module, "fwht_rows", counting)
        quadratic.coset_values.cache_clear()
        claims.verify_all()
        f = TruthTable.from_hex(STEP3_TABLE)
        assert search.exact_nl2_7(f, threshold=41) == (40, False)  # block 0 holds a 40
        quadratic.coset_values(f)
        assert points and max(points) <= 64

    def test_int8_transform_takes_at_most_64_points(self):
        w = np.ones((64, 3), dtype=np.int8)
        assert quadratic._abs_spectra(w)[:, 0].tolist() == [64] + [0] * 63
        with pytest.raises(ValueError):
            quadratic._abs_spectra(np.ones((128, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            quadratic._abs_spectra(np.ones((64, 3), dtype=np.int16))


def _permuted_values(vals: np.ndarray, matrix, quad_index: int) -> np.ndarray:
    """Coset values of f(Ax+b) + q_k + l from those of f: index S_A[p] ^ k
    takes the value at p."""
    out = np.empty_like(vals)
    out[quadratic.form_map(matrix) ^ quad_index] = vals
    return out


class TestFormMap:
    """S_A, the quadratic-part map of x -> Ax + b, and the coset values it permutes."""

    @pytest.mark.parametrize("i2", [4, 6])
    def test_catalog_half_values_match_direct_scan(self, i2):
        f = catalog_function(f"fun_{i2}")
        vals = coset_nonlinearities(f)
        rng = np.random.default_rng(1000 + i2)
        for _ in range(50):
            m = sample_affine_map(6, rng)
            k, l = int(rng.integers(0, form_count(6))), int(rng.integers(0, 64))
            half = apply_affine(f, m) ^ quadratic.degree2_table(6, k, l)
            assert np.array_equal(_permuted_values(vals, m.matrix, k), coset_nonlinearities(half))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_table_values_match_direct_scan(self, n):
        rng = np.random.default_rng(2000 + n)
        for bits in random_tables(rng, 6, n):
            f = TruthTable(n, bits)
            m = sample_affine_map(n, rng)
            k, l = int(rng.integers(0, form_count(n))), int(rng.integers(0, 1 << n))
            half = apply_affine(f, m) ^ quadratic.degree2_table(n, k, l)
            assert np.array_equal(_permuted_values(coset_nonlinearities(f), m.matrix, k), coset_nonlinearities(half))

    def test_row_layout_oracle_case(self):
        # no transform of the library: both arrays come from the row-layout kernel
        f = catalog_function("fun_6")
        m = random_affine_map(6, seed=61)
        k, l = 12345, 0b101101
        half = apply_affine(f, m) ^ quadratic.degree2_table(6, k, l)
        vals = row_layout_coset_nl(f.bits, 6, 0, form_count(6))
        assert np.array_equal(_permuted_values(vals, m.matrix, k), row_layout_coset_nl(half.bits, 6, 0, form_count(6)))

    def test_images_are_quadratic_parts_of_substituted_forms(self):
        # S_A[p] read off the ANF of q_p(Ax + b), for every p at n = 4
        for seed in range(4):
            m = random_affine_map(4, seed=seed)
            s_a = quadratic.form_map(m.matrix)
            for p in range(form_count(4)):
                anf = anf_from_truth_table(apply_affine(QuadraticForm(4, p).truth_table(), m))
                pairs = [tuple(sorted(mono)) for mono in anf.monomials if len(mono) == 2]
                assert max(map(len, anf.monomials), default=0) <= 2
                assert s_a[p] == QuadraticForm.from_pairs(4, pairs).index

    @pytest.mark.parametrize("n", range(2, 8))
    def test_permutation_and_identity(self, n):
        assert np.array_equal(quadratic.form_map(np.eye(n, dtype=np.uint8)), np.arange(form_count(n)))
        s_a = quadratic.form_map(random_affine_map(n, seed=n).matrix)
        assert np.array_equal(np.sort(s_a), np.arange(form_count(n)))


class TestProfiles:
    def test_zero_function(self):
        profile = nfh_profile(TruthTable.zeros(6))
        assert profile.count(0) == 1
        assert profile.min_r == 0
        assert profile.max_r == 28

    def test_confirmed_catalog_profiles(self):
        # entries that recomputation confirms, frozen here
        assert nfh_profile(catalog_function("fun_3")).counts == {16: 448, 20: 16128, 24: 16128, 28: 64}
        assert nfh_profile(catalog_function("fun_6")).counts == {
            16: 224, 18: 1792, 20: 8640, 22: 14080, 24: 7520, 26: 512,
        }
        p8 = nfh_profile(catalog_function("fun_8"))
        assert p8.count(15) == 112 and p8.count(27) == 64

    def test_sum_identity_enforced(self):
        with pytest.raises(ValueError):
            NlProfile(6, {16: 1})
        with pytest.raises(ValueError):
            NlProfile(6, {15: 1, 16: 32767})  # mixed parity

    def test_profile_min_matches_nl2(self, rng):
        functions = [catalog_function("fun_4"), catalog_function("fun_12")]
        functions += [TruthTable(6, bits) for bits in random_tables(rng, 5, 6)]
        for f in functions:
            assert nfh_profile(f).min_r == second_order_nonlinearity(f)

    def test_profile_parity_matches_weight(self, rng):
        from rm2cover import weight

        for bits in random_tables(rng, 5, 6):
            t = TruthTable(6, bits)
            parities = {r & 1 for r in nfh_profile(t).counts}
            assert parities == {weight(t) & 1}

    def test_profile_reads_the_one_cached_scan(self, transforms):
        f = catalog_function("fun_6")
        profile = nfh_profile(f)
        assert transforms == [64] * 16  # 2^15 cosets in blocks of 2048, each transformed once
        transforms.clear()
        assert nfh_profile(f) == profile
        assert max_nl_over_quadratics(f) == profile.max_r
        assert transforms == []  # both read the cached coset values
        small = TruthTable.from_int(4, 0x6A3C)
        small_profile = nfh_profile(small)
        assert transforms == [16]
        expected = np.unique(row_layout_coset_nl(small.bits, 4, 0, 64), return_counts=True)
        assert small_profile.counts == dict(zip(*expected))

    def test_profile_cached_with_the_scan_and_read_only(self):
        f = catalog_function("fun_5")
        profile = nfh_profile(f)
        assert nfh_profile(catalog_function("fun_5")) is profile
        with pytest.raises(TypeError):
            profile.counts[16] = 0
        other = nfh_profile(catalog_function("fun_3"))
        merged = profile.counts | other.counts
        assert type(merged) is dict and set(merged) == set(profile.counts) | set(other.counts)
        assert profile == NlProfile(6, dict(profile.counts)) and profile.counts == dict(profile.counts)
        quadratic.coset_values.cache_clear()  # drops the profiles with the arrays
        again = nfh_profile(f)
        assert again is not profile and again == profile

    def test_affine_invariance(self, rng):
        from rm2cover.claims import _random_degree2

        for name in ("fun_1", "fun_3", "fun_8"):
            f = catalog_function(name)
            reference = nfh_profile(f)
            for seed in range(3):
                m = random_affine_map(6, seed=seed)
                g = _random_degree2(6, rng)
                assert nfh_profile(apply_affine(f, m) ^ g) == reference

    def test_coset_values_cached_and_read_only(self):
        f = catalog_function("fun_7")
        vals = quadratic.coset_values(f)
        assert quadratic.coset_values(catalog_function("fun_7")) is vals
        assert not vals.flags.writeable
        assert np.array_equal(vals, coset_nonlinearities(f))
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 0

    def test_coset_values_range_query(self, rng):
        f = catalog_function("fun_9")
        full = coset_nonlinearities(f)
        pieces = [coset_nonlinearities(f, a, b) for a, b in ((0, 5000), (5000, 20000), (20000, 32768))]
        assert np.array_equal(np.concatenate(pieces), full)
        assert coset_nonlinearities(f, 100, 100).size == 0


class TestTableCache:
    @pytest.fixture
    def fake_scan(self, monkeypatch):
        """Every scan returns a fresh right-sized array of zeros at once."""
        monkeypatch.setattr(quadratic, "_scan", lambda f, *args: iter([np.zeros(form_count(f.n), dtype=np.uint8)]))
        quadratic.coset_values.cache_clear()
        yield
        quadratic.coset_values.cache_clear()  # drop the fake arrays

    def test_bounded_by_bytes(self, fake_scan, rng):
        catalog = list(dict.fromkeys(catalog_function(name) for name in catalog_names()))  # 24 names, 23 tables
        for f in catalog * 2:  # all of them fit
            quadratic.coset_values(f)
        assert quadratic.coset_values.cache_info().misses == len(catalog) == 23
        tables = [TruthTable(7, bits) for bits in random_tables(rng, 70, 7)]
        refs = [weakref.ref(quadratic.coset_values(f)) for f in tables]
        live = [r() for r in refs if r() is not None]  # only the cache holds them
        info = quadratic.coset_values.cache_info()
        assert sum(a.nbytes for a in live) == info.nbytes <= quadratic.CACHE_BYTES
        assert info.misses == 23 + 70 and info.currsize == len(live) >= 1
        assert refs[-1]() is not None and refs[0]() is None  # the oldest go first
        assert quadratic.coset_values(tables[-1]) is refs[-1]()

    def test_array_above_the_bound_is_not_kept(self, fake_scan, monkeypatch):
        monkeypatch.setattr(quadratic._TABLES, "max_bytes", 1 << 20)
        f = TruthTable.zeros(7)
        assert quadratic.coset_values(f).size == 1 << 21
        assert quadratic.coset_values.cache_info()[1:] == (1, 0, 0)  # misses, currsize, nbytes

    def test_threads_share_one_entry(self):
        quadratic.coset_values.cache_clear()
        names = ("fun_3", "fun_4", "fun_9")

        def read(i):
            f = catalog_function(names[i % 3])
            return f, quadratic.coset_values(f), nfh_profile(f)

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(read, range(12), timeout=60))
        for f, vals, profile in results:
            assert quadratic.coset_values(f) is vals and nfh_profile(f) is profile
        info = quadratic.coset_values.cache_info()
        assert info.currsize == 3 and info.nbytes == 3 * form_count(6)

    def test_threads_keep_the_accounting(self, fake_scan, monkeypatch, rng):
        # eight threads over 40 tables, ten of which fit: a lost update
        # of the counts or the byte total breaks the identities below
        monkeypatch.setattr(quadratic._TABLES, "max_bytes", 10 * form_count(6))
        tables = [TruthTable(6, bits) for bits in random_tables(rng, 40, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                list(pool.map(lambda i: nfh_profile(tables[i % 40]), range(2000), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        info = quadratic.coset_values.cache_info()
        assert info.hits + info.misses == 2000
        assert info.nbytes == info.currsize * form_count(6) <= 10 * form_count(6)


class TestDegree2Table:
    @staticmethod
    def expected(n, k, mask, constant):
        """The ANF route: q_k's table XOR the parity of (x & mask) XOR the constant."""
        linear = np.array([bin(x & mask).count("1") & 1 for x in range(1 << n)], dtype=np.uint8)
        return QuadraticForm(n, k).truth_table().bits ^ linear ^ constant

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_triple_small_n(self, n):
        for k in range(form_count(n)):
            for mask in range(1 << n):
                for constant in (0, 1):
                    got = quadratic.degree2_table(n, k, mask, constant)
                    assert np.array_equal(got.bits, self.expected(n, k, mask, constant)), (k, mask, constant)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_seeded_triples(self, n):
        rng = np.random.default_rng(900 + n)
        for _ in range(500):
            k, mask, constant = int(rng.integers(0, form_count(n))), int(rng.integers(0, 1 << n)), int(rng.integers(0, 2))
            got = quadratic.degree2_table(n, k, mask, constant)
            assert np.array_equal(got.bits, self.expected(n, k, mask, constant)), (k, mask, constant)

    def test_zero_form(self):
        for n in range(2, 8):
            assert quadratic.degree2_table(n, 0, 0) == TruthTable.zeros(n)
            assert quadratic.degree2_table(n, 0, 0, 1) == TruthTable.ones(n)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            quadratic.degree2_table(6, form_count(6), 0)
        with pytest.raises(ValueError, match="out of range"):
            quadratic.degree2_table(6, -1, 0)


class TestLevelSets:
    def test_zero_function_level_zero(self):
        level = fh_set(TruthTable.zeros(6), 0)
        assert level.count == 1
        assert level.members().tolist() == [0]
        assert 0 in level

    def test_catalog_level_counts(self):
        assert fh_set(catalog_function("fun_3"), 28).count == 64
        assert fh_set(catalog_function("fun_8"), 15).count == 112

    def test_members_consistent_with_profile_and_direct_nl(self, rng):
        f = catalog_function("fun_3")
        level = fh_set(f, 16)
        assert level.count == nfh_profile(f).count(16)
        members = level.members()
        sample = rng.choice(members, size=100, replace=True)
        for index in sample:
            q = QuadraticForm(6, int(index)).truth_table()
            assert nonlinearity(f ^ q) == 16

    def test_hex_round_trip(self):
        level = fh_set(catalog_function("fun_3"), 28)
        text = level.to_hex()
        assert len(text) == form_count(6) // 4
        unpacked = int(text, 16)
        mask = np.array([(unpacked >> k) & 1 for k in range(form_count(6))], dtype=bool)
        assert np.array_equal(mask, level.mask)

    def test_subset_reflexive(self):
        vals = coset_nonlinearities(catalog_function("fun_4"))
        assert level_set_outside(vals, 16, vals, {16}) is None

    def test_subset_failure_with_witness(self):
        f = catalog_function("fun_3")
        vals = coset_nonlinearities(f)
        witness = level_set_outside(vals, 16, vals, {26})
        assert witness == int(np.flatnonzero(vals == 16)[0])  # the first member, as fun_3 has no 26
        q = QuadraticForm(6, witness).truth_table()
        assert nonlinearity(f ^ q) == 16  # witness really is in the r=16 set

    def test_subset_sampled_cross_check(self, rng):
        f_i = catalog_function("fun_4")
        f_j = catalog_function("fun_6")
        rs = {20, 22, 24, 26}
        witness = level_set_outside(coset_nonlinearities(f_i), 18, coset_nonlinearities(f_j), rs)
        members = fh_set(f_i, 18).members()
        sample = rng.choice(members, size=100, replace=True)
        if witness is None:
            for index in sample:
                q = QuadraticForm(6, int(index)).truth_table()
                assert nonlinearity(f_j ^ q) in rs
        else:
            q = QuadraticForm(6, witness).truth_table()
            assert nonlinearity(f_i ^ q) == 18
            assert nonlinearity(f_j ^ q) not in rs


class TestMaxOverQuadratics:
    def test_zero_function_reaches_bent(self):
        assert max_nl_over_quadratics(TruthTable.zeros(6)) == 28

    def test_catalog_values(self):
        assert max_nl_over_quadratics(catalog_function("fun_1")) == 22
        assert max_nl_over_quadratics(catalog_function("fun_8")) == 27

    def test_matches_profile_max(self, rng):
        for bits in random_tables(rng, 5, 6):
            t = TruthTable(6, bits)
            assert max_nl_over_quadratics(t) == nfh_profile(t).max_r
