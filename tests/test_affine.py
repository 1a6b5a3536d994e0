import gc
import hashlib
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from rm2cover import (
    AffineMap,
    EquivalenceWitness,
    TruthTable,
    anf_from_truth_table,
    apply_affine,
    catalog_function,
    degree,
    equivalence_search,
    is_invertible,
    nonlinearity,
    random_affine_map,
    truth_table_from_anf,
    weight,
)
from rm2cover import affine
from rm2cover.affine import (
    BUDGET_EXHAUSTED,
    DEFAULT_SEARCH_BUDGET,
    FOUND,
    NOT_FOUND,
    _class_labels,
    _derivative_invariants,
    _shared_labels,
    automorphisms,
    sample_affine_map,
)
from rm2cover.catalog import catalog_names
from rm2cover.claims import _random_degree2
from rm2cover.quadratic import coset_values
from oracles import (
    brute_automorphisms,
    derivative_walsh_keys,
    gl2_order_fraction,
    numpy_is_invertible,
    random_tables,
    sorted_row_labels,
    third_derivative_weights,
)


class TestInvertibility:
    def test_identity(self):
        assert is_invertible(np.eye(6, dtype=np.uint8))

    def test_zero(self):
        assert not is_invertible(np.zeros((6, 6), dtype=np.uint8))

    def test_duplicate_rows(self, rng):
        m = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        m[3] = m[1]
        assert not is_invertible(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_invertible(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            is_invertible(np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_small_matrix_matches_oracle(self, n):
        codes = np.arange(1 << (n * n), dtype=np.uint32)
        mats = ((codes[:, None] >> np.arange(n * n, dtype=np.uint32)) & 1).astype(np.uint8).reshape(-1, n, n)
        got = [is_invertible(m) for m in mats]
        assert got == [numpy_is_invertible(m) for m in mats]
        assert sum(got) / len(got) == pytest.approx(gl2_order_fraction(n))  # exact: |GL(n,2)| / 2**(n*n)

    @pytest.mark.parametrize("n", [6, 7])
    def test_seeded_matrices_match_oracle(self, n):
        rng = np.random.default_rng(700 + n)
        mats = rng.integers(0, 2, size=(2000, n, n), dtype=np.uint8)
        got = [is_invertible(m) for m in mats]
        assert got == [numpy_is_invertible(m) for m in mats]
        assert 0 < sum(got) < len(got)

    def test_unreduced_entries_and_empty_matrix(self):
        # entries are taken mod 2, as a uint8 array
        for matrix in ([[3, 2], [0, 1]], np.zeros((0, 0), dtype=np.uint8)):
            assert is_invertible(matrix) and numpy_is_invertible(matrix)


class TestAffineMap:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(3, np.zeros((3, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    def test_random_maps_are_invertible_and_deterministic(self):
        for seed in range(50):
            m = random_affine_map(6, seed=seed)
            assert is_invertible(m.matrix)
        a = random_affine_map(6, seed=123)
        b = random_affine_map(6, seed=123)
        assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.offset, b.offset)

    def test_uniform_matrix_acceptance_rate(self):
        # fraction of invertible uniform matrices vs the analytic product
        expected = gl2_order_fraction(6)
        rng = np.random.default_rng(99)
        hits = sum(
            is_invertible(rng.integers(0, 2, size=(6, 6), dtype=np.uint8)) for _ in range(1000)
        )
        assert abs(hits / 1000 - expected) < 0.06
        assert abs(expected - 0.2934) < 5e-4  # the analytic value itself

    def test_sampled_map_rank_tested_once_per_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(affine, "is_invertible", lambda a: calls.append(a) or is_invertible(a))

        class CountingRng:
            def __init__(self, seed):
                self.rng, self.matrices = np.random.default_rng(seed), 0

            def integers(self, *args, size, **kwargs):
                self.matrices += isinstance(size, tuple)  # (n, n): a matrix, n: the offset
                return self.rng.integers(*args, size=size, **kwargs)

        for seed in range(40):
            calls.clear()
            rng = CountingRng(seed)
            m = sample_affine_map(6, rng)
            assert len(calls) == rng.matrices and calls[-1] is m.matrix
            assert not m.matrix.flags.writeable and not m.offset.flags.writeable
            # the constructor still tests, accepts the map and gives the same one
            assert m.as_json_dict() == AffineMap(6, m.matrix, m.offset).as_json_dict()
            assert len(calls) == rng.matrices + 1

    def test_json_form(self):
        m = AffineMap.identity(3)
        d = m.as_json_dict()
        assert d == {"A": ["1", "2", "4"], "b": "0"}
        assert json.dumps(d)


class TestApplyAffine:
    def test_identity_map(self):
        f = catalog_function("fun_5")
        assert apply_affine(f, AffineMap.identity(6)) == f

    def test_translation_only_permutes(self):
        f = catalog_function("fun_5")
        m = AffineMap(6, np.eye(6, dtype=np.uint8), np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8))
        g = apply_affine(f, m)
        assert weight(g) == weight(f)
        idx = np.arange(64, dtype=np.uint32)
        assert np.array_equal(g.bits, f.bits[idx ^ 1])  # g(x) = f(x + e1)

    def test_metric_invariance(self, rng):
        for n in (6, 7):
            bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
            f = TruthTable(n, bits)
            for seed in range(5):
                m = random_affine_map(n, seed=seed)
                g = apply_affine(f, m)
                assert nonlinearity(g) == nonlinearity(f)
                assert weight(g) == weight(f)
                assert degree(g) == degree(f)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_affine(TruthTable.zeros(5), AffineMap.identity(6))


class TestEquivalenceSearch:
    def test_self_equivalence_gives_identity(self):
        f = catalog_function("fun_3")
        result = equivalence_search(f, f)
        assert result.status == FOUND
        assert result.witness.map.is_identity()
        assert result.witness.g.monomials == frozenset()

    def test_degree2_gap_shortcut(self):
        f1 = truth_table_from_anf(anf_from_truth_table(catalog_function("fun_4")))
        f2 = f1 ^ truth_table_from_anf(anf_from_truth_table(TruthTable.zeros(6)))
        low = TruthTable(6, (np.arange(64) % 2).astype(np.uint8))  # x1, degree 1
        result = equivalence_search(f1, f1 ^ low)
        assert result.status == FOUND
        assert result.witness.map.is_identity()
        assert result.witness.g.degree <= 2

    def test_constructed_instances_found_and_verified(self):
        # 100 random (map, degree-2 addition) instances across the catalog
        names = [f"fun_{i}" for i in range(1, 9)]
        rng = np.random.default_rng(42)
        for trial in range(100):
            f = catalog_function(names[trial % len(names)])
            m = sample_affine_map(6, rng)
            q = _random_degree2(6, rng)
            target = apply_affine(f, m) ^ q
            result = equivalence_search(f, target)
            assert result.status == FOUND, f"trial {trial}: {result}"
            assert result.witness.substitute(f) == target

    def test_inequivalent_catalog_pair_rejected_without_search(self):
        result = equivalence_search(catalog_function("fun_4"), catalog_function("fun_6"))
        assert result.status == NOT_FOUND
        assert result.nodes == 0
        assert "mismatch" in result.reason

    def test_profiles_differ_means_not_found(self):
        # the two halves of the documented fingerprint: degree and profile
        result = equivalence_search(catalog_function("fun_1"), catalog_function("fun_3"))
        assert result.status == NOT_FOUND
        assert result.nodes == 0

    def test_equivalent_composites(self):
        # top_fun_7 turns out to be equivalent to fun_2; the witness verifies
        f = catalog_function("fun_2")
        target = catalog_function("top_fun_7")
        result = equivalence_search(f, target)
        assert result.status == FOUND
        assert result.witness.substitute(f) == target

    def test_failed_witness_check_raises(self, monkeypatch):
        # the check is explicit, so it also runs under python -O
        monkeypatch.setattr(EquivalenceWitness, "substitute", lambda self, f1: TruthTable.zeros(6))
        with pytest.raises(RuntimeError, match="witness fails its own check"):
            equivalence_search(catalog_function("fun_2"), catalog_function("top_fun_7"))

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(1)
        f = catalog_function("fun_4")
        target = apply_affine(f, sample_affine_map(6, rng)) ^ _random_degree2(6, rng)
        result = equivalence_search(f, target, budget=3)
        assert result.status == BUDGET_EXHAUSTED
        assert result.nodes == 4  # stopped right after crossing the budget

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, budget):
        f = catalog_function("fun_4")
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            equivalence_search(f, f, budget=budget)

    def test_rejects_seven_variables(self):
        with pytest.raises(ValueError):
            equivalence_search(TruthTable.zeros(7), TruthTable.zeros(7))

    def test_witness_serialization(self):
        f = catalog_function("fun_12")
        result = equivalence_search(f, f)
        payload = result.witness.as_json_dict()
        assert set(payload) == {"A", "b", "g"}
        assert json.dumps(payload)


def _member(f, seed):
    """f(Ax + b) + q for a seeded invertible A, translation b and degree-2 q."""
    rng = np.random.default_rng(seed)
    return apply_affine(f, sample_affine_map(f.n, rng)) ^ _random_degree2(f.n, rng)


def _table(n, seed):
    return TruthTable(n, np.random.default_rng([n, seed]).integers(0, 2, 1 << n, dtype=np.uint8))


def _budget_target():
    rng = np.random.default_rng(1)
    return apply_affine(catalog_function("fun_4"), sample_affine_map(6, rng)) ^ _random_degree2(6, rng)


# name: (inputs, budget, (status, reason, nodes, witness)), the expected
# tuple recorded with the gather-based invariants and five block checks
# per depth.  An exhausted search is reached only with a patched Moebius
# transform (test_search_exhausted).
PINNED = {
    "degree": (
        lambda: (catalog_function("fun_1"), catalog_function("fun_4")),
        DEFAULT_SEARCH_BUDGET,
        (NOT_FOUND, "degree mismatch of the degree->=3 part", 0, None),
    ),
    "derivative-spectrum": (
        lambda: (catalog_function("fun_4"), catalog_function("fun_9")),
        DEFAULT_SEARCH_BUDGET,
        (NOT_FOUND, "derivative-spectrum multiset mismatch", 0, None),
    ),
    "profile": (
        lambda: (catalog_function("fun_2"), catalog_function("top_fun_5")),
        DEFAULT_SEARCH_BUDGET,
        (NOT_FOUND, "coset-nonlinearity profile mismatch", 0, None),
    ),
    "budget-3": (
        lambda: (catalog_function("fun_4"), _budget_target()),
        3,
        (BUDGET_EXHAUSTED, None, 4, None),
    ),
    "found-n4": (
        lambda: (_table(4, 0), _member(_table(4, 0), 0)),
        DEFAULT_SEARCH_BUDGET,
        (FOUND, None, 7, {"A": ["5", "6", "4", "8"], "b": "0", "g": "x1+x2+x3+x4+x1x2+x1x4+x2x3+x2x4"}),
    ),
    "found-n5": (
        lambda: (_table(5, 0), _member(_table(5, 0), 0)),
        DEFAULT_SEARCH_BUDGET,
        (FOUND, None, 45, {"A": ["3", "c", "12", "2", "8"], "b": "14", "g": "1+x1+x2+x5+x1x3+x2x3+x4x5"}),
    ),
    "found-fun_15": (
        lambda: (catalog_function("fun_15"), _member(catalog_function("fun_15"), 4)),
        DEFAULT_SEARCH_BUDGET,
        (
            FOUND,
            None,
            1856,
            {
                "A": ["b", "4", "18", "32", "38", "22"],
                "b": "4",
                "g": "x1+x2+x3+x4+x5+x6+x1x2+x1x3+x1x6+x2x5+x3x5+x3x6+x4x5",
            },
        ),
    ),
    "found-fun_2-top_fun_7": (
        lambda: (catalog_function("fun_2"), catalog_function("top_fun_7")),
        DEFAULT_SEARCH_BUDGET,
        (FOUND, None, 65, {"A": ["1", "c", "10", "30", "8", "2"], "b": "2", "g": "x1x5+x2x5+x2x6"}),
    ),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_search_pinned(case):
    inputs, budget, expected = PINNED[case]
    result = equivalence_search(*inputs(), budget=budget)
    witness = None if result.witness is None else result.witness.as_json_dict()
    assert (result.status, result.reason, result.nodes, witness) == expected


def _digest_cases(workloads):
    equiv = workloads.WORKLOADS["equiv"]
    for slot in range(equiv.slots):
        for member in (0, 21, 42, 63):
            f1, f2, _ = equiv.make_input((slot, member))
            yield f1, f2, DEFAULT_SEARCH_BUDGET
    fun_15 = catalog_function("fun_15")
    for member in range(8):
        yield fun_15, _member(fun_15, member), DEFAULT_SEARCH_BUDGET
    # budget-limited: at the first node, in the first levels, deep in a long search
    yield catalog_function("fun_4"), _budget_target(), 3
    yield fun_15, _member(fun_15, 3), 200
    yield fun_15, _member(fun_15, 3), 20000


# SHA-256 of the (status, reason, nodes, witness) list of _digest_cases,
# recorded with the sorted-row class labels and per-candidate checks
SEARCH_RESULTS_DIGEST = "433513fac192b7e677b3c070ade29a97559ee8faf8974c2ba8fdf125c1046d8c"


def test_search_results_digest(bench_workloads):
    records = []
    for f1, f2, budget in _digest_cases(bench_workloads):
        result = equivalence_search(f1, f2, budget=budget)
        witness = None if result.witness is None else result.witness.as_json_dict()
        records.append([result.status, result.reason, result.nodes, witness])
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_RESULTS_DIGEST


def test_search_exhausted(monkeypatch):
    # no translation passes, so the backtracking runs to its end
    monkeypatch.setattr(affine, "_moebius", lambda bits: np.ones_like(bits))
    result = equivalence_search(_table(4, 0), _table(4, 0))
    assert (result.status, result.reason, result.nodes, result.witness) == (NOT_FOUND, None, 24892, None)


def _skewed_counts(skew):
    """``affine._value_counts`` with ``skew`` applied to the second side's counts."""
    counts = affine._value_counts

    def patched(t1, t2):
        h1, h2 = counts(t1, t2)
        h2 = h2.copy()
        skew(h2)
        return h1, h2

    return patched


def _recolour_direction(h):
    # every pair row of direction 1 gains an entry of the first value:
    # direction 1's histogram changes
    h[0, :, 1] += 1


def _swap_within_direction(h):
    # an entry of the first value moves between two equal pair rows of
    # direction 1: its histogram stays, the multiset of pair rows does not.
    # h is symmetric in its direction axes and the search sums a
    # direction's histogram over the first of them, so the rows of
    # direction 1 are taken as h[:, a, 1]
    rows = h[:, :, 1].T
    a1, a2 = next(
        (a1, a2) for a1, a2 in combinations(range(len(rows)), 2) if (rows[a1] == rows[a2]).all() and rows[a2, 0]
    )
    h[0, a1, 1] += 1
    h[0, a2, 1] -= 1


@pytest.mark.parametrize("skew, nodes", [(_recolour_direction, 0), (_swap_within_direction, 48)])
def test_class_multiset_mismatch(monkeypatch, skew, nodes):
    # no invariant check compares the class multisets: the skewed labels
    # prune every candidate, so the search ends not found
    monkeypatch.setattr(affine, "_value_counts", _skewed_counts(skew))
    f = catalog_function("fun_4")
    result = equivalence_search(f, f)
    assert (result.status, result.reason, result.nodes, result.witness) == (NOT_FOUND, None, nodes, None)


def test_found_search_leaves_no_reference_cycle():
    # a cycle through the recursive search closure would keep the
    # derivative tensors alive until the next cyclic collection
    f = catalog_function("fun_4")
    target = _member(f, 5)
    gc.collect()
    gc.disable()
    try:
        assert equivalence_search(f, target).status == FOUND
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_shared_labels_match_row_equality(dtype):
    rng = np.random.default_rng(12)
    pool = rng.integers(0, 3, size=(12, 4)).astype(dtype)
    rows1 = pool[rng.integers(0, 8, 40)]  # pool rows 4..7 may land on both sides
    rows2 = pool[rng.integers(4, 12, 30)]
    labels1, labels2 = _shared_labels(rows1, rows2)
    shared = set(labels1.tolist()) & set(labels2.tolist())
    assert shared and set(labels1.tolist()) - shared and set(labels2.tolist()) - shared
    rows = np.concatenate([rows1, rows2])
    labels = np.concatenate([labels1, labels2])
    assert np.array_equal(labels[:, None] == labels, (rows[:, None] == rows).all(axis=2))


def test_fresh_target_not_cached():
    # only f1 repeats across calls, so only f1's coset values are cached
    f1 = catalog_function("fun_6")
    coset_values.cache_clear()
    result = equivalence_search(f1, _member(f1, 99))
    assert result.status == FOUND
    assert coset_values.cache_info().currsize <= 1


class TestDerivativeInvariants:
    @staticmethod
    def check(f):
        w2, t = _derivative_invariants(f)
        assert np.array_equal(w2, derivative_walsh_keys(f.bits, f.n).astype(np.int64) ** 2)
        assert np.array_equal(t, third_derivative_weights(f.bits, f.n))
        assert all(np.array_equal(t, t.transpose(p)) for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
        diag = np.arange(1 << f.n)
        assert not t[diag, diag].any() and not t[0].any()
        assert not (t % 8).any()  # what keeps _class_labels' pair codes within int64

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_gather_oracles(self, name):
        self.check(catalog_function(name))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_tables_match_gather_oracles(self, n):
        for bits in random_tables(np.random.default_rng(n), 3, n):
            self.check(TruthTable(n, bits))


def _same_partition(labels, oracle):
    """Equal labels exactly where the oracle's labels are equal."""
    pairs = set(zip(labels.ravel().tolist(), oracle.ravel().tolist()))
    return len(pairs) == len(set(labels.ravel().tolist())) == len(set(oracle.ravel().tolist()))


class TestClassLabels:
    """The counted direction and pair labels partition directions and pairs
    as the sorted-row labels did."""

    @staticmethod
    def check(inv1, inv2):
        cls1, cls2, pair1, pair2 = _class_labels(*inv1, *inv2)
        ocls1, ocls2, opair1, opair2 = sorted_row_labels(*inv1, *inv2)
        assert _same_partition(np.concatenate([cls1, cls2]), np.concatenate([ocls1, ocls2]))
        assert _same_partition(np.stack([pair1, pair2]), np.stack([opair1, opair2]))

    def test_every_catalog_pair(self):
        invariants = [_derivative_invariants(catalog_function(name)) for name in catalog_names()]
        for i, inv1 in enumerate(invariants):
            for inv2 in invariants[i:]:
                self.check(inv1, inv2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_tables(self, n):
        tables = [TruthTable(n, bits) for bits in random_tables(np.random.default_rng(30 + n), 8, n)]
        tables = [f for f in tables if degree(f) > 2]  # the search labels no others
        assert len(tables) > 2
        for f1, f2 in zip(tables, tables[1:]):
            self.check(_derivative_invariants(f1), _derivative_invariants(f2))
            self.check(_derivative_invariants(f1), _derivative_invariants(_member(f1, n)))


def test_found_search_memory_peak():
    # the cube check runs one survivor at a time; batched over the fresh
    # candidates of a depth, it gathers up to 63 x 2^d x 4^(d+1) entries
    # at once and peaks at about 7 MB here
    f = catalog_function("fun_4")
    target = _member(f, 5)
    coset_values(f)  # the cached scan of f1 is not part of the search
    tracemalloc.start()
    try:
        assert equivalence_search(f, target).status == FOUND
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


class TestAutomorphisms:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_match_brute_force_over_agl4(self, seed):
        # every witness has passed its own substitution check
        f = _table(4, seed)
        found = [(w.map.matrix.tobytes(), int(w.map.offset @ (1 << np.arange(4)))) for w in automorphisms(f)]
        assert len(found) == len(set(found))
        assert sorted(found) == sorted(brute_automorphisms(f.bits, 4))

    def test_order_starts_with_the_search_witness(self):
        f = _table(4, 0)
        first = next(automorphisms(f))
        assert first.as_json_dict() == equivalence_search(f, f).witness.as_json_dict()

    def test_degree2_rejected(self):
        with pytest.raises(ValueError, match="every affine map"):
            automorphisms(catalog_function("fun_4") ^ catalog_function("fun_4"))
