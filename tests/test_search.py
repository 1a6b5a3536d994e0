import hashlib
import itertools
import json
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rm2cover import (
    SearchConfig,
    TruthTable,
    catalog_function,
    concatenate,
    exact_nl2_7,
    witness_search,
)
from rm2cover.quadratic import QuadraticForm, form_count

# SHA-256 of the canonical summary-plus-records JSON of witness_search at
# budget 20 with every candidate exact-checked, keyed by (i1, i2, seed);
# recorded when each candidate half was still scanned directly
RECORD_STREAM_DIGESTS = {
    (4, 4, 1): "cff10b89e76d0de82f026dd3e09306bd94252856906624a8c5aca8a1dab30fe8",
    (4, 4, 2): "a840e43717b23850835b6d519bcbcccefc142bbced44a8000427998e77425b92",
    (4, 6, 1): "747147f50ff4dcfa681fc31bd349c3457620cf36f726851699453a1e4bf6b9d8",
    (4, 6, 2): "2c262f2326e202c8a8ed204db4599d9d17304a17d4bc8d2f24eef02fab0322df",
    (6, 4, 1): "01b5575326346fe3ace9240428a1c29c18ab64b0f40d6cb2a29d8d53dec20475",
    (6, 4, 2): "e197542e234db4af4bf870c2521edbaa5f18685a192fec0a47bdfd967d6e7a57",
    (6, 6, 1): "96cdef5d4710950a31a822bb55174b925ed10d9b44f10dbdf9627d3691e4eeac",
    (6, 6, 2): "f1ee5bbbe65c1a6af1fa4d640616b84daa36fd11aaada7fffa9c545f8b6f246e",
}


class TestExactKernel:
    def test_low_degree_is_zero(self):
        q = QuadraticForm(7, 12345).truth_table()
        assert exact_nl2_7(q) == (0, True)

    def test_regression_constant(self):
        # frozen from the first full run: a 7-variable function that ignores
        # its top variable doubles the 6-variable distance (2 * 18)
        f1 = catalog_function("fun_1")
        assert exact_nl2_7(concatenate(f1, f1)) == (36, True)

    def test_threshold_semantics(self):
        f = concatenate(catalog_function("fun_1"), catalog_function("fun_1"))
        bounded = exact_nl2_7(f, threshold=37)
        assert not bounded.exact and bounded.value < 37
        at_minimum = exact_nl2_7(f, threshold=36)
        assert at_minimum == (36, True)  # nothing drops below the true minimum

    def test_upper_bound_44_on_random_functions(self, rng):
        for _ in range(3):
            f = TruthTable(7, rng.integers(0, 2, size=128, dtype=np.uint8))
            result = exact_nl2_7(f, threshold=45)
            assert result.value <= 44

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            exact_nl2_7(TruthTable.zeros(6))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(i1=5, i2=4)
        with pytest.raises(ValueError):
            SearchConfig(budget=0)
        with pytest.raises(ValueError):
            SearchConfig(threads=0)
        # the exact-check threshold is fixed, not a setting
        with pytest.raises(TypeError, match="threshold"):
            SearchConfig(threshold=41)


class TestWitnessSearch:
    @pytest.mark.parametrize("i1, i2, seed", sorted(RECORD_STREAM_DIGESTS))
    def test_record_stream_digest(self, i1, i2, seed):
        records = []
        summary = witness_search(
            SearchConfig(i1=i1, i2=i2, seed=seed, budget=20, fail_check_rate=1), on_record=records.append
        )
        canonical = {"summary": summary.as_json_dict(), "records": [r.as_json_dict() for r in records]}
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == RECORD_STREAM_DIGESTS[(i1, i2, seed)]

    def test_deterministic_record_stream(self):
        def run():
            records = []
            summary = witness_search(
                SearchConfig(i1=4, i2=6, seed=99, budget=5, fail_check_rate=2),
                on_record=lambda r: records.append(json.dumps(r.as_json_dict())),
            )
            return records, summary.as_json_dict()

        first, summary1 = run()
        second, summary2 = run()
        assert first == second
        assert summary1 == summary2
        assert summary1["candidates"] == 5

    def test_threads_do_not_change_results(self):
        def run(threads):
            records = []
            witness_search(
                SearchConfig(i1=6, i2=6, seed=3, budget=4, fail_check_rate=2, threads=threads),
                on_record=lambda r: records.append(json.dumps(r.as_json_dict())),
            )
            return records

        assert run(1) == run(2)

    def test_filter_consistency_on_all_candidates(self):
        # exact-check every candidate: pass => 42 and fail => <= 40 must hold
        # (the run raises on any violation)
        summary = witness_search(SearchConfig(i1=4, i2=4, seed=17, budget=8, fail_check_rate=1))
        assert summary.exact_checked == 8
        assert summary.candidates == 8
        assert (summary.max_nl2_exact or 0) <= 42

    def test_fun_i1_scanned_once_across_calls(self, monkeypatch):
        from rm2cover import quadratic

        f4 = catalog_function("fun_4")
        scanned = []
        scan = quadratic._scan

        def counting_scan(f, *args):
            scanned.append(f)
            return scan(f, *args)

        monkeypatch.setattr(quadratic, "_scan", counting_scan)
        quadratic.coset_values.cache_clear()
        for seed in (1, 2):
            witness_search(SearchConfig(i1=4, i2=6, seed=seed, budget=1))
        assert scanned.count(f4) == 1

    def test_candidate_halves_are_not_scanned(self, monkeypatch):
        # with fun_i1 and fun_i2 cached, condition 2 permutes fun_i2's array:
        # the one n=7 scan is the exact check of the first failure, which
        # exits in its head blocks
        from rm2cover import quadratic

        quadratic.coset_values(catalog_function("fun_4"))
        quadratic.coset_values(catalog_function("fun_6"))
        scans = Counter()
        scan = quadratic._scan

        def counting_scan(f, *args):
            scans[f.n] += 1
            return scan(f, *args)

        monkeypatch.setattr(quadratic, "_scan", counting_scan)
        summary = witness_search(SearchConfig(i1=4, i2=6, seed=1, budget=20))
        assert summary.candidates == 20 and summary.exact_checked == 1
        assert scans == {7: 1}

    def test_records_carry_full_candidate(self):
        records = []
        witness_search(
            SearchConfig(i1=6, i2=4, seed=1, budget=2, fail_check_rate=1),
            on_record=records.append,
        )
        for record in records:
            payload = record.as_json_dict()
            assert len(payload["A"]) == 6
            assert 0 <= payload["g_quad_index"] < form_count(6)
            assert payload["cond2_pass"] == (not payload["failed_relations"])


class TestStreaming:
    def test_each_record_follows_its_own_draw(self, monkeypatch):
        from rm2cover import search

        draws = []
        sample = search.sample_affine_map
        monkeypatch.setattr(search, "sample_affine_map", lambda n, rng: draws.append(n) or sample(n, rng))
        seen = []
        witness_search(SearchConfig(i1=4, i2=6, seed=1, budget=20), on_record=lambda r: seen.append(len(draws)))
        assert seen == list(range(1, 21))

    def test_memory_flat_in_budget(self):
        # about 2.6 KB per candidate were held until the end when every
        # candidate was drawn and filtered before the first record
        cfg = SearchConfig(i1=4, i2=6, seed=1, budget=1000)
        witness_search(SearchConfig(i1=4, i2=6, seed=1, budget=2))  # warm the coset-value caches
        tracemalloc.start()
        try:
            witness_search(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_threads_agree_up_to_a_contradiction(self, monkeypatch):
        # the third exact check contradicts; the pool's workers are still
        # evaluating later candidates when the exception propagates
        from rm2cover import search

        exact = search.exact_nl2_7
        baseline = threading.active_count()

        def run(threads):
            calls = itertools.count()
            monkeypatch.setattr(
                search,
                "exact_nl2_7",
                lambda f, threshold=None: exact(f, threshold) if next(calls) < 2 else search.Nl2Result(43, True),
            )
            records = []
            cfg = SearchConfig(i1=4, i2=6, seed=5, budget=40, fail_check_rate=1, threads=threads)
            with pytest.raises(search.FilterContradiction) as info:
                witness_search(cfg, on_record=records.append)
            return [r.as_json_dict() for r in records + [info.value.record]]

        one = run(1)
        assert len(one) == 3 and one[-1]["nl2_value"] == 43
        assert run(2) == one
        assert threading.active_count() == baseline
