import hashlib
import json
from collections import Counter

import pytest

from rm2cover import (
    ClaimResult,
    TruthTable,
    catalog_function,
    coset_values,
    lemma2_conclusion_check,
    lemma2_hypothesis,
    nfh_profile,
    proposition_spot_checks,
    summarize,
    verify_all,
    verify_nl2_values,
    verify_observation_1,
    verify_profile_claims,
    verify_remark_1,
)
from rm2cover.claims import CONFIRMED, DISCREPANCY, REFUTED, SKIPPED, condition2_relations, worst_exit_code

# every claim id the full run must produce, and the verdict recomputation
# assigns to it (the refuted entries are printed values that two
# independent computations disagree with)
EXPECTED_VERDICTS = {
    "lemma1.fun_1.nl2": CONFIRMED,
    "lemma1.only-if": SKIPPED,
    "obs1.fun_1.max-nl": CONFIRMED,
    "obs2.fun_2.nl2": CONFIRMED,
    "obs2.only-if": SKIPPED,
    **{f"obs3.fun_{i}.nl2": CONFIRMED for i in range(3, 8)},
    "obs3.only-if": SKIPPED,
    "obs4.fun_8.nl2": CONFIRMED,
    "obs4.top_fun_4.nl2": CONFIRMED,
    "obs4.top_fun_5.nl2": CONFIRMED,
    "obs4.top_fun_6.nl2": CONFIRMED,
    "obs4.top_fun_7.nl2": REFUTED,
    "obs4.only-if": SKIPPED,
    **{f"obs7.fun_{i}.nl2": CONFIRMED for i in range(9, 19) if i != 10},
    "obs7.fun_10.nl2": REFUTED,
    "obs7.only-if": SKIPPED,
    "obs5.fun_3.profile": CONFIRMED,
    "obs5.fun_4.profile": DISCREPANCY,
    "obs5.fun_5.profile": CONFIRMED,
    "obs5.fun_6.profile": CONFIRMED,
    "obs5.fun_7.profile": CONFIRMED,
    "obs6.fun_8.profile": CONFIRMED,
    **{f"obs6.top_fun_{i}.nfh27": CONFIRMED for i in range(4, 8)},
    **{f"obs7.fun_{i}.profile": CONFIRMED for i in range(9, 19) if i != 10},
    "obs7.fun_10.profile": REFUTED,
    "remark1.bent-example.nl": CONFIRMED,
    "remark1.bent-example.nl2": REFUTED,
    "remark1.no-bent-at-14": CONFIRMED,
    "remark1.max-bent-nl2": CONFIRMED,
    "lemma2.fun_3.fun_3.n1=28.n2=16": CONFIRMED,
    "lemma2.fun_4.fun_3.n1=26.n2=16": CONFIRMED,
    "lemma2.fun_6.fun_6.n1=26.n2=18": CONFIRMED,
    "thm1.cond2-biconditional": CONFIRMED,
    "prop1.spot": CONFIRMED,
    "prop2.spot": CONFIRMED,
    "prop3.spot": CONFIRMED,
    "thm1.global-bound": CONFIRMED,
}

# SHA-256 of the canonical JSON of the full report at trials=3,
# thm1_samples=4 (the CLI defaults), keyed by seed
REPORT_DIGESTS = {
    2024: "3cf93dbbf4ce4771121b55cf96065b92bc83e0f6db9dfb63d9aebf4c45ce2dec",
    11: "873cc684f98f1176ea6906ad0abc5a8523e1a58e8574a7ede901fb7aa00d36e5",
}


class TestIndividualClaims:
    def test_observation_1(self):
        result = verify_observation_1()
        assert result.status == CONFIRMED
        assert result.details["computed_max"] == 22
        assert result.details["attained"] is True

    def test_observation_1_affine_cross_check(self):
        # the bound is a class property: any affine relabeling gives the same max
        from rm2cover import apply_affine, max_nl_over_quadratics, random_affine_map

        f = catalog_function("fun_1")
        for seed in (0, 1):
            moved = apply_affine(f, random_affine_map(6, seed=seed))
            assert max_nl_over_quadratics(moved) == 22

    def test_nl2_values_structure(self):
        results = {r.claim_id: r for r in verify_nl2_values()}
        assert results["lemma1.fun_1.nl2"].details["computed"] == 18
        assert results["obs2.fun_2.nl2"].details["computed"] == 17
        # the two refutations carry both numbers
        r = results["obs4.top_fun_7.nl2"]
        assert r.status == REFUTED and r.details["stated"] == 15 and r.details["computed"] == 17
        r = results["obs7.fun_10.nl2"]
        assert r.status == REFUTED and r.details["stated"] == 14 and r.details["computed"] == 12

    def test_fun4_discrepancy_detection(self):
        results = {r.claim_id: r for r in verify_profile_claims()}
        r = results["obs5.fun_4.profile"]
        assert r.status == DISCREPANCY
        entry = r.details["entries"][26]
        assert entry["stated"] == 10244
        assert entry["computed"] == 1024
        assert entry["forced_by_sum_identity"] == 1024
        # every other stated entry matches
        assert r.details["mismatched_r"] == []

    def test_fun10_profile_refutation(self):
        results = {r.claim_id: r for r in verify_profile_claims()}
        r = results["obs7.fun_10.profile"]
        assert r.status == REFUTED
        assert r.details["entries"][16] == {"stated": 224, "computed": 208}
        assert r.details["entries"][14] == {"stated": 32, "computed": 32}

    def test_remark_1(self):
        results = {r.claim_id: r for r in verify_remark_1()}
        assert results["remark1.bent-example.nl"].status == CONFIRMED
        assert results["remark1.bent-example.nl"].details["flat_spectrum"] is True
        r = results["remark1.bent-example.nl2"]
        assert r.status == REFUTED and r.details["computed"] == 12
        assert results["remark1.no-bent-at-14"].status == CONFIRMED
        assert results["remark1.max-bent-nl2"].status == CONFIRMED


class TestLemma2:
    def test_hypothesis_examples(self):
        p3 = nfh_profile(catalog_function("fun_3"))
        # level counts 448 at 16 versus a 64-strong tail at >= 28
        assert lemma2_hypothesis(p3, p3, 28, 16)
        # an empty tail makes the hypothesis true whenever the left side is positive
        assert lemma2_hypothesis(p3, p3, 29, 16)
        assert not lemma2_hypothesis(p3, p3, 16, 24)
        with pytest.raises(ValueError, match="variable count mismatch"):
            lemma2_hypothesis(p3, nfh_profile(TruthTable.zeros(5)), 28, 16)

    def test_hypothesis_from_computed_profiles(self):
        p4, p3 = nfh_profile(catalog_function("fun_4")), nfh_profile(catalog_function("fun_3"))
        tail4 = sum(c for r, c in p4.counts.items() if r >= 26)
        expected = p4.count(16) > sum(c for r, c in p3.counts.items() if r >= 26) or p3.count(16) > tail4
        assert lemma2_hypothesis(p4, p3, 26, 16) == expected

    def test_conclusion_check_confirms(self):
        f3 = catalog_function("fun_3")
        result = lemma2_conclusion_check(f3, f3, 28, 16, label="fun_3.fun_3")
        assert result.status == CONFIRMED
        assert result.details["nl2"] < 44

    def test_vacuous_instance_skipped(self):
        f3 = catalog_function("fun_3")
        result = lemma2_conclusion_check(f3, f3, 16, 24)
        assert result.status == SKIPPED


class TestTheorem1Condition2:
    def test_pair_evaluation_structure(self):
        vals4 = coset_values(catalog_function("fun_4"))
        relations = condition2_relations(vals4, vals4)
        assert len(relations) == 6
        assert {rel["direction"] for rel in relations} == {"1->2", "2->1"}
        with pytest.raises(ValueError, match="differ in shape"):
            condition2_relations(coset_values(TruthTable.zeros(5)), vals4)

    def test_empty_target_forces_failure(self):
        # fun_3 has 448 forms at 16 but none at 26, so the inclusion fails
        vals3 = coset_values(catalog_function("fun_3"))
        rel = next(r for r in condition2_relations(vals3, vals3) if r["r"] == 16)
        assert not rel["holds"] and rel["witness"] is not None


class TestSpotChecksAndFullRun:
    def test_non_positive_counts_rejected(self):
        # a check over no instances would read as confirmed
        with pytest.raises(ValueError, match="trials must be >= 1"):
            proposition_spot_checks(trials=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_all(trials=-3, thm1_samples=-8)
        with pytest.raises(ValueError, match="thm1_samples must be >= 1"):
            verify_all(thm1_samples=0)

    def test_proposition_spot_checks_smoke(self):
        results = proposition_spot_checks(seed=7, trials=2)
        assert [r.claim_id for r in results] == ["prop1.spot", "prop2.spot", "prop3.spot"]
        for r in results:
            assert r.status == CONFIRMED
            assert r.details["trials"] == 2
            assert r.details["violations"] == []

    def test_verify_all_manifest_and_verdicts(self):
        results = verify_all(seed=11, trials=1, thm1_samples=4)
        by_id = {r.claim_id: r for r in results}
        assert len(results) == len(by_id), "claim ids must be unique"
        assert set(by_id) == set(EXPECTED_VERDICTS)
        for claim_id, expected in EXPECTED_VERDICTS.items():
            assert by_id[claim_id].status == expected, claim_id
        summary = summarize(results)
        assert summary == {CONFIRMED: 50, REFUTED: 4, DISCREPANCY: 1, SKIPPED: 5}
        assert worst_exit_code(results) == 2
        # reports serialise cleanly
        assert json.dumps([r.as_json_dict() for r in results])

    def test_exit_codes(self):
        assert worst_exit_code([ClaimResult("x", CONFIRMED)]) == 0
        assert worst_exit_code([ClaimResult("x", DISCREPANCY)]) == 3
        assert worst_exit_code([ClaimResult("x", DISCREPANCY), ClaimResult("y", REFUTED)]) == 2

    def test_filter_contradiction_is_a_refuted_claim(self, monkeypatch):
        from rm2cover import search

        monkeypatch.setattr(search, "exact_nl2_7", lambda f, threshold=None: search.Nl2Result(43, True))
        by_id = {r.claim_id: r for r in verify_all(seed=11, trials=1, thm1_samples=4)}
        bicond = by_id["thm1.cond2-biconditional"]
        assert bicond.status == REFUTED
        assert "exact nl2 above the stated global bound 42" in bicond.details["error"]
        dump = bicond.details["candidate"]
        assert dump["candidate"] == 0 and dump["nl2_value"] == 43 and dump["nl2_exact"] is True
        assert {"A", "b", "g_quad_index", "g_linear_mask", "cond2_pass"} <= set(dump)
        assert str(dump) in bicond.details["error"]
        assert by_id["thm1.global-bound"].details["violations"] == [43]
        assert json.dumps(bicond.as_json_dict())

    def test_verify_all_scans_each_table_once(self, monkeypatch):
        # a cold run scans the 23 catalog tables its claims read once each
        # (fun_4 and fun_6 serve the witness search too, whose candidate
        # halves permute fun_i2's array); a repeat run finds the 23 tables
        # cached and runs only the n=7 threshold scans, which exit early
        from rm2cover import quadratic

        scans: Counter[int] = Counter()
        scan = quadratic._scan

        def counting_scan(f, *args):
            scans[f.n] += 1
            return scan(f, *args)

        monkeypatch.setattr(quadratic, "_scan", counting_scan)
        coset_values.cache_clear()
        per_call = []
        for _ in range(2):
            verify_all(seed=11, trials=1, thm1_samples=4)
            per_call.append(dict(scans))
            scans.clear()
        assert per_call == [{6: 23, 7: 10}, {7: 10}]
        assert coset_values.cache_info().misses == 23

    def test_warm_verify_all_builds_no_profile(self, monkeypatch):
        # each catalog table's profile is built once, with its cached scan
        from rm2cover.quadratic import NlProfile

        verify_all(seed=11, trials=1, thm1_samples=4)
        built = []
        post_init = NlProfile.__post_init__
        monkeypatch.setattr(NlProfile, "__post_init__", lambda self: built.append(self.n) or post_init(self))
        verify_all(seed=11, trials=1, thm1_samples=4)
        assert built == []

    def test_verify_all_rerun_determinism(self):
        first = [r.as_json_dict() for r in verify_all(seed=5, trials=1, thm1_samples=4)]
        second = [r.as_json_dict() for r in verify_all(seed=5, trials=1, thm1_samples=4)]
        assert first == second


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_pinned(seed):
    report = [r.as_json_dict() for r in verify_all(seed=seed, trials=3, thm1_samples=4)]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[seed]
