"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Sample counts follow the stated criteria:
100 trials per proposition (criterion 10), 50 candidates per search
pair (criterion 9) and 100 maps per invariance target (criterion 7).

Criteria 1, 2 and 5 pin printed reference values, kept verbatim.  Four
of them are not values of the printed functions: the second-order
nonlinearities of top_fun_7 (17, not 15) and fun_10 (12, not 14),
fun_10's level count at 16 (208, not 224) and the bent example's
second-order nonlinearity (12, not 16).  ``PRINTED_ERRATA`` lists each
as (stated, recomputed), and these criteria pass only when

* every stated value outside the errata is reproduced exactly;
* the mismatches are exactly the errata, so a new mismatch fails and so
  does an erratum whose printed value starts to match;
* at each erratum the engine gives the recomputed value, and a
  brute-force oracle from ``oracles.py`` confirms it from a table
  evaluated point by point from the catalog monomials, with no library
  transform on that route;
* the claim verifier refutes exactly the errata, with the same stated
  and computed pair.

The PASS line of each of these criteria names the errata it allowed.
"""

import functools

import numpy as np
import pytest

import rm2cover as rm
from rm2cover.claims import (
    DISCREPANCY,
    REFUTED,
    proposition_spot_checks,
    verify_nl2_values,
    verify_profile_claims,
    verify_remark_1,
)
from rm2cover.quadratic import form_count
from oracles import (
    brute_nfh_profile,
    brute_nonlinearity,
    brute_second_order_nl,
    brute_second_order_nl_batch,
    eval_anf_pointwise,
    random_tables,
)

TRIALS = 100
CANDIDATES = 50
MAPS = 100


def criterion(num, description, errata=None):
    if errata:
        refuted = ", ".join(f"{_label(key)} {stated}->{recomputed}" for key, (stated, recomputed) in errata.items())
        description = f"{description} (printed values refuted: {refuted})"

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:2d}: FAIL - {description}")
                raise
            print(f"\n[acceptance] criterion {num:2d}: PASS - {description}")
        return wrapper
    return deco


STATED_NL2 = {
    "fun_1": 18,
    "fun_2": 17,
    **{f"fun_{i}": 16 for i in range(3, 8)},
    **{f"top_fun_{i}": 15 for i in range(3, 8)},  # top_fun_3 is fun_8
    **{f"fun_{i}": 14 for i in range(9, 19)},
}

STATED_PROFILE_ENTRIES = {
    "fun_3": {16: 448, 26: 0, 28: 64},
    "fun_5": {26: 0, 27: 0, 28: 0},
    "fun_6": {16: 224, 18: 1792, 20: 8640, 22: 14080, 24: 7520, 26: 512, 28: 0},
    "fun_7": {26: 0, 27: 0, 28: 0},
    "fun_8": {15: 112, 27: 64},
    **{f"top_fun_{i}": {27: 0} for i in range(4, 8)},
    "fun_9": {14: 16, 16: 224},
    "fun_10": {14: 32, 16: 224},
    "fun_11": {14: 16, 16: 224},
    "fun_12": {14: 8, 16: 224},
    "fun_13": {14: 24, 16: 224},
    "fun_14": {14: 48, 16: 128},
    "fun_15": {14: 24, 16: 176},
    "fun_16": {14: 64, 16: 160},
    "fun_17": {14: 20, 16: 224},
    "fun_18": {14: 26, 16: 212},
}

# every stated value of criteria 1, 2 and 5 under one key scheme:
# ("nl2", name) for a second-order nonlinearity, ("NFh", name, r) for a
# coset-profile entry
NL2_CLAIMS = {("nl2", name): stated for name, stated in STATED_NL2.items()}
PROFILE_CLAIMS = {
    ("NFh", name, r): stated for name, entries in STATED_PROFILE_ENTRIES.items() for r, stated in entries.items()
}
REMARK1_CLAIMS = {("nl2", "bent_example"): 16}

# printed values that the printed functions do not have: key -> (stated,
# recomputed).  The catalog's ANF strings are verbatim and the abstract
# alone cannot say which of function and value is misprinted, so both
# stay as printed and the disagreement is pinned here.
PRINTED_ERRATA = {
    ("nl2", "top_fun_7"): (15, 17),
    ("nl2", "fun_10"): (14, 12),
    ("NFh", "fun_10", 16): (224, 208),
    ("nl2", "bent_example"): (16, 12),
}


def _label(key):
    kind, name, *level = key
    return f"NFh_{name}({level[0]})" if kind == "NFh" else name


def _errata(claims):
    return {key: PRINTED_ERRATA[key] for key in claims if key in PRINTED_ERRATA}


def _oracle_value(key):
    """Recompute one keyed value by brute force from the catalog monomials."""
    kind, name, *level = key
    anf = rm.catalog_anf(name)
    bits = eval_anf_pointwise(anf.monomials, anf.n)
    if kind == "nl2":
        return brute_second_order_nl(bits, anf.n)
    return brute_nfh_profile(bits, anf.n).get(level[0], 0)


def _assert_printed_values(claims, computed, refuted):
    """Stated values hold exactly, except at the errata of these claims.

    ``computed`` maps every key of ``claims`` to the engine's value;
    ``refuted`` maps each entry the claim verifier refutes to its
    (stated, computed) pair.
    """
    errata = _errata(claims)
    mismatches = {key: (stated, computed[key]) for key, stated in claims.items() if computed[key] != stated}
    unlisted = {key: pair for key, pair in mismatches.items() if key not in errata}
    assert not unlisted, f"stated values not reproduced: {unlisted}"
    reproduced = [key for key in errata if key not in mismatches]
    assert not reproduced, f"errata whose printed value is now reproduced: {reproduced}"
    for key, (stated, recomputed) in errata.items():
        assert stated == claims[key], f"{key}: erratum lists stated {stated}, the claim states {claims[key]}"
        assert computed[key] == recomputed, f"{key}: engine gives {computed[key]}, erratum lists {recomputed}"
        oracle = _oracle_value(key)
        assert oracle == recomputed, f"{key}: brute-force oracle gives {oracle}, erratum lists {recomputed}"
    assert refuted == errata, f"claim verifier refutes {refuted}, errata list {errata}"


@criterion(1, "nl2 catalog values, exact", _errata(NL2_CLAIMS))
def test_criterion_1_nl2_catalog():
    computed = {key: rm.second_order_nonlinearity(rm.catalog_function(key[1])) for key in NL2_CLAIMS}
    refuted = {
        ("nl2", c.details["function"]): (c.details["stated"], c.details["computed"])
        for c in verify_nl2_values()
        if c.status == REFUTED
    }
    _assert_printed_values(NL2_CLAIMS, computed, refuted)


@criterion(2, "stated coset-profile entries, exact", _errata(PROFILE_CLAIMS))
def test_criterion_2_stated_profile_entries():
    profiles = {name: rm.nfh_profile(rm.catalog_function(name)) for name in STATED_PROFILE_ENTRIES}
    computed = {key: profiles[key[1]].count(key[2]) for key in PROFILE_CLAIMS}
    refuted = {}
    for claim in verify_profile_claims():
        if claim.status != REFUTED:
            continue
        d = claim.details
        for r in d["mismatched_r"]:
            refuted[("NFh", d["function"], r)] = (d["entries"][r]["stated"], d["entries"][r]["computed"])
        for r in d["tail_violations"]:  # a tail rule states 0 at r
            refuted[("NFh", d["function"], r)] = (0, d["profile"][r])
    _assert_printed_values(PROFILE_CLAIMS, computed, refuted)


@criterion(3, "fun_4 discrepancy detection at r=26")
def test_criterion_3_fun4_discrepancy():
    profile = rm.nfh_profile(rm.catalog_function("fun_4"))
    stated_other = {16: 384, 18: 1024, 20: 9216, 22: 14336, 24: 6784, 28: 0}
    for r, stated in stated_other.items():
        assert profile.count(r) == stated, f"entry at {r}"
    assert sum(profile.counts.values()) == 32768
    forced = 32768 - sum(stated_other.values())
    assert profile.count(26) == forced == 1024, "computed value must equal the sum-identity value"
    claim = next(c for c in verify_profile_claims() if c.claim_id == "obs5.fun_4.profile")
    assert claim.status == DISCREPANCY
    entry = claim.details["entries"][26]
    assert entry["stated"] == 10244 and entry["computed"] == 1024


@criterion(4, "max nl over the quadratic cosets of fun_1 is exactly 22")
def test_criterion_4_obs1_attained():
    assert rm.max_nl_over_quadratics(rm.catalog_function("fun_1")) == 22


@criterion(5, "bent example: nl 28 with flat spectrum, nl2 16", _errata(REMARK1_CLAIMS))
def test_criterion_5_remark1():
    f = rm.catalog_function("bent_example")
    spectrum = rm.walsh_spectrum(f)
    assert set(np.abs(spectrum.values).tolist()) == {8}
    assert rm.nonlinearity(f) == 28
    key = ("nl2", "bent_example")
    computed = {key: rm.second_order_nonlinearity(f)}
    refuted = {
        key if c.claim_id == "remark1.bent-example.nl2" else c.claim_id: (c.details.get("stated"), c.details.get("computed"))
        for c in verify_remark_1()
        if c.status == REFUTED
    }
    _assert_printed_values(REMARK1_CLAIMS, computed, refuted)


@criterion(6, "1000 random 4-variable tables match both brute-force oracles")
def test_criterion_6_oracle_equivalence_n4():
    rng = np.random.default_rng(4242)
    tables = random_tables(rng, 1000, 4)
    expected_nl2 = brute_second_order_nl_batch(tables, 4)
    for k, bits in enumerate(tables):
        t = rm.TruthTable(4, bits)
        assert rm.nonlinearity(t) == brute_nonlinearity(bits, 4)
        assert rm.second_order_nonlinearity(t) == int(expected_nl2[k])


@criterion(7, "profile invariance under affine maps plus degree-2 additions")
def test_criterion_7_invariance_suite():
    from rm2cover.affine import sample_affine_map
    from rm2cover.claims import _random_degree2

    rng = np.random.default_rng(777)
    for name in ("fun_1", "fun_3", "fun_8"):
        f = rm.catalog_function(name)
        reference = rm.nfh_profile(f)  # sum identity checked on construction
        for _ in range(MAPS):
            m = sample_affine_map(6, rng)
            g = _random_degree2(6, rng)
            moved = rm.apply_affine(f, m) ^ g
            w = rm.walsh_spectrum(moved).values.astype(np.int64)
            assert int((w**2).sum()) == 1 << 12  # Parseval on every table used
            assert rm.nfh_profile(moved) == reference, name


def _lemma2_bound(p1, p2):
    """Smallest n1+n2 over hypothesis-true instances, and the instance count.

    n1 ranges one past the largest observed level so empty tails are
    exercised too.
    """
    values = sorted(set(p1.counts) | set(p2.counts))
    n1_range = values + [max(values) + 1]
    best = None
    count = 0
    for n2 in values:
        for n1 in n1_range:
            tail1 = sum(c for r, c in p1.counts.items() if r >= n1)
            tail2 = sum(c for r, c in p2.counts.items() if r >= n1)
            if p1.count(n2) > tail2 or p2.count(n2) > tail1:
                count += 1
                if best is None or n1 + n2 < best:
                    best = n1 + n2
    return best, count


@criterion(8, "concatenation bound holds on every hypothesis-true instance")
def test_criterion_8_lemma2_suite():
    # 5-variable pool: structured representatives plus seeded random tables
    rng = np.random.default_rng(505)
    pool = [
        rm.TruthTable.zeros(5),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3+x1x4x5", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3+x2x4x5+x3x4", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3x4", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3x4x5", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x1x2x3x4x5+x1x2x3", n=5)),
        rm.truth_table_from_anf(rm.AnfPolynomial.from_string("x2x3x4+x1x5", n=5)),
    ]
    pool += [rm.TruthTable(5, bits) for bits in random_tables(rng, 16, 5)]
    assert len(pool) >= 20
    profiles = [rm.nfh_profile(f) for f in pool]
    instances = 0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            bound, count = _lemma2_bound(profiles[i], profiles[j])
            if bound is None:
                continue
            instances += count
            nl2 = rm.second_order_nonlinearity(rm.concatenate(pool[i], pool[j]))
            assert nl2 < bound, f"pool pair ({i}, {j}): nl2 {nl2} !< bound {bound}"
    assert instances > 0

    # 6-variable pairs decided by the exact 7-variable kernel
    pairs = [
        ("fun_1", "fun_1"), ("fun_1", "fun_3"), ("fun_2", "fun_2"), ("fun_3", "fun_3"),
        ("fun_3", "fun_8"), ("fun_4", "fun_4"), ("fun_4", "fun_6"), ("fun_5", "fun_7"),
        ("fun_6", "fun_6"), ("fun_8", "fun_8"), ("fun_9", "fun_14"), ("fun_12", "fun_18"),
    ]
    checked = 0
    for name1, name2 in pairs:
        f1, f2 = rm.catalog_function(name1), rm.catalog_function(name2)
        bound, _ = _lemma2_bound(rm.nfh_profile(f1), rm.nfh_profile(f2))
        if bound is None:
            continue
        value, exact = rm.min_coset_nonlinearity(rm.concatenate(f1, f2), threshold=bound)
        assert value < bound, f"{name1}||{name2}: nl2 {value} !< bound {bound}"
        checked += 1
    assert checked >= 10


@criterion(9, "condition-2 pass implies exact 42, failure implies at most 40")
def test_criterion_9_theorem1_biconditional():
    total_witnesses = 0
    for i1 in (4, 6):
        for i2 in (4, 6):
            cfg = rm.SearchConfig(
                i1=i1, i2=i2, seed=9000 + 10 * i1 + i2, budget=CANDIDATES, fail_check_rate=1,
            )
            # witness_search raises FilterContradiction on any violation
            summary = rm.witness_search(cfg)
            assert summary.candidates == CANDIDATES
            assert summary.exact_checked == CANDIDATES
            assert (summary.max_nl2_exact or 0) <= 42
            total_witnesses += summary.witnesses
    print(f"\n[acceptance] criterion  9: {4 * CANDIDATES} candidates, {total_witnesses} nl2=42 witnesses found")


@criterion(10, "proposition spot checks, zero violations")
def test_criterion_10_proposition_spot_checks():
    results = proposition_spot_checks(seed=1009, trials=TRIALS)
    for claim in results:
        assert claim.status == "confirmed", claim.as_json_dict()
        assert claim.details["violations"] == []
        assert claim.details["trials"] == TRIALS
