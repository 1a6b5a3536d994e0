"""Claim-by-claim verification of the reported values for the catalog.

Every numeric statement about the catalog functions (second-order
nonlinearities, coset-profile entries, the concatenation-bound lemma,
the propositions and the characterisation theorem for 7-variable
functions of second-order nonlinearity 42) is pinned here as a claim
with a stable id (``lemma1``, ``obs1`` .. ``obs7``, ``remark1``,
``lemma2``, ``prop1`` .. ``prop3``, ``thm1``) and recomputed from
scratch.  Each check yields one :class:`ClaimResult` whose status is

* ``confirmed``   — recomputation agrees with the stated value,
* ``refuted``     — recomputation disagrees,
* ``discrepancy`` — the stated value already contradicts the stated
  sum identity; the forced and recomputed values are reported side by
  side (reserved for the fun_4 entry at r=26),
* ``skipped-out-of-scope`` — completeness ("only if") directions that
  rest on the exhaustive 6-variable classification, which this engine
  does not re-derive.

Statuses never hide numbers: details always carry stated and computed
values so a report is auditable without rerunning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import affine, quadratic, search
from .catalog import catalog_function
from .core import TruthTable, concatenate, nonlinearity, walsh_spectrum
from .search import condition2_relations  # re-exported: claims.condition2_relations stays public

CONFIRMED = "confirmed"
REFUTED = "refuted"
DISCREPANCY = "discrepancy"
SKIPPED = "skipped-out-of-scope"

DEFAULT_SEED = 2024

# ---------------------------------------------------------------------------
# the registry of stated values

# (claim_id, catalog name, stated second-order nonlinearity)
STATED_NL2: tuple[tuple[str, str, int], ...] = (
    ("lemma1.fun_1.nl2", "fun_1", 18),
    ("obs2.fun_2.nl2", "fun_2", 17),
    *((f"obs3.fun_{i}.nl2", f"fun_{i}", 16) for i in range(3, 8)),
    ("obs4.fun_8.nl2", "fun_8", 15),
    *((f"obs4.top_fun_{i}.nl2", f"top_fun_{i}", 15) for i in range(4, 8)),
    *((f"obs7.fun_{i}.nl2", f"fun_{i}", 14) for i in range(9, 19)),
)

# claim_id -> (catalog name, {r: stated count}, tail rule)
# tail rule "ge26" = stated zero for all r >= 26; "gt26" = zero for r > 26.
STATED_PROFILES: dict[str, tuple[str, dict[int, int], str | None]] = {
    "obs5.fun_3.profile": ("fun_3", {16: 448, 26: 0, 28: 64}, None),
    "obs5.fun_4.profile": (
        "fun_4",
        {16: 384, 18: 1024, 20: 9216, 22: 14336, 24: 6784, 26: 10244, 28: 0},
        None,
    ),
    "obs5.fun_5.profile": ("fun_5", {}, "ge26"),
    "obs5.fun_6.profile": (
        "fun_6",
        {16: 224, 18: 1792, 20: 8640, 22: 14080, 24: 7520, 26: 512, 28: 0},
        None,
    ),
    "obs5.fun_7.profile": ("fun_7", {}, "ge26"),
    "obs6.fun_8.profile": ("fun_8", {15: 112, 27: 64}, None),
    **{f"obs6.top_fun_{i}.nfh27": (f"top_fun_{i}", {27: 0}, None) for i in range(4, 8)},
    "obs7.fun_9.profile": ("fun_9", {14: 16, 16: 224}, "gt26"),
    "obs7.fun_10.profile": ("fun_10", {14: 32, 16: 224}, "gt26"),
    "obs7.fun_11.profile": ("fun_11", {14: 16, 16: 224}, "gt26"),
    "obs7.fun_12.profile": ("fun_12", {14: 8, 16: 224}, "gt26"),
    "obs7.fun_13.profile": ("fun_13", {14: 24, 16: 224}, "gt26"),
    "obs7.fun_14.profile": ("fun_14", {14: 48, 16: 128}, "gt26"),
    "obs7.fun_15.profile": ("fun_15", {14: 24, 16: 176}, "gt26"),
    "obs7.fun_16.profile": ("fun_16", {14: 64, 16: 160}, "gt26"),
    "obs7.fun_17.profile": ("fun_17", {14: 20, 16: 224}, "gt26"),
    "obs7.fun_18.profile": ("fun_18", {14: 26, 16: 212}, "gt26"),
}

# the one registry entry that contradicts the sum identity on its own:
# claim id -> r (the printed value is the one in STATED_PROFILES)
SELF_INCONSISTENT_ENTRIES: dict[str, int] = {
    "obs5.fun_4.profile": 26,
}

OBS1_BOUND = 22
REMARK1_STATED_NL = 28
REMARK1_STATED_NL2 = 16

# completeness directions accepted as input, never recomputed here
ONLY_IF_CLAIMS: tuple[tuple[str, str], ...] = (
    ("lemma1.only-if", "every nl2=18 function lies in the fun_1 coset family"),
    ("obs2.only-if", "every nl2=17 function lies in the fun_2 coset family"),
    ("obs3.only-if", "every nl2=16 function lies in a fun_3..fun_7 coset family"),
    ("obs4.only-if", "every nl2=15 function lies in a top_fun_3..top_fun_7 coset family"),
    ("obs7.only-if", "every nl2=14 function with NFh(26)>0 lies in a fun_9..fun_18 coset family"),
)


@dataclass
class ClaimResult:
    claim_id: str
    status: str
    details: dict = field(default_factory=dict)

    def as_json_dict(self) -> dict:
        # details hold plain Python values; the round trip turns int keys
        # into strings, as the JSON report has them
        return {"claim_id": self.claim_id, "status": self.status, "details": json.loads(json.dumps(self.details))}


def summarize(results: list[ClaimResult]) -> dict[str, int]:
    summary = {CONFIRMED: 0, REFUTED: 0, DISCREPANCY: 0, SKIPPED: 0}
    for r in results:
        summary[r.status] += 1
    return summary


def worst_exit_code(results: list[ClaimResult]) -> int:
    """0 all fine, 2 if anything is refuted, 3 if only discrepancies."""
    summary = summarize(results)
    if summary[REFUTED]:
        return 2
    if summary[DISCREPANCY]:
        return 3
    return 0


# ---------------------------------------------------------------------------
# observation / remark claims


def _profile(name: str) -> quadratic.NlProfile:
    return quadratic.nfh_profile(catalog_function(name))


def verify_observation_1() -> ClaimResult:
    """max over quadratics q of nl(fun_1 + q) stays <= 22.

    Affine parts cannot raise nl, so homogeneous forms cover the whole
    degree-2 coset family.
    """
    computed = _profile("fun_1").max_r
    status = CONFIRMED if computed <= OBS1_BOUND else REFUTED
    return ClaimResult(
        "obs1.fun_1.max-nl",
        status,
        {"stated_bound": OBS1_BOUND, "computed_max": computed, "attained": computed == OBS1_BOUND},
    )


def verify_nl2_values() -> list[ClaimResult]:
    """Representative direction of the nl2 classification statements."""
    results = []
    for claim_id, name, stated in STATED_NL2:
        computed = _profile(name).min_r
        status = CONFIRMED if computed == stated else REFUTED
        results.append(ClaimResult(claim_id, status, {"function": name, "stated": stated, "computed": computed}))
    for claim_id, text in ONLY_IF_CLAIMS:
        results.append(ClaimResult(claim_id, SKIPPED, {"reason": "classification completeness accepted as input", "claim": text}))
    return results


def verify_profile_claims() -> list[ClaimResult]:
    """Recompute full coset profiles and compare every stated entry."""
    results = []
    for claim_id, (name, stated, tail) in STATED_PROFILES.items():
        profile = _profile(name)
        entries = {r: {"stated": c, "computed": profile.count(r)} for r, c in stated.items()}
        mismatches = [r for r, entry in entries.items() if entry["computed"] != entry["stated"]]
        discrepancy = None
        r = SELF_INCONSISTENT_ENTRIES.get(claim_id)
        if r is not None:
            forced = quadratic.form_count(profile.n) - sum(c for rr, c in stated.items() if rr != r)
            entries[r]["forced_by_sum_identity"] = forced
            if entries[r]["computed"] == forced != stated[r]:
                # the printed value, not the computation, breaks the identity
                mismatches.remove(r)
                discrepancy = r
        tail_violations = []
        if tail is not None:
            bound = 26
            lo = bound if tail == "ge26" else bound + 1
            tail_violations = [r for r in profile.counts if r >= lo]
            entries["tail"] = {"stated": f"0 for r {'>=' if tail == 'ge26' else '>'} {bound}",
                               "computed_max_r": profile.max_r}
        status = CONFIRMED
        if mismatches or tail_violations:
            status = REFUTED
        elif discrepancy is not None:
            status = DISCREPANCY
        results.append(
            ClaimResult(
                claim_id,
                status,
                {
                    "function": name,
                    "entries": entries,
                    "mismatched_r": mismatches,
                    "tail_violations": tail_violations,
                    "profile": dict(sorted(profile.counts.items())),
                },
            )
        )
    return results


def verify_remark_1() -> list[ClaimResult]:
    f = catalog_function("bent_example")
    spectrum = walsh_spectrum(f)
    flat = bool((np.abs(spectrum.values) == 8).all())
    nl = nonlinearity(f)
    nl2 = quadratic.nfh_profile(f).min_r
    results = [
        ClaimResult(
            "remark1.bent-example.nl",
            CONFIRMED if flat and nl == REMARK1_STATED_NL else REFUTED,
            {"stated": REMARK1_STATED_NL, "computed": nl, "flat_spectrum": flat},
        ),
        ClaimResult(
            "remark1.bent-example.nl2",
            CONFIRMED if nl2 == REMARK1_STATED_NL2 else REFUTED,
            {"stated": REMARK1_STATED_NL2, "computed": nl2},
        ),
    ]
    # representative-level: no bent function in the nl2=14 coset families
    # (a bent member would force a nonzero profile entry at 28)
    counts28 = {f"fun_{i}": _profile(f"fun_{i}").count(28) for i in range(9, 19)}
    results.append(
        ClaimResult(
            "remark1.no-bent-at-14",
            CONFIRMED if not any(counts28.values()) else REFUTED,
            {"nfh28_by_function": counts28, "scope": "representatives only"},
        )
    )
    # representative-level: bent functions reach nl2 = 16 (fun_3 family has
    # profile entries at 28) and none exist in the 17/18 families
    e18 = _profile("fun_1").count(28)
    e17 = _profile("fun_2").count(28)
    e16 = _profile("fun_3").count(28)
    ok = e18 == 0 and e17 == 0 and e16 > 0
    results.append(
        ClaimResult(
            "remark1.max-bent-nl2",
            CONFIRMED if ok else REFUTED,
            {"nfh28": {"fun_1": e18, "fun_2": e17, "fun_3": e16}, "scope": "representatives only"},
        )
    )
    return results


# ---------------------------------------------------------------------------
# concatenation bound (lemma2) and the condition-2 subset relations


def lemma2_hypothesis(p1: quadratic.NlProfile, p2: quadratic.NlProfile, n1: int, n2: int) -> bool:
    """NFh_{f_i}(n2) > sum_{k >= n1} NFh_{f_j}(k) for (i,j) = (1,2) or (2,1),
    on the coset profiles of the two halves."""
    if p1.n != p2.n:
        raise ValueError(f"variable count mismatch: {p1.n} vs {p2.n}")
    tail1 = sum(c for r, c in p1.counts.items() if r >= n1)
    tail2 = sum(c for r, c in p2.counts.items() if r >= n1)
    return p1.count(n2) > tail2 or p2.count(n2) > tail1


def lemma2_instances(f1: TruthTable, f2: TruthTable) -> list[tuple[int, int]]:
    """Every (n1, n2) over the observed profile values with the lemma2
    hypothesis true, n2 outer and n1 inner, both ascending."""
    p1, p2 = quadratic.nfh_profile(f1), quadratic.nfh_profile(f2)
    values = sorted(p1.counts | p2.counts)
    return [(n1, n2) for n2 in values for n1 in values if lemma2_hypothesis(p1, p2, n1, n2)]


def lemma2_conclusion_check(f1: TruthTable, f2: TruthTable, n1: int, n2: int, label: str | None = None) -> ClaimResult:
    """With the hypothesis true, nl2(f1 || f2) must fall below n1 + n2.

    The concatenation is scanned with an early-exit threshold at the
    bound, so a confirming run usually stops at the first block proving
    the strict inequality.
    """
    claim_id = f"lemma2.{label or 'instance'}.n1={n1}.n2={n2}"
    if not lemma2_hypothesis(quadratic.nfh_profile(f1), quadratic.nfh_profile(f2), n1, n2):
        return ClaimResult(claim_id, SKIPPED, {"reason": "hypothesis false for this instance"})
    bound = n1 + n2
    value, exact = quadratic.min_coset_nonlinearity(concatenate(f1, f2), threshold=bound)
    status = CONFIRMED if value < bound else REFUTED
    return ClaimResult(
        claim_id,
        status,
        {"bound": bound, "nl2": value, "nl2_is_exact": exact, "upper_bound_only": not exact},
    )


# ---------------------------------------------------------------------------
# randomized spot checks of the propositions

# pools of class representatives with verified nl2 for instance building;
# top_fun_7 is deliberately absent from the <=15 pool: its recomputed nl2
# is 17, so instances built from it would not satisfy the hypotheses.
POOL_NL2_16 = tuple(f"fun_{i}" for i in range(3, 8))
POOL_NL2_LE15 = ("fun_8", "top_fun_4", "top_fun_5", "top_fun_6") + tuple(f"fun_{i}" for i in range(9, 19))


def _random_degree2(n: int, rng: np.random.Generator) -> TruthTable:
    # draws in a fixed order (form index, linear mask, constant bit) that
    # every seeded output depends on
    quad_index = int(rng.integers(0, quadratic.form_count(n)))
    linear_mask = int(rng.integers(0, 1 << n))
    return quadratic.degree2_table(n, quad_index, linear_mask, int(rng.integers(0, 2)))


def _random_coset_member(name: str, rng: np.random.Generator) -> TruthTable:
    """A random member of the equivalence family of a catalog function."""
    f = catalog_function(name)
    m = affine.sample_affine_map(f.n, rng)
    return affine.apply_affine(f, m) ^ _random_degree2(f.n, rng)


def _pool_member(pool: tuple[str, ...]):
    """A draw of a random coset member of a random function in ``pool``."""
    return lambda rng: _random_coset_member(str(rng.choice(pool)), rng)


def proposition_spot_checks(seed: int = DEFAULT_SEED, trials: int = 100) -> list[ClaimResult]:
    """Randomized instance checks of the three concatenation propositions.

    * prop1: one half from the fun_1 family (nl2 18), the other half
      arbitrary: nl2 of the concatenation must be <= 40.
    * prop2: both halves from fun_3..fun_7 families (nl2 16): <= 42.
    * prop3: one half from a 16 family, one from a family with nl2 <= 15:
      < 42.

    Every instance is decided by the exact 7-variable scan with an
    early-exit threshold just above the bound being proved.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    # claim id, early-exit threshold, bound, and the draws of the two
    # halves, made in this order (f1 then f2) for every trial
    specs = (
        ("prop1.spot", 41, "<= 40", lambda rng: _random_coset_member("fun_1", rng),
         lambda rng: TruthTable(6, rng.integers(0, 2, size=64, dtype=np.uint8))),
        ("prop2.spot", 43, "<= 42", _pool_member(POOL_NL2_16), _pool_member(POOL_NL2_16)),
        ("prop3.spot", 42, "<= 41", _pool_member(POOL_NL2_16), _pool_member(POOL_NL2_LE15)),
    )
    results = []
    for claim_id, threshold, bound_text, draw1, draw2 in specs:
        bound = threshold - 1
        violations = []
        max_exact = None
        for t in range(trials):
            f1 = draw1(rng)
            f2 = draw2(rng)
            value, exact = quadratic.min_coset_nonlinearity(concatenate(f1, f2), threshold=threshold)
            if exact:
                max_exact = value if max_exact is None else max(max_exact, value)
            if value > bound:
                violations.append({"trial": t, "nl2": value, "exact": exact})
        results.append(
            ClaimResult(
                claim_id,
                CONFIRMED if not violations else REFUTED,
                {
                    "seed": seed,
                    "trials": trials,
                    "bound": bound_text,
                    "violations": violations,
                    "max_exact_nl2_seen": max_exact,
                },
            )
        )
    return results


# ---------------------------------------------------------------------------
# full run


# catalog pairs whose best hypothesis-true lemma2 instance verify_all checks
_LEMMA2_PAIRS = (("fun_3", "fun_3"), ("fun_4", "fun_3"), ("fun_6", "fun_6"))


def verify_all(seed: int = DEFAULT_SEED, trials: int = 3, thm1_samples: int = 4) -> list[ClaimResult]:
    """Run every registered claim check; deterministic for a fixed seed.

    ``trials`` scales the randomized proposition checks and
    ``thm1_samples`` the sampled biconditional check; both default to
    small values suitable for an interactive run.  Both must be at least
    1: a check over no instances would confirm nothing.  Each of the four
    (i1, i2) families gets ``max(1, thm1_samples // 4)`` candidates, so
    the sample count is rounded down to a multiple of 4, at least 4.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if thm1_samples < 1:
        raise ValueError(f"thm1_samples must be >= 1, got {thm1_samples}")

    results: list[ClaimResult] = []
    results.extend(verify_nl2_values())
    results.append(verify_observation_1())
    results.extend(verify_profile_claims())
    results.extend(verify_remark_1())

    for name1, name2 in _LEMMA2_PAIRS:
        f1 = catalog_function(name1)
        f2 = catalog_function(name2)
        n1, n2 = min(lemma2_instances(f1, f2), key=sum)
        results.append(lemma2_conclusion_check(f1, f2, n1, n2, label=f"{name1}.{name2}"))

    bicond: list[dict] = []
    try:
        for i1, i2 in ((4, 4), (4, 6), (6, 4), (6, 6)):
            cfg = search.SearchConfig(i1=i1, i2=i2, seed=seed + 31 * i1 + i2, budget=max(1, thm1_samples // 4), fail_check_rate=1)
            search.witness_search(cfg, on_record=lambda rec: bicond.append(rec.as_json_dict()))
    except search.FilterContradiction as exc:
        # the contradicting candidate was sampled too, and its value counts
        # towards the global bound below
        bicond.append(exc.record.as_json_dict())
        status, outcome = REFUTED, {"error": str(exc), "candidate": exc.record.as_json_dict()}
    else:
        status, outcome = CONFIRMED, {"note": "a filter contradiction aborts the run with a dump"}
    exact_values = [r["nl2_value"] for r in bicond if r["nl2_value"] is not None and r["nl2_exact"]]
    results.append(
        ClaimResult(
            "thm1.cond2-biconditional",
            status,
            {"samples": len(bicond), "cond2_passes": sum(1 for r in bicond if r["cond2_pass"]), **outcome},
        )
    )

    prop_results = proposition_spot_checks(seed=seed, trials=trials)
    results.extend(prop_results)
    for pr in prop_results:
        if pr.details.get("max_exact_nl2_seen") is not None:
            exact_values.append(pr.details["max_exact_nl2_seen"])

    over = [v for v in exact_values if v > 42]
    results.append(
        ClaimResult(
            "thm1.global-bound",
            CONFIRMED if not over else REFUTED,
            {"stated_bound": 42, "max_exact_nl2_seen": max(exact_values, default=None), "violations": over},
        )
    )
    return results
