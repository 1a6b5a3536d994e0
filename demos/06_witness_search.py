"""Budgeted search for 7-variable functions of second-order nonlinearity 42.

Candidates have the characterised shape fun_i1 || (fun_i2(Ax+b) + g)
with i1, i2 in {4, 6}.  The six level-set inclusions (condition 2) act
as a cheap filter; per the characterisation, a passing candidate must
give exactly 42 (a covering-radius lower-bound witness) and a failing
one at most 40.  The filter scans no candidate: each half's coset
values are fun_i2's cached ones permuted by the map A and the quadratic
g.  The searcher exact-checks every pass and a 1-in-k sample of
failures on the concatenation itself, and aborts with a dump if either
implication ever breaks.
"""

import json

import rm2cover as rm

config = rm.SearchConfig(i1=4, i2=6, seed=2024, budget=12, fail_check_rate=4)
records = []
summary = rm.witness_search(config, on_record=records.append)

print("summary:", json.dumps(summary.as_json_dict(), indent=2))
print()
for record in records[:3]:
    payload = record.as_json_dict()
    checked = payload["nl2_value"] is not None
    print(f"candidate {payload['candidate']}: cond2_pass={payload['cond2_pass']}"
          + (f", nl2={payload['nl2_value']} (exact={payload['nl2_exact']})" if checked else ""))

print()
print("A found witness would appear in the summary and carry its full")
print("(A, b, g) description for independent re-verification.")
