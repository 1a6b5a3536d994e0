"""Equivalence testing modulo degree-2 additions.

Two functions are equivalent here when f2 = f1(Ax+b) + g with A
invertible and deg(g) <= 2.  The search prunes with invariants
(derivative spectra, the third-derivative weight cube, coset profiles)
and returns a witness that re-substitutes bit for bit.  The derivative
invariants come from Walsh transforms of the second-derivative signs:
by the Wiener-Khinchin identity, transforming an autocorrelation gives
the squared spectrum, and transforming squared spectra gives the
autocorrelations, whose values are the third-derivative weights.
"""

import numpy as np

import rm2cover as rm
from rm2cover.affine import sample_affine_map

rng = np.random.default_rng(7)

# Build an equivalent copy of fun_5 and recover a witness.
f = rm.catalog_function("fun_5")
hidden = sample_affine_map(6, rng)
moved = rm.apply_affine(f, hidden)
result = rm.equivalence_search(f, moved)
print("constructed instance:", result.status, "after", result.nodes, "nodes")
assert result.witness.substitute(f) == moved
print("witness:", result.witness.as_json_dict())

# Catalog functions in different classes are rejected by invariants
# alone, without exploring the search tree.
result = rm.equivalence_search(rm.catalog_function("fun_4"), rm.catalog_function("fun_6"))
print("fun_4 vs fun_6:", result.status, "-", result.reason)

# A surprise in the catalog: adding the full monomial x1..x6 to fun_7
# lands in the same class as fun_2 (both second-order nonlinearity 17).
f2 = rm.catalog_function("fun_2")
t7 = rm.catalog_function("top_fun_7")
result = rm.equivalence_search(f2, t7)
print("fun_2 vs top_fun_7:", result.status, "after", result.nodes, "nodes")
assert result.witness.substitute(f2) == t7
print("so nl2(top_fun_7) =", rm.second_order_nonlinearity(t7), "= nl2(fun_2)")
