"""Second-order nonlinearity and coset-nonlinearity profiles.

For an n-variable function f, scanning nl(f + q) over all homogeneous
quadratics q gives everything at once: the minimum is the second-order
nonlinearity (distance to the degree-<=2 Reed-Muller code), the
histogram is the profile, and the level sets feed the concatenation
machinery.
"""

import time

import rm2cover as rm

f = rm.catalog_function("fun_6")
t0 = time.time()
profile = rm.nfh_profile(f)
print(f"fun_6 profile over {sum(profile.counts.values())} quadratic forms "
      f"({time.time() - t0:.2f}s):")
for r, count in profile.csv_rows():
    print(f"  nl = {r:2d}: {count:6d} forms")

print("second-order nonlinearity:", rm.second_order_nonlinearity(f))
assert rm.second_order_nonlinearity(f) == profile.min_r

# Level sets are bitsets over the quadratic index space.
level = rm.fh_set(rm.catalog_function("fun_3"), 28)
print("fun_3 has", level.count, "cosets at nonlinearity 28 (bent members)")
print("first members:", level.members()[:4].tolist())

# Inclusions between level sets compare two coset-value arrays.
vals3 = rm.coset_nonlinearities(rm.catalog_function("fun_3"))
witness = rm.level_set_outside(vals3, 16, vals3, {26})
print("level(16) within level(26)?", witness is None, "- counterexample index", witness)

# Profiles are invariant under x -> Ax+b composition and degree-<=2
# additions, which is what makes them useful as equivalence fingerprints.
m = rm.random_affine_map(6, seed=1)
assert rm.nfh_profile(rm.apply_affine(f, m)) == profile
print("profile unchanged under a random invertible affine substitution")
