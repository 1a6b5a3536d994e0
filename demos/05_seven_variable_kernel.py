"""The exact 7-variable second-order nonlinearity kernel.

One call scans all 2^21 homogeneous quadratics with a batched Walsh
transform (0.5 s on a 2-core Xeon host with numpy 2.4).  An early-exit threshold turns the kernel
into a fast upper-bound prover: the scan stops at the end of the first
2048-coset block whose running minimum is below the threshold.
"""

import time

import rm2cover as rm

f1 = rm.catalog_function("fun_1")
f = rm.concatenate(f1, f1)

t0 = time.time()
result = rm.exact_nl2_7(f)
print(f"nl2(fun_1 || fun_1) = {result.value} (exact={result.exact}, {time.time() - t0:.1f}s)")

t0 = time.time()
bounded = rm.exact_nl2_7(f, threshold=41)
print(f"with threshold 41: value {bounded.value}, exact={bounded.exact} "
      f"({time.time() - t0:.2f}s) - proves nl2 < 41 almost instantly")

# The two agree: an inexact result is an upper bound below the threshold.
assert bounded.value >= result.value
assert bounded.value < 41

# Weight parity carries over to every coset distance, so an upper bound
# of 40 or less is what the concatenation propositions need.
print("weight parity:", rm.weight(f) % 2, "- all coset distances share it")
