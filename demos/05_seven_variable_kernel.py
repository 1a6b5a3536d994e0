"""The exact 7-variable second-order nonlinearity kernel.

The minimum over all 2^21 homogeneous quadratics comes from the two
6-variable halves, min over q of nl(f1 + q) + nl(f2 + q): one pass of
16 batched int8 Walsh transforms, each of both halves over 2048 q
(2.8-3.1 ms warm on a 2-core Xeon host with numpy 2.4, medians of 50
calls; the first call also builds the sign tables).  An
early-exit threshold turns the kernel into an upper-bound prover: its
result is that of a block scan stopped at the end of the first
2048-coset block whose running minimum is below the threshold.  Those
blocks come from the halves too, one 64-point transform per range of
512 q, so a check that stops in the first block takes 0.15-0.2 ms
warm.
"""

import time

import rm2cover as rm

f1 = rm.catalog_function("fun_1")
f = rm.concatenate(f1, f1)

t0 = time.time()
result = rm.exact_nl2_7(f)
print(f"nl2(fun_1 || fun_1) = {result.value} (exact={result.exact}, {1000 * (time.time() - t0):.0f} ms)")

t0 = time.time()
bounded = rm.exact_nl2_7(f, threshold=41)
print(f"with threshold 41: value {bounded.value}, exact={bounded.exact} "
      f"({1000 * (time.time() - t0):.0f} ms) - proves nl2 < 41 from the first block")

# The two agree: an inexact result is an upper bound below the threshold.
assert bounded.value >= result.value
assert bounded.value < 41

# Weight parity carries over to every coset distance, so an upper bound
# of 40 or less is what the concatenation propositions need.
print("weight parity:", rm.weight(f) % 2, "- all coset distances share it")
