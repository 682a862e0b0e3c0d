"""The mesh summation identity and its two local-sum variants.

``int_0^1 f'(x) F(x) dx`` decomposes over the uniform mesh i/n into a
shifted-difference sum, a within-cell variation sum, and a tail term.
With the local sum over all n cells the identity is exact; stopping at
n - 1 leaves an O(1/n) remainder that vanishes only for constant F.
One call evaluates both variants, so the remainder is visible.
"""

from ons_lab import get_function, kernel_section, summation_identity
from ons_lab.systems import cosine_system

f = get_function("half-square")          # f' = u

print("constant factor F = 1: both variants exact")
for n in (2, 8, 32):
    res = summation_identity(f, get_function("one"), n)
    print(f"  n={n:3d}  lhs={res.lhs:.10f}  residual(n)={res.residual:+.2e}"
          f"  residual(n-1)={res.residual_n_minus_1:+.2e}")

print("\nkernel factor F = Q_8(., 0.3) on cosine: the remainder appears")
F = kernel_section(cosine_system(), 8, 0.3)
for n in (2, 8, 32):
    res = summation_identity(f, F, n)
    print(f"  n={n:3d}  lhs={res.lhs:+.10f}  residual(n)={res.residual:+.2e}"
          f"  residual(n-1)={res.residual_n_minus_1:+.2e}")

print("\nterm breakdown at n=4 with the kernel factor:")
res = summation_identity(f, F, 4)
print(f"  difference={res.term_difference:+.8f}  local={res.term_local:+.8f}"
      f"  tail={res.term_tail:+.8f}  -> rhs={res.rhs:+.8f}")
