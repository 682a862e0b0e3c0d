"""Vanishing-moment systems by compressing and reflecting.

One reflection makes every element integrate to zero; a second reflection
also kills the first moment.  Partial sums of the constant and identity
functions against the twice-reflected system are therefore identically
zero, while coefficients of compressed bumps merely halve at each level
instead of vanishing: boundedness of those two probe functions does not
by itself tame every smooth function.
"""

import numpy as np

from ons_lab import KernelContext, coefficients, get_function, get_system

once = KernelContext(get_system("reflect(cosine)"), 8)
twice = KernelContext(get_system("reflect2(cosine)"), 8)

one, ident = get_function("one"), get_function("id")
print("moments of the reflected systems (first 8 elements):")
print("  mean, once reflected:   ",
      np.abs(coefficients(once, one).coeffs).max())
print("  mean, twice reflected:  ",
      np.abs(coefficients(twice, one).coeffs).max())
print("  1st moment, twice refl.:",
      np.abs(coefficients(twice, ident).coeffs).max())

# The halving law: compressing a function one level while reflecting the
# system once more halves every coefficient.
g = get_function("g-compressed")    # bump squeezed into [0, 1/2)
h = get_function("h-compressed")    # squeezed once more, into [0, 1/4)
c_once = coefficients(once, g).coeffs
c_twice = coefficients(twice, h).coeffs
print("\ncoefficient halving, first 8 entries:")
for n in range(8):
    print(f"  n={n + 1}:  {c_twice[n]:+.8f}  vs  half of  {c_once[n]:+.8f}"
          f"  (diff {c_twice[n] - c_once[n] / 2:+.1e})")

print("\nnonzero coefficients survive the reflections:",
      bool(np.abs(c_twice).max() > 1e-3))
