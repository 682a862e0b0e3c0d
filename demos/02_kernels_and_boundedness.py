"""Kernels, prefix integrals, and the boundedness functional.

The mean of absolute prefix integrals of the antiderivative kernel is the
central diagnostic: it stays O(1) in n for systems whose partial sums
behave on smooth functions.  Sweeping it over n and classifying the
running maximum gives desk-scale evidence for boundedness.
"""

import numpy as np

from ons_lab import (
    KernelContext,
    antiderivative_kernel,
    boundedness_experiment,
    boundedness_functional,
    dirichlet_kernel,
    get_system,
    kernel_prefix_integral,
)

cosine = get_system("cosine")
ctx = KernelContext(cosine, 8)

print("Dirichlet-type kernel at (0.2, 0.7):", dirichlet_kernel(ctx, 0.2, 0.7))
print("antiderivative kernel at (0.25, 0.0):",
      antiderivative_kernel(ctx, 0.25, 0.0))
print("prefix integral to t=0.3 at x=0.1:",
      kernel_prefix_integral(ctx, 0.3, 0.1))
print("boundedness functional at x=0.3:", boundedness_functional(ctx, 0.3))

# --- sweep the functional over n and classify -----------------------------
for name in ("cosine", "haar"):
    report = boundedness_experiment(get_system(name), [0.3], 128)[0.3]
    values = np.asarray(report.values)
    print(f"\n{name}: M_n for n=2..128 -> {report.classification}")
    print(f"  largest value {report.bound_estimate:.6f}, "
          f"log-slope of the running max {report.slope_log:.2e}")
    print(f"  first values {values[:5].round(5)}, last {values[-3:].round(5)}")
