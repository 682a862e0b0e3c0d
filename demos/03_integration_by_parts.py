"""Partial sums split by integration by parts.

For a function with a Lipschitz derivative the partial sum equals a
boundary term against the Dirichlet-type kernel minus the derivative
paired with the antiderivative kernel:

    S_n(x) = f(1) * int B_n(u, x) du - int f'(u) Q_n(u, x) du

Both sides are computed by quadrature; the residual is roundoff.
"""

from ons_lab import (
    KernelContext,
    coefficients,
    get_function,
    get_system,
    partial_sum,
    partial_sum_by_parts,
)

haar = get_system("haar")
bump = get_function("cos-bump")

table = coefficients(KernelContext(haar, 32), bump)
print("first coefficients of the bump against the step system:")
print(table.coeffs[:6].round(6))
print("S_16(0.3):", partial_sum(table, 16, 0.3))

for n in (4, 8, 16, 32):
    split = partial_sum_by_parts(KernelContext(haar, n), table, 0.3)
    print(f"n={n:3d}  sum={split.partial_sum:+.8f}  "
          f"boundary={split.boundary_term:+.8f}  "
          f"derivative={split.derivative_term:+.8f}  "
          f"residual={split.residual:+.2e}")

# The identity function has f' = 1 and f(1) = 1; on the cosine system all
# its coefficients vanish, so both routes must give zero.
cosine = KernelContext(get_system("cosine"), 8)
split = partial_sum_by_parts(cosine, coefficients(cosine, get_function("id")),
                             0.2)
print("\nidentity function on cosine: sum =", f"{split.partial_sum:.2e},",
      "boundary - derivative =",
      f"{split.boundary_term - split.derivative_term:.2e}")
