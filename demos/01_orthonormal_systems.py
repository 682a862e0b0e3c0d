"""Tour of the system catalog: evaluation, antiderivatives, Gram matrices.

Every system lives on [0, 1] and is addressed by name.  The compress-and
-reflect transform squeezes a system into the left half and repeats it
with flipped sign on the right, which wipes out every element's mean.
"""

import numpy as np

from ons_lab import get_system, gram_matrix, integrate, recommended_rule

# --- evaluate a few elements pointwise -----------------------------------
cosine = get_system("cosine")
haar = get_system("haar")

print("cosine element 1 at u=0:", cosine.eval(1, 0.0))
print("haar element 2 on the two halves:", haar.eval(2, 0.25), haar.eval(2, 0.75))
# period(k) is (repeats, jumps); a Haar element does not repeat, so its
# jumps are the whole list
print("haar element 5 support jumps:", haar.period(5)[1])

# Antiderivatives are closed-form for every shipped system; the dyadic
# step elements integrate to tents that peak at their support midpoints.
us = np.linspace(0.0, 1.0, 9)
print("\ntent antiderivative of haar element 2 on a coarse grid:")
print(np.asarray(haar.antideriv(2, us)).round(4))

# --- orthonormality as a computation, not an assumption ------------------
print("\nmax |Gram - I| for the first 16 elements:")
for name in ("cosine", "haar", "rademacher", "reflect(cosine)",
             "reflect2(cosine)", "reflect(haar)"):
    system = get_system(name)
    err = np.abs(gram_matrix(system, 16) - np.eye(16)).max()
    print(f"  {name:18s} {err:.3e}")

# --- reflection kills means -----------------------------------------------
once = get_system("reflect(cosine)")
rule = recommended_rule(once, 8)
means = [integrate(lambda u, n=n: np.asarray(once.eval(n, u), dtype=float),
                   rule).value for n in range(1, 9)]
print("\nmeans of the first reflected elements (all ~0):")
print(np.array(means).round(15))
