"""Reference values of M_n(x) by code paths the timed sweep does not use.

Usage: python3 perfbench/oracle.py SRC_DIR < rows.json

Reads a JSON list of ``{"system": name, "n": n, "x": x}`` and prints a JSON
list of reference values of

    M_n(x) = (1/n) * sum_{i=1}^{n-1} | int_0^{i/n} Q_n(u, x) du |.

For ``cosine`` the prefix integral has the closed form
``sum_k sin(pi k i/n)^2 cos(2 pi k x) / (pi k)^2``, evaluated here in numpy
without the library.  Every other system goes through
``ons_lab.boundedness_functional_naive``, which integrates each prefix
afresh by quadrature instead of the sweep's shared prefix tables; it costs
O(n^2) integrals, so callers keep n small.
"""

import json
import sys

import numpy as np


def cosine_mn(n: int, x: float) -> float:
    k = np.arange(1, n + 1, dtype=float)
    i = np.arange(1, n, dtype=float)
    weights = np.cos(2.0 * np.pi * k * x) / (np.pi * k) ** 2
    prefixes = np.sin(np.pi * np.outer(i, k) / n) ** 2 @ weights
    return float(np.abs(prefixes).sum() / n)


def naive_mn(system: str, n: int, x: float) -> float:
    import ons_lab
    ctx = ons_lab.KernelContext(ons_lab.get_system(system), n)
    return ons_lab.boundedness_functional_naive(ctx, x)


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    rows = json.load(sys.stdin)
    values = [cosine_mn(r["n"], r["x"]) if r["system"] == "cosine"
              else naive_mn(r["system"], r["n"], r["x"]) for r in rows]
    json.dump(values, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
