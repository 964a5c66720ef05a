#!/usr/bin/env python3
"""Fixed reference work: how fast the machine runs at this moment.

    python3 perfbench/reference.py

``run.py`` runs this in fresh interpreters between its timed steps and
divides the steps' times by the mean time of these runs.  It uses no code of
the package under test, so no change to the package can move it; it only
tracks the machine.  Its work has the package's character: interpreter
start-up and the same numpy and scipy imports, then moment sums over index
tuples in Python loops with dict look-ups (as the per-sample pipeline and
the population values make them), a small moment tensor with a triangular
solve and an eigen-solve (as the batched engine makes them), and scalar
``hyperu`` calls (as the quadratures make them).
"""

from itertools import product

import numpy as np
import scipy.linalg
import scipy.special

ROUNDS = 3


def one_round(x: np.ndarray) -> float:
    n, p = x.shape
    z = x - x.mean(axis=0)
    chol = np.linalg.cholesky(z.T @ z / n)
    z = scipy.linalg.solve_triangular(chol, z.T, lower=True).T
    t4 = np.einsum("ni,nj,nk,nl->nijkl", z, z, z, z).reshape(n, -1)
    total = float(np.linalg.eigvalsh(t4.T @ t4 / n)[-1])

    cols = [[float(v) for v in z[:, j]] for j in range(p)]
    moments = {}
    for idx in product(range(p), repeat=4):
        a, b, c, d = (cols[i] for i in idx)
        acc = 0.0
        for k in range(n):
            acc += a[k] * b[k] * c[k] * d[k]
        moments[idx] = acc / n
    for (i, j, k, m), v in moments.items():
        total += v * moments[j, i, m, k] - 0.5 * moments[i, i, k, k]
    total += sum(scipy.special.hyperu(1.5, 0.5, 0.05 * (k + 0.5)) for k in range(20))
    return total


def main() -> None:
    x = np.random.default_rng(12345).standard_normal((60, 4))
    total = 0.0
    for _ in range(ROUNDS):
        total += one_round(x)
        x = x[::-1] + 0.01
    if not np.isfinite(total):
        raise SystemExit("reference work gave a non-finite result")


if __name__ == "__main__":
    main()
