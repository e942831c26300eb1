"""Slow reference constructions shared by the tests."""

import itertools

import numpy as np

from coxrack.nichols import BraidedSpace, perm_operator


def symmetrizer_literal_exact(V: BraidedSpace, n: int) -> np.ndarray:
    """Sum over all n! permutations, as integer counts per zeta power.

    Returns an (N, N, k) array over Z[x]/(x^k - 1); reduce with
    reduce_zeta_array for canonical comparisons.  O(n! N).
    """
    N = V.dim ** n
    acc = np.zeros((N, N, V.k), dtype=np.int64)
    cols = np.arange(N)
    for sigma in itertools.permutations(range(n)):
        op = perm_operator(V, n, sigma)
        np.add.at(acc, (op.perm, cols, op.expo), 1)
    return acc
