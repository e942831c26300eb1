"""Racks from conjugation-stable sets and their sign cocycles.

The rack of interest is the set of reflections of a finite Coxeter
group under conjugation, with the two cocycles: the root-sign cocycle
(+1/-1 according to where the acting element sends the positive root)
and the determinant cocycle.  Cocycle values are stored as exponents
modulo the coefficient order k, so the +-1 case is k = 2 and the
cohomologous question becomes a linear system over GF(2).
"""

from __future__ import annotations

import numpy as np

from .coxeter import GroupTable


class RackAxiomError(ValueError):
    """Action table fails bijectivity or self-distributivity."""


class NotClosedError(ValueError):
    """Subset is not closed under conjugation; carries a witness triple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subset not closed under conjugation: {witness}")


class Rack:
    """Finite rack: labels plus the left-action table act[i][j] = x_i > x_j."""

    def __init__(self, labels: tuple[int, ...],
                 act: tuple[tuple[int, ...], ...]):
        self.labels, self.act = labels, act
        n = len(labels)
        if len(act) != n or any(len(row) != n for row in act):
            raise RackAxiomError("action table has the wrong shape")
        for i, row in enumerate(act):
            if sorted(row) != list(range(n)):
                raise RackAxiomError(f"row {i} of the action is not a permutation")
        for i in range(n):
            for j in range(n):
                ij = act[i][j]
                for k in range(n):
                    if act[i][act[j][k]] != act[ij][act[i][k]]:
                        raise RackAxiomError(
                            f"self-distributivity fails at ({i}, {j}, {k})")

    @property
    def size(self) -> int:
        return len(self.labels)

    def subrack(self, indices) -> "Rack":
        """Restriction to a closed subset of positions."""
        idx = list(indices)
        pos = {v: p for p, v in enumerate(idx)}
        act = []
        for i in idx:
            row = []
            for j in idx:
                t = self.act[i][j]
                if t not in pos:
                    raise NotClosedError((self.labels[i], self.labels[j],
                                          self.labels[t]))
                row.append(pos[t])
            act.append(tuple(row))
        return Rack(labels=tuple(self.labels[i] for i in idx), act=tuple(act))


class RackCocycle:
    """Map X x X -> Z/k, stored as exponents (the value is zeta_k^e)."""

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...]):
        self.order, self.table = order, table
        if order < 1:
            raise ValueError("coefficient order must be positive")
        for row in table:
            if any(not (0 <= e < order) for e in row):
                raise ValueError("exponent out of range")

    @property
    def size(self) -> int:
        return len(self.table)

    def restrict(self, indices) -> "RackCocycle":
        idx = list(indices)
        return RackCocycle(self.order, tuple(
            tuple(self.table[i][j] for j in idx) for i in idx))


def reflection_rack(g: GroupTable) -> Rack:
    """The rack of all reflections, in reflection-index order: the rows
    of conj_refl_table at the reflections.  Subracks are Rack.subrack."""
    refl_elems = [t.elem for t in g.reflections]
    act = g.conj_refl_table()[refl_elems].tolist()
    return Rack(labels=tuple(refl_elems), act=tuple(map(tuple, act)))


# ---------------------------------------------------------------------------
# The two sign cocycles
# ---------------------------------------------------------------------------


def q_plus_table(g: GroupTable) -> np.ndarray:
    """(|W|, |T|) exponent table of the root-sign function on W x T.

    Entry (w, y) is 1 exactly when w sends the positive root of y into
    the negative roots.  (That this is the length drop l(w y) < l(w),
    Humphreys 5.7, is checked by a test oracle.)
    """
    roots = np.array([t.root for t in g.reflections], dtype=np.int64)
    return (g.perms[:, roots] >= g.nroots).astype(np.uint8)


def q_minus_table(g: GroupTable) -> np.ndarray:
    """(|W|, |T|) exponent table of the determinant function on W x T."""
    col = (g.length_arr % 2).astype(np.uint8)
    return np.repeat(col[:, None], len(g.reflections), axis=1)


def _restrict_to_reflections(g: GroupTable, full: np.ndarray) -> RackCocycle:
    refl_elems = [t.elem for t in g.reflections]
    return RackCocycle(2, tuple(
        tuple(int(full[e][t]) for t in range(len(refl_elems)))
        for e in refl_elems))


def q_plus(g: GroupTable) -> RackCocycle:
    """Root-sign cocycle restricted to T x T (exponents mod 2)."""
    return _restrict_to_reflections(g, q_plus_table(g))


def q_minus(g: GroupTable) -> RackCocycle:
    """Determinant cocycle restricted to T x T: constantly -1."""
    return _restrict_to_reflections(g, q_minus_table(g))


# ---------------------------------------------------------------------------
# Cohomology of the sign cocycles
# ---------------------------------------------------------------------------


def cohomologous_solve(q1: RackCocycle, q2: RackCocycle, X: Rack):
    """Solve q1(x,y) = gamma(x>y)^-1 q2(x,y) gamma(y) for gamma: X -> {+-1}.

    Returns gamma as a tuple of exponent bits, or None.  Over GF(2) the
    equations read bit(x>y) + bit(y) = c(x, y), c = log(q1/q2).  Both
    unknowns of an equation lie in one orbit of the rack, so flipping
    every bit of an orbit leaves all equations unchanged, and two
    solutions differ by a constant on each orbit.  So bit 0 is set at
    each orbit's smallest index and propagated along y -> x>y; a
    solution exists iff the result satisfies every equation.

    These are the bits that Gaussian elimination of the equations
    returns when each reduced row pivots on its highest set bit and
    free unknowns are 0.  Every row has even support on each orbit (two
    bits of one orbit, or none), so every sum of rows does too, and the
    highest bit of a nonzero sum has a lower bit of its own orbit beside
    it.  So no orbit's smallest index is ever a pivot: elimination sets
    it to 0 as well, and the solution with those bits is unique.
    """
    if q1.order != 2 or q2.order != 2:
        raise ValueError("cohomologous solver requires +-1 valued cocycles")
    n = X.size
    act = np.array(X.act, dtype=np.int64).reshape(n, n)
    c = (np.array(q1.table) - np.array(q2.table)).reshape(n, n) % 2
    bits = [None] * n
    for start in range(n):
        if bits[start] is not None:
            continue
        bits[start] = 0
        frontier = [start]
        while frontier:
            y = frontier.pop()
            for x in range(n):
                z = int(act[x, y])
                if bits[z] is None:
                    bits[z] = bits[y] ^ int(c[x, y])
                    frontier.append(z)
    gamma = np.array(bits, dtype=np.int64)
    if not np.array_equal((gamma[act] + gamma[None, :]) % 2, c):
        return None
    return tuple(bits)

