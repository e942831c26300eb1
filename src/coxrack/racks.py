"""Racks from conjugation-stable sets and their sign cocycles.

The rack of interest is the set of reflections of a finite Coxeter
group under conjugation, with the two cocycles: the root-sign cocycle
(+1/-1 according to where the acting element sends the positive root)
and the determinant cocycle.  Cocycle values are stored as exponents
modulo the coefficient order k, so the +-1 case is k = 2 and the
cohomologous question becomes a linear system over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import GroupTable


class RackAxiomError(ValueError):
    """Action table fails bijectivity or self-distributivity."""


class NotClosedError(ValueError):
    """Subset is not closed under conjugation; carries a witness triple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subset not closed under conjugation: {witness}")


class NotDihedralError(ValueError):
    pass


class NotDivisorError(ValueError):
    pass


@dataclass(frozen=True)
class Rack:
    """Finite rack: labels plus the left-action table act[i][j] = x_i > x_j."""

    labels: tuple[int, ...]
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.act) != n or any(len(row) != n for row in self.act):
            raise RackAxiomError("action table has the wrong shape")
        for i, row in enumerate(self.act):
            if sorted(row) != list(range(n)):
                raise RackAxiomError(f"row {i} of the action is not a permutation")
        for i in range(n):
            for j in range(n):
                ij = self.act[i][j]
                for k in range(n):
                    if self.act[i][self.act[j][k]] != self.act[ij][self.act[i][k]]:
                        raise RackAxiomError(
                            f"self-distributivity fails at ({i}, {j}, {k})")

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_trivial(self) -> bool:
        """Whether every element acts as the identity (abelian rack)."""
        n = self.size
        return all(self.act[i][j] == j for i in range(n) for j in range(n))

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


@dataclass(frozen=True)
class RackCocycle:
    """Map X x X -> Z/k, stored as exponents (the value is zeta_k^e)."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("coefficient order must be positive")
        for row in self.table:
            if any(not (0 <= e < self.order) for e in row):
                raise ValueError("exponent out of range")

    @property
    def size(self) -> int:
        return len(self.table)

    def exponent(self, i: int, j: int) -> int:
        return self.table[i][j]

    def sign(self, i: int, j: int) -> int:
        """The value as +-1; only meaningful for order 2."""
        if self.order != 2:
            raise ValueError("sign form requires coefficient order 2")
        return -1 if self.table[i][j] else 1

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
# Checkers
# ---------------------------------------------------------------------------


def cocycle_violation(q: RackCocycle, X: Rack):
    """First lexicographic triple violating the rack cocycle identity."""
    n = X.size
    k = q.order
    t = q.table
    act = X.act
    for x in range(n):
        for y in range(n):
            xy = act[x][y]
            for z in range(n):
                lhs = t[x][act[y][z]] + t[y][z]
                rhs = t[xy][act[x][z]] + t[x][z]
                if (lhs - rhs) % k:
                    return (x, y, z)
    return None


def is_cocycle(q: RackCocycle, X: Rack) -> bool:
    return cocycle_violation(q, X) is None


def check_equivariance(g: GroupTable, which: str) -> bool:
    """Group-level identity q(w1 w2, x) = q(w1, w2 > x) q(w2, x) on W x W x T.

    Checked at w2 = s_i only, with w1 s_i read from rmult; that proves
    it everywhere.  Let S be the set of w2 at which it holds for every
    w1 and x.  For a, b in S,
    q(w1 a b, x) = q(w1 a, b > x) q(b, x)
                 = q(w1, ab > x) q(a, b > x) q(b, x) = q(w1, ab > x) q(ab, x),
    the last step being the identity at b with w1 = a.  So S is closed
    under products, and once the simple reflections pass, all of W
    passes (the identity too: s s = 1).  Also asserts q(identity, x) = 1
    for all x.
    """
    table = q_plus_table(g) if which == "plus" else q_minus_table(g)
    if table[0].any():
        raise AssertionError("q(identity, x) != 1")
    C = g.conj_refl_table()
    for i in range(g.rank):
        s = g.simple_reflection(i)
        lhs = table[g.rmult[:, i], :]
        rhs = table[:, C[s]] ^ table[s][None, :]
        if not np.array_equal(lhs, rhs):
            return False
    return True


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


# ---------------------------------------------------------------------------
# Dihedral subracks
# ---------------------------------------------------------------------------


def dihedral_reflection_ids(g: GroupTable) -> list[int]:
    """Element ids of s (s's)^j for j = 0..m-1 in a rank-2 group."""
    if g.rank != 2:
        raise NotDihedralError("group is not dihedral (rank != 2)")
    m = g.matrix.entry(0, 1)
    s = g.simple_reflection(0)
    sp = g.simple_reflection(1)
    step = g.mul(sp, s)
    ids = []
    x = s
    for _ in range(m):
        ids.append(x)
        x = g.mul(x, step)
    return ids


def dihedral_subrack(g: GroupTable, n: int) -> Rack:
    """Subrack {s (s's)^j : n | j} of the reflections of an odd dihedral group."""
    if g.rank != 2:
        raise NotDihedralError("group is not dihedral (rank != 2)")
    m = g.matrix.entry(0, 1)
    if m % 2 == 0:
        raise NotDihedralError("dihedral subracks are defined for odd m")
    if n <= 0 or m % n != 0:
        raise NotDivisorError(f"{n} does not divide {m}")
    ids = dihedral_reflection_ids(g)
    js = [j for j in range(m) if j % n == 0]
    rack = reflection_rack(g).subrack(
        int(g.refl_index_of_elem[ids[j]]) for j in js)
    # closure law: s(s's)^j > s(s's)^l = s(s's)^(2j - l)
    for a, j in enumerate(js):
        for b, l in enumerate(js):
            want = ids[(2 * j - l) % m]
            assert rack.labels[rack.act[a][b]] == want
    return rack


def rack_isomorphic(X: Rack, Y: Rack) -> bool:
    """Backtracking isomorphism search (small racks only)."""
    n = X.size
    if n != Y.size:
        return False

    def extend(mapping, used):
        i = len(mapping)
        if i == n:
            return all(
                mapping[X.act[a][b]] == Y.act[mapping[a]][mapping[b]]
                for a in range(n) for b in range(n))
        for cand in range(n):
            if cand in used:
                continue
            mapping.append(cand)
            used.add(cand)
            ok = all(
                mapping[X.act[a][b]] == Y.act[mapping[a]][mapping[b]]
                for a in range(i + 1) for b in range(i + 1)
                if X.act[a][b] <= i)
            if ok and extend(mapping, used):
                return True
            mapping.pop()
            used.discard(cand)
        return False

    return extend([], set())
