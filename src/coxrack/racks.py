"""The rack of reflections and its two sign cocycles, as integer arrays.

The rack of interest is the set T of reflections of a finite Coxeter
group under conjugation, with the two cocycles: the root-sign cocycle
q+ (+1/-1 according to where the acting element sends the positive
root) and the determinant cocycle q-.  Each is one |T| x |T| table:
Rack.act holds x_i > x_j as reflection indices (intp), and a cocycle
holds exponents mod 2 (uint8), the value being (-1)^e, so the
cohomologous question is a linear system over GF(2).  q- is constantly
-1 on T, since every reflection has odd length: s_beta = s_i s_beta' s_i
with beta = s_i beta', each letter changes the length by one, so
conjugating by s_i keeps its parity, and l(s_i) = 1.

Nothing here checks the rack axioms or the cocycle identity, because
every command that reads these tables has checked them already:

- `hilbert` builds BraidedSpace(2, X.act, q), which checks that each
  row of X.act is a bijection and that the braid equation holds on every
  basis triple.  For c(x (x) y) = q(x, y) (x > y) (x) x, the basis
  vector that c1 c2 c1 and c2 c1 c2 send x (x) y (x) z to is
  (x > (y > z)) (x) (x > y) (x) x and ((x > y) > (x > z)) (x) (x > y)
  (x) x, so the braid equation is self-distributivity together with the
  cocycle identity q(x, y > z) + q(y, z) = q(x > y, x > z) + q(x, z)
  (Andruskiewitsch-Grana, From racks to pointed Hopf algebras, 2003).
- `certify` runs extension.check_global before it reads the rack.  It
  compares rho(w) > rho(y) with rho(conj_refl_table[w, y]) over all of
  W x T, up to the central z.  rho is a section of the verified
  homomorphism pi, so a wrong table entry would project to a different
  element than w y w^-1 and fail.  So the table is conjugation, and
  conjugation in a group is a rack: bijective rows (x > - has inverse
  x^-1 > -) and x (y z y^-1) x^-1 = (x y x^-1)(x z x^-1)(x y x^-1)^-1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coxeter import GroupTable


class Rack(NamedTuple):
    """Finite rack: element ids and the action table act[i, j] = x_i > x_j."""

    labels: np.ndarray
    act: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)

    def subrack(self, indices) -> "Rack":
        """Restriction to a closed subset of positions."""
        idx = np.asarray(indices, dtype=np.intp)
        pos = np.full(self.size, -1, dtype=np.intp)
        pos[idx] = np.arange(len(idx))
        act = pos[self.act[np.ix_(idx, idx)]]
        if (act < 0).any():     # -1 would silently wrap as an index
            raise ValueError("subset not closed under the rack action")
        return Rack(self.labels[idx], act)


def reflection_rack(g: GroupTable) -> Rack:
    """The rack of all reflections, in reflection-index order: the rows
    of conj_refl_table at the reflections.  Subracks are Rack.subrack."""
    return Rack(g.refl_elems,
                g.conj_refl_table()[g.refl_elems].astype(np.intp))


# ---------------------------------------------------------------------------
# The two sign cocycles
# ---------------------------------------------------------------------------


def q_plus_table(g: GroupTable) -> np.ndarray:
    """(|W|, |T|) exponent table of the root-sign function on W x T.

    Entry (w, y) is 1 exactly when w sends the positive root of y into
    the negative roots.  (That this is the length drop l(w y) < l(w),
    Humphreys 5.7, is checked by a test oracle.)
    """
    return (g.perms[:, g.refl_roots] >= g.nroots).astype(np.uint8)


def q_plus(g: GroupTable) -> np.ndarray:
    """Root-sign cocycle on T x T (exponents mod 2)."""
    return q_plus_table(g)[g.refl_elems]


def q_minus(g: GroupTable) -> np.ndarray:
    """Determinant cocycle on T x T: constantly -1, as every reflection
    has odd length (the parity argument in the module docstring)."""
    n = g.nroots
    return np.ones((n, n), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Cohomology of the sign cocycles
# ---------------------------------------------------------------------------


def cohomologous_solve(q1: np.ndarray, q2: np.ndarray, X: Rack):
    """Solve q1(x,y) = gamma(x>y)^-1 q2(x,y) gamma(y) for gamma: X -> {+-1}.

    q1 and q2 are |X| x |X| exponent tables mod 2.  Returns gamma as a
    tuple of exponent bits, or None.  Over GF(2) the equations read
    bit(x>y) + bit(y) = c(x, y), c = log(q1/q2).  Both unknowns of an
    equation lie in one orbit of the rack, so flipping every bit of an
    orbit leaves all equations unchanged, and two solutions differ by a
    constant on each orbit.  So bit 0 is set at each orbit's smallest
    index and propagated along y -> x>y; a solution exists iff the
    result satisfies every equation.

    These are the bits that Gaussian elimination of the equations
    returns when each reduced row pivots on its highest set bit and
    free unknowns are 0.  Every row has even support on each orbit (two
    bits of one orbit, or none), so every sum of rows does too, and the
    highest bit of a nonzero sum has a lower bit of its own orbit beside
    it.  So no orbit's smallest index is ever a pivot: elimination sets
    it to 0 as well, and the solution with those bits is unique.
    """
    n = X.size
    c = (np.asarray(q1, dtype=np.int64) - q2) % 2
    act, cl = X.act.tolist(), c.tolist()
    bits = [None] * n
    for start in range(n):
        if bits[start] is not None:
            continue
        bits[start] = 0
        frontier = [start]
        while frontier:
            y = frontier.pop()
            for x in range(n):
                z = act[x][y]
                if bits[z] is None:
                    bits[z] = bits[y] ^ cl[x][y]
                    frontier.append(z)
    gamma = np.array(bits, dtype=np.int64)
    if not np.array_equal((gamma[X.act] + gamma[None, :]) % 2, c):
        return None
    return tuple(bits)
