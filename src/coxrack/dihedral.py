"""Diagonal braidings over dihedral rotation subgroups, and the order-12 case.

For the dihedral group of order 2n with n = 2r, r odd, the graded
modules over the rotation subgroup that carry finite Nichols algebras
are spanned by weight vectors: each basis vector has a degree (a power
of the rotation) and a character (the eigenvalue exponent of the
rotation action), both exponents modulo 2r with respect to a fixed
primitive 2r-th root of unity.  The braiding is diagonal with
q(x, y) = zeta^(deg_x * char_y).

One-dimensional summands carry degree r, character r.  Two-dimensional
summands carry parameters (h, j), both odd, h <= r, j <= r - 2, with r
dividing h j; the two basis vectors get (h, j) and (-h, -j).  A sum of
such summands is compatible exactly when r divides h j' + h' j for each
pair, in which case the Nichols algebra is a twisted tensor product of
exterior algebras of total dimension 2^dim.

The order-12 group (r = 3) additionally carries three-dimensional
modules supported on its two reflection classes, built from their
explicit generator action tables.  A generator acts by a monomial
operator, the pair (perm, expo) of int64 arrays of e_j ->
zeta^expo[j] e_perm[j] (see nichols.compose).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coxeter import GroupTable
from .nichols import BraidedSpace, compose


class InvalidSummandError(ValueError):
    """Summand parameters violate the admissibility constraints."""


# ---------------------------------------------------------------------------
# Admissible summands and the diagonal braiding
# ---------------------------------------------------------------------------


def admissible_pairs(r: int) -> list[tuple[int, int]]:
    """All (h, j) with h <= r and j <= r - 2 odd and r | h j."""
    if r < 3 or r % 2 == 0:
        raise InvalidSummandError("r must be odd and at least 3")
    return [(h, j)
            for h in range(1, r + 1, 2)
            for j in range(1, r - 1, 2)
            if (h * j) % r == 0]


def validate_summand(r: int, h: int, j: int):
    if not (1 <= h <= r and h % 2 == 1):
        raise InvalidSummandError(f"h = {h} must be odd in 1..{r}")
    if not (1 <= j <= r - 2 and j % 2 == 1):
        raise InvalidSummandError(f"j = {j} must be odd in 1..{r - 2}")
    if (h * j) % r != 0:
        raise InvalidSummandError(f"r = {r} must divide h j = {h * j}")


def dihedral_yd(r: int, pairs=(), v0_copies: int = 0) -> BraidedSpace:
    """Diagonal braided space of a sum of admissible summands: x > y = y,
    with the scalar zeta^(deg_x * char_y).

    pairs is a list of distinct (h, j); v0_copies adds one-dimensional
    summands.  Scalars live in the 2r-th roots of unity.
    """
    if r < 3 or r % 2 == 0:
        raise InvalidSummandError("r must be odd and at least 3")
    if v0_copies < 0:
        raise InvalidSummandError(
            f"v0 copies must be at least 0, got {v0_copies}")
    k = 2 * r
    degrees = [r] * v0_copies
    chars = [r] * v0_copies
    seen = set()
    for h, j in pairs:
        validate_summand(r, h, j)
        if (h, j) in seen:
            raise InvalidSummandError(f"duplicate summand ({h}, {j})")
        seen.add((h, j))
        degrees += [h % k, (-h) % k]
        chars += [j % k, (-j) % k]
    if not degrees:
        raise InvalidSummandError("empty sum")
    d = len(degrees)
    return BraidedSpace(k, np.tile(np.arange(d), (d, 1)),
                        np.outer(degrees, chars) % k)


def compatible(r: int, pairs) -> bool:
    """Whether r divides h j' + h' j for every pair of summands."""
    for h, j in pairs:
        validate_summand(r, h, j)
    return all((h * j2 + h2 * j) % r == 0
               for a, (h, j) in enumerate(pairs)
               for (h2, j2) in pairs[a:])


class DynkinDiagram(NamedTuple):
    """Vertex labels q_ii and edge labels q_ij q_ji (as zeta exponents)."""

    vertices: tuple[int, ...]
    edges: dict[tuple[int, int], int]


def dynkin_diagram(V: BraidedSpace) -> DynkinDiagram:
    """Generalized Dynkin diagram of a diagonal braiding, in Python ints."""
    d, q = V.dim, V.expo.tolist()
    edges = {}
    for i in range(d):
        for j in range(i + 1, d):
            e = (q[i][j] + q[j][i]) % V.k
            if e:
                edges[(i, j)] = e
    return DynkinDiagram(vertices=tuple(q[i][i] for i in range(d)),
                         edges=edges)


def exterior_coefficients(dim: int) -> list[int]:
    """Binomial Hilbert coefficients of an exterior algebra, plus the 0 tail."""
    from math import comb

    return [comb(dim, n) for n in range(dim + 1)] + [0]


# ---------------------------------------------------------------------------
# The order-12 dihedral group: graded modules over the full group
# ---------------------------------------------------------------------------


class GradedModule:
    """Module graded by group elements with monomial generator actions.

    Scalars are powers of a fixed primitive k-th root of unity.
    gen_actions holds one (perm, expo) pair of int64 arrays per Coxeter
    generator, e_j -> zeta^expo[j] e_perm[j]; they determine everything
    else via canonical words.  Construction verifies the defining
    relations and the grading compatibility h V_g = V_(h g h^-1).
    """

    def __init__(self, g: GroupTable, k: int,
                 degrees: tuple[int, ...],     # element ids
                 gen_actions: tuple):          # one (perm, expo) per generator
        self.g, self.k = g, k
        self.degrees, self.gen_actions = degrees, gen_actions
        dim = len(degrees)
        if any(len(perm) != dim for perm, _ in gen_actions):
            raise ValueError("generator action has the wrong shape")
        # defining relations of the dihedral group act trivially
        one = np.arange(dim)
        for i, op in enumerate(gen_actions):
            perm, expo = compose(dim, k, (op, op))
            if (perm != one).any() or expo.any():
                raise ValueError(f"generator {i} does not act as an involution")
        perm, expo = compose(dim, k, gen_actions[:2] * g.matrix.entry(0, 1))
        if (perm != one).any() or expo.any():
            raise ValueError("the braid relation does not act as the identity")
        # grading compatibility for the generators: s_i d s_i, the left
        # factor by s_i y = (y^-1 s_i)^-1
        deg = np.array(degrees, dtype=np.intp)
        for i, (perm, _) in enumerate(gen_actions):
            conj = g.inv_arr[g.rmult[g.inv_arr[g.rmult[deg, i]], i]]
            if not np.array_equal(deg[perm], conj):
                raise ValueError("action violates the grading rule")

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def act(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Action of an arbitrary element along its canonical word."""
        return compose(self.dim, self.k,
                       [self.gen_actions[i] for i in self.g.word(w)])


def direct_sum(*modules: GradedModule) -> GradedModule:
    first = modules[0]
    g, k = first.g, first.k
    if any(m.g is not g or m.k != k for m in modules):
        raise ValueError("summands live over different groups or scalar orders")
    degrees = tuple(d for m in modules for d in m.degrees)
    offs = np.cumsum([0] + [m.dim for m in modules[:-1]])
    gen_actions = tuple(
        (np.concatenate([m.gen_actions[i][0] + o
                         for m, o in zip(modules, offs)]),
         np.concatenate([m.gen_actions[i][1] for m in modules]))
        for i in range(g.rank))
    return GradedModule(g=g, k=k, degrees=degrees, gen_actions=gen_actions)


def braided_from_graded(mod: GradedModule) -> BraidedSpace:
    """Braiding c(x tensor y) = (deg x . y) tensor x of a graded module.

    The grading rule deg(h . y) = h deg(y) h^-1, which GradedModule
    checks on the generators, holds for every h, the degrees included:
    act(h) composes the generators' actions along h's canonical word, so
    for h = h' s, s its last letter, deg(h . y) = deg(h' . (s . y)) =
    h' (s deg(y) s) h'^-1 = h deg(y) h^-1 by induction on the word.
    """
    perms, expos = zip(*(mod.act(deg) for deg in mod.degrees))
    return BraidedSpace(mod.k, perms, expos)


def _require_i26(g: GroupTable):
    if g.rank != 2 or g.matrix.entry(0, 1) != 6:
        raise ValueError("these modules live over the dihedral group of order 12")


def _monomial(k, entries) -> tuple[np.ndarray, np.ndarray]:
    """The (perm, expo) pair of entries: per basis index, (exponent,
    target index)."""
    return (np.array([t for _, t in entries], dtype=np.int64),
            np.array([e % k for e, _ in entries], dtype=np.int64))


def u_module(g: GroupTable, j: int, primed: bool = False) -> GradedModule:
    """Three-dimensional module supported on one reflection class (j = 0, 1).

    The action is given on the first generator and on the rotation; the
    second generator action is derived from s' = s c.
    """
    _require_i26(g)
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    k = 6

    def s_c(e):
        """The element s c^e, c = s s' the rotation."""
        return g.element((0,) + (0, 1) * e)

    if not primed:
        # basis e_s, e_(s c^2), e_(s c^4); exponents of -1 are 3 mod 6
        degrees = (s_c(0), s_c(2), s_c(4))
        s_act = _monomial(k, [(3, 0), (3 * (j + 1), 2), (3 * (j + 1), 1)])
        c_act = _monomial(k, [(0, 2), (3 * j, 0), (0, 1)])
    else:
        # basis e_(s c), e_(s c^5), e_(s c^3)
        degrees = (s_c(1), s_c(5), s_c(3))
        s_act = _monomial(k, [(3, 1), (3, 0), (3 * (j + 1), 2)])
        c_act = _monomial(k, [(0, 1), (0, 2), (3 * j, 0)])
    sp_act = compose(3, k, [s_act, c_act])  # s' = s c
    return GradedModule(g=g, k=k, degrees=degrees,
                        gen_actions=(s_act, sp_act))


def v31_module(g: GroupTable) -> GradedModule:
    """Two-dimensional module in central degree: rotation acts by zeta^(+-1)."""
    _require_i26(g)
    k = 6
    c3 = g.element((0, 1) * 3)                   # c^3, c = s s'
    s_act = _monomial(k, [(0, 1), (0, 0)])       # swap the weight vectors
    c_act = _monomial(k, [(1, 0), (5, 1)])
    sp_act = compose(2, k, [s_act, c_act])
    return GradedModule(g=g, k=k, degrees=(c3, c3),
                        gen_actions=(s_act, sp_act))

