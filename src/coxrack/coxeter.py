"""Finite Coxeter groups from their Coxeter matrices, with exact roots.

Numbers are integer vectors over Z[zeta_N], N = CoxeterMatrix.global_level
(see cyclo).  The form enters doubled, B_ij = 2(alpha_i, alpha_j) =
-(zeta^(N/2m_ij) + zeta^(-N/2m_ij)), which is integral, and so is every
root coordinate: s_i beta = beta - (B beta)_i alpha_i.  require_finite
refuses an infinite group from B alone, before any enumeration.

A group is then built in two passes.  First the positive roots are
enumerated (RootSystem, which stops there) by closing the simple basis
under the simple reflections, each (root, generator) pair reflected
once.  |W| follows from these roots alone, each parabolic W_J of the
orbit chain read off its J-supported roots with no finiteness proof of
its own (RootSystem._orbit_chain_order), so a group above the element
cap is refused before it is enumerated.  Then
the elements are enumerated by their action on the positive roots, one
length level at a time, each keyed on its images of the simple roots
(GroupTable._build_elements).  A GroupTable is its arrays: root images,
right multiples, inverses, lengths, the BFS tree and the reflections;
word and element convert between an element and its ShortLex word.

Checked at run time: the finiteness of W (require_finite), the exact
positivity of every root, the deepest root in the closed chamber and
|W| by enumeration equal to |W| by the orbit chain.  Each compares the
exact arithmetic with the theory, or two independent counts.  The rest
is proved where it is built: unit root norms (_build_roots), a total
rmult, the lengths and the inverses (_build_elements), and the
reflections (_build_reflections); tests/oracles.py checks each.

Everything downstream (cocycles, the central extension, symmetrizers)
consumes the tables built here.  A GroupTable is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .cyclo import euler_phi, galois, mul, reduction_matrix, regular_matrix, sign

DEFAULT_ELEMENT_CAP = 2_000_000
MULT_BLOCK_CELLS = 1 << 22  # index cells gathered per block of mult_table rows


class InvalidMatrixError(ValueError):
    """The given integer matrix is not a Coxeter matrix."""


class NotFiniteError(RuntimeError):
    """The group is infinite, or finite with more elements than the cap."""


# ---------------------------------------------------------------------------
# Coxeter matrices, presets, input files
# ---------------------------------------------------------------------------


class CoxeterMatrix:
    """Symmetric matrix of finite bond orders m_ij (m_ii = 1, m_ij >= 2)."""

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows
        n = len(rows)
        if n == 0:
            raise InvalidMatrixError("empty matrix")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InvalidMatrixError("matrix is not square")
            for j, m in enumerate(row):
                if not isinstance(m, int):
                    raise InvalidMatrixError("entries must be integers")
                if m != rows[j][i]:
                    raise InvalidMatrixError("matrix is not symmetric")
                if i == j and m != 1:
                    raise InvalidMatrixError("diagonal entries must be 1")
                if i != j and m < 2:
                    raise InvalidMatrixError("off-diagonal entries must be >= 2")

    @classmethod
    def from_rows(cls, rows) -> "CoxeterMatrix":
        return cls(tuple(tuple(int(m) for m in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    @property
    def global_level(self) -> int:
        """Cyclotomic level 2*lcm(m_ij) hosting every cos(pi/m_ij)."""
        l = 1
        for row in self.rows:
            for m in row:
                l = math.lcm(l, m)
        return 2 * l

    def all_odd(self) -> bool:
        """Whether every off-diagonal bond order is odd."""
        n = self.rank
        return all(self.rows[i][j] % 2 == 1
                   for i in range(n) for j in range(i + 1, n))

    def odd_components(self) -> list[list[int]]:
        """Components of the Coxeter graph after dropping even-labeled
        edges, each sorted, ordered by their least node."""
        comps: list[list[int]] = []
        for start in range(self.rank):
            if any(start in c for c in comps):
                continue
            comp = [start]
            for a in comp:      # grows while it is read: breadth first
                comp += [b for b, m in enumerate(self.rows[a])
                         if m % 2 and b not in comp]
            comps.append(sorted(comp))
        return comps

    def gram(self) -> np.ndarray:
        """The doubled form B_ij = 2(alpha_i, alpha_j) = -2 cos(pi / m_ij)
        as an (l, l, phi(N)) array over Z[zeta_N], N = global_level:
        2 cos(pi / m) = zeta^(N/2m) + zeta^(-N/2m)."""
        n = self.global_level
        e = n // (2 * np.array(self.rows))
        red = reduction_matrix(n)
        return -(red[e] + red[-e % n])


def require_finite(matrix: CoxeterMatrix):
    """Refuse the Coxeter matrix of an infinite W, from its form alone.

    W is finite iff the form (alpha_i, alpha_j) = -cos(pi / m_ij) is
    positive definite (Humphreys, Reflection Groups and Coxeter Groups,
    6.4), iff the leading principal minors of B = 2(alpha_i, alpha_j)
    are positive (Sylvester).  Bareiss elimination on B has them as its
    pivots: after step k, entry (i, j) past the pivot is the minor on
    rows 0..k, i and columns 0..k, j, and the update
    a_ij <- (a_kk a_ij - a_ik a_kj) / b divides exactly by the previous
    pivot b (Sylvester's identity), so every entry stays in Z[zeta_N].
    The quotient is a b' / N(b): b' is the product of b's Galois
    conjugates other than b itself, and the norm N(b) = b b' is a
    rational integer, nonzero because b is a positive minor.
    """
    l, n = matrix.rank, matrix.global_level
    a = matrix.gram().astype(object)  # Python ints: norms outgrow int64
    units = [j for j in range(2, n) if math.gcd(j, n) == 1]
    one = np.zeros(euler_phi(n), dtype=object)
    one[0] = 1
    b = None
    for k in range(l):
        if sign(a[k, k], n) <= 0:
            raise NotFiniteError(
                f"the Coxeter form is not positive definite (pivot {k} "
                "is not positive), so the group is infinite")
        if k == l - 1:
            break
        rest = slice(k + 1, l)
        num = (mul(a[k, k], a[rest, rest], n)
               - mul(a[rest, k, None], a[k, None, rest], n))
        if b is not None:
            conj = one
            for j in units:
                conj = mul(conj, galois(b, n, j), n)
            norm = mul(b, conj, n)
            num = mul(num, conj, n)
            if norm[1:].any() or (num % norm[0]).any():
                raise AssertionError("a Bareiss quotient left Z[zeta_N]")
            num //= norm[0]
        a[rest, rest] = num
        b = a[k, k]


_PRESET_RE = re.compile(r"^([ABDEFHI])\s*(\d+)\s*(?:\(\s*(\d+)\s*\))?$", re.I)


def preset_matrix(name: str) -> CoxeterMatrix:
    """Coxeter matrix for a named type: A5, B3, D4, E6, F4, H3, I2(7), ..."""
    m = _PRESET_RE.match(name.strip())
    if not m:
        raise InvalidMatrixError(f"unknown preset {name!r}")
    family, n, arg = m.group(1).upper(), int(m.group(2)), m.group(3)
    if family == "I":
        if n != 2 or arg is None:
            raise InvalidMatrixError(f"dihedral preset must look like I2(m): {name!r}")
        order = int(arg)
        if order < 2:
            raise InvalidMatrixError("I2(m) needs m >= 2")
        return CoxeterMatrix.from_rows([[1, order], [order, 1]])
    if arg is not None:
        raise InvalidMatrixError(f"unexpected argument in preset {name!r}")

    def chain(k, bonds):
        rows = [[1 if a == b else 2 for b in range(k)] for a in range(k)]
        for (a, b, mab) in bonds:
            rows[a][b] = rows[b][a] = mab
        return CoxeterMatrix.from_rows(rows)

    if family == "A" and n >= 1:
        return chain(n, [(i, i + 1, 3) for i in range(n - 1)])
    if family == "B" and n >= 2:
        return chain(n, [(i, i + 1, 3) for i in range(n - 2)] + [(n - 2, n - 1, 4)])
    if family == "D" and n >= 4:
        return chain(n, [(i, i + 1, 3) for i in range(n - 2)] + [(n - 3, n - 1, 3)])
    if family == "E" and n in (6, 7, 8):
        # chain 0-1-...-(n-2) with node n-1 attached at position 2
        return chain(n, [(i, i + 1, 3) for i in range(n - 2)] + [(2, n - 1, 3)])
    if family == "F" and n == 4:
        return chain(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)])
    if family == "H" and n in (3, 4):
        return chain(n, [(0, 1, 5)] + [(i, i + 1, 3) for i in range(1, n - 1)])
    raise InvalidMatrixError(f"unknown preset {name!r}")


def parse_matrix_file(path) -> CoxeterMatrix:
    """Read 'first line l, then l lines of l integers'."""
    text = Path(path).read_text()
    tokens = text.split()
    if not tokens:
        raise InvalidMatrixError(f"empty matrix file {path}")
    bad = [t for t in tokens if not re.fullmatch(r"[+-]?\d+", t)]
    if bad:
        raise InvalidMatrixError(f"matrix file {path}: {bad[0]!r} is not an integer")
    l, *vals = map(int, tokens)
    if len(vals) != l * l:
        raise InvalidMatrixError(
            f"expected {l * l} entries after the rank line, found {len(vals)}")
    rows = [vals[i * l:(i + 1) * l] for i in range(l)]
    return CoxeterMatrix.from_rows(rows)


def resolve_matrix(spec: str) -> CoxeterMatrix:
    """A preset name if it parses as one, otherwise a matrix file path."""
    try:
        return preset_matrix(spec)
    except InvalidMatrixError:
        if Path(spec).exists():
            return parse_matrix_file(spec)
        raise


# ---------------------------------------------------------------------------
# Roots and the group table
# ---------------------------------------------------------------------------


class RootSystem:
    """The positive roots of a finite Coxeter group, without its elements.

    Positive root r is pos_roots[r], an (l, phi) array of coordinates
    over Z[zeta_N] in the simple roots; roots 0..l-1 are the simple
    roots.  Signed roots are indexed 0..2R-1: index r < R is the r-th
    positive root, index r + R its negative, and gen_root_perm[i] is
    s_i acting on them.  GroupTable stores an element's images of the
    positive roots only; w(-beta) = -w(beta) gives the rest.  order is
    |W| and root_classes the positive roots of each reflection class,
    both found without enumerating W.
    """

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.level = matrix.global_level
        self.rank = matrix.rank
        require_finite(matrix)
        self._gram = matrix.gram()
        # B acting on (l, phi) coordinate arrays, as one integer matrix
        self._pair = regular_matrix(self._gram, self.level)
        self._build_roots()
        # the positive roots descending from the simple roots of each odd
        # component, whose reflections form a conjugacy class (tests
        # compare them with the root orbits)
        self.root_classes = tuple(
            tuple(r for r, b in enumerate(self._root_base_simple) if b in comp)
            for comp in self.matrix.odd_components())
        self.order = self._orbit_chain_order()

    def _build_roots(self):
        """Close the simple roots under the simple reflections,
        s_i beta = beta - (B beta)_i alpha_i, breadth first; then check
        every root's exact positivity, signing each distinct coordinate
        once.

        Every root has unit norm, (beta, beta) = 1, exactly: s_i keeps
        the doubled form, as with u' = s_i u and v' = s_i v
        B(u', v') = B(u, v) + (B u)_i (B v)_i (B_ii - 2) and B_ii = 2, in
        integer arithmetic over Z[zeta_N]; and every root is s_i of an
        earlier one, back to a simple root, where B(alpha_i, alpha_i) = 2.
        """
        l, lev = self.rank, self.level
        simples = np.zeros((l, l, euler_phi(lev)), dtype=np.int64)
        simples[np.arange(l), np.arange(l), 0] = 1
        pos = list(simples)
        index = {v.tobytes(): i for i, v in enumerate(pos)}
        parent: list[tuple[int, int] | None] = [None] * l
        base_simple = list(range(l))
        images: list[list[int]] = []  # [r][i]: s_i(beta_r), ~index if negative
        head = 0
        while head < len(pos):
            beta = pos[head]
            scal = self.pairings(beta)
            row = []
            for i in range(l):
                if head == i:  # s_i(alpha_i) = -alpha_i, the only negative image
                    row.append(~i)
                    continue
                image = beta.copy()
                image[i] -= scal[i]
                k = image.tobytes()
                if k not in index:
                    index[k] = len(pos)
                    pos.append(image)
                    parent.append((i, head))
                    base_simple.append(base_simple[head])
                row.append(index[k])
            images.append(row)
            head += 1

        roots = np.array(pos)
        R = len(pos)
        coords, at = np.unique(roots.reshape(R * l, -1), axis=0,
                               return_inverse=True)
        signs = np.array([sign(c, lev) for c in coords])[at].reshape(R, l)
        if (signs < 0).any() or not (signs > 0).any(axis=1).all():
            raise AssertionError("enumerated root is not positive")

        self.pos_roots, self.nroots = roots, R
        self._root_parent, self._root_base_simple = parent, base_simple

        # generator action on signed roots: r -> s_i(r), r + R -> -s_i(r)
        img = np.array(images, dtype=np.int64).T
        img = np.where(img < 0, ~img + R, img)
        perm = np.concatenate([img, (img + R) % (2 * R)], axis=1)
        self.gen_root_perm = tuple(map(tuple, perm.tolist()))

    def _orbit_chain_order(self) -> int:
        """|W_J| = |W_J delta| |W_J'| for delta in W_J's closed chamber
        {v : (alpha_j, v) >= 0, j in J} and J' = {j in J : (alpha_j, delta)
        = 0}, from J = all down to J empty, on the roots already closed.

        Each W_J-orbit meets that chamber in one point, whose stabilizer
        is W_J' (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
        W_J permutes its positive roots, the J-supported ones (5.5), so
        gen_root_perm[j], j in J, counts W_J delta.  s_j deepens a positive
        beta != alpha_j with (alpha_j, beta) < 0 (Bjorner and Brenti,
        Combinatorics of Coxeter Groups, 4.6.2), s_k, k not in J, never
        lowers a J-supported beta ((alpha_k, beta) <= 0), and the closure
        lists roots by depth: so delta, the last J-supported root, is in
        the chamber (checked exactly).  J' is proper: (delta, delta) > 0.
        """
        J, order = list(range(self.rank)), 1
        while J:
            off = [k for k in range(self.rank) if k not in J]
            delta = np.flatnonzero(~self.pos_roots[:, off].any(axis=(1, 2)))[-1]
            pair = self.pairings(self.pos_roots[delta])
            if any(sign(pair[j], self.level) < 0 for j in J):
                raise AssertionError("the last root is not in the closed chamber")
            orbit = [int(delta)]
            for r in orbit:
                orbit += {self.gen_root_perm[j][r] for j in J}.difference(orbit)
            order *= len(orbit)
            J = [j for j in J if not pair[j].any()]
        return order

    def pairings(self, v: np.ndarray) -> np.ndarray:
        """2(alpha_i, v) = (B v)_i for every i, as v's (..., l, phi) shape."""
        flat = v.reshape(v.shape[:-2] + (-1,))
        return (flat @ self._pair.T).reshape(v.shape)


class GroupTable(RootSystem):
    """A fully enumerated finite Coxeter group.

    Elements are indexed in ShortLex order of their canonical reduced
    words (identity = 0, s_i = 1 + i); roots as in RootSystem.  Each
    table with one row per element is stored at the width its values
    need:
      - perms[w, r] is the signed index of w(beta_r) for the R positive
        roots only, the negatives' images implied, in the narrowest
        unsigned dtype holding 2R - 1: uint8 for every preset up to E8,
        uint16 for I2(m) with m > 128;
      - conj_refl_table() follows the same rule on |T| - 1;
      - rmult[w, i] = w s_i, inv_arr, length_arr and the BFS parents
        are int32, the BFS last letters uint8.
    Reflection k is element refl_elems[k], in ascending order, with
    positive root refl_roots[k]; refl_of_root inverts refl_roots.  All
    three are intp, one entry per positive root.
    """

    def __init__(self, source: CoxeterMatrix | RootSystem):
        if isinstance(source, RootSystem):
            vars(self).update(vars(source))   # its roots, not built again
        else:
            super().__init__(source)
        if self.order > DEFAULT_ELEMENT_CAP:
            raise NotFiniteError(f"|W| = {self.order} > {DEFAULT_ELEMENT_CAP}: "
                                 "the group is finite but larger than the cap")
        self._build_elements()
        self._build_reflections()
        # reflection i < l is s_i, so the classes, those of root_classes,
        # come ordered by their least index, as the odd components are
        self.classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(self.refl_of_root[list(c)].tolist()))
            for c in self.root_classes)
        self._mult = None
        self._conj_refl = None

    # -- construction -----------------------------------------------------

    def _build_elements(self):
        """Enumerate W breadth-first, one length level at a time.

        Row w of perms holds w's images of the positive roots only (see
        the class docstring), so w s_i maps beta_r to the row's entry at
        s_i(beta_r), which is positive except at r = i, where
        s_i(alpha_i) = -alpha_i and the entry is negated.  An element
        acts linearly, so its images of the l simple roots fix it:
        perms[:, :l] is its key.  Only up-moves create elements:
        w(alpha_i) > 0 iff l(w s_i) = l(w) + 1 (Humphreys, Reflection
        Groups and Coxeter Groups, 5.4).  A level's candidates are
        numbered by first appearance, parent-major and generator-minor,
        which is ShortLex order of the reduced words.

        rmult is total: every candidate (w, i), not only the first of
        its element, writes w s_i into row w and its reverse
        (w s_i) s_i = w into row w s_i.  A pair (v, i) that is no up-move
        has l(v s_i) = l(v) - 1, so (v s_i, i) is an up-move of the level
        before, a candidate, and wrote row v.  length_arr is the BFS
        level, and the number of positive roots w makes negative is
        l(w) (Humphreys 5.6).  Inverses read each word backwards through
        rmult: w = s_a ... s_b gives w^-1 = s_b ... s_a, as each s_i is
        an involution.
        """
        l, R = self.rank, self.nroots
        dtype = np.min_scalar_type(2 * R - 1)
        # s_i(beta_r) up to sign, and the sign flip v -> -v on signed roots
        step = np.array(self.gen_root_perm, dtype=np.intp)[:, :R] % R
        neg = np.roll(np.arange(2 * R), R).astype(dtype)

        def times(rows, p, i, cols):
            """(w s_i)(beta_r) = w(s_i beta_r) for w = rows[p], r < cols."""
            out = rows[p[:, None], step[i, :cols]]
            at = np.arange(len(p))
            out[at, i] = neg[out[at, i]]
            return out

        level = np.arange(R, dtype=dtype)[None, :]
        levels, blocks = [level], [np.full((1, l), -1, dtype=np.int32)]
        parents = [np.zeros(1, dtype=np.int32)]  # the identity's parent
        lasts = [np.zeros(1, dtype=np.uint8)]    # and last letter
        lo = 0
        while True:
            hi = lo + len(level)
            p, i = np.nonzero(level[:, :l] < R)
            if len(p) == 0:
                break
            keys = times(level, p, i, l)  # w(s_i(alpha_j))
            # rows as opaque bytes: equality is all that matters here.  Up
            # to 8 bytes (every preset through E8) a row is one zero-padded
            # uint64, which sorts about 2.5 times faster than a void key.
            width = keys.itemsize * l
            if width <= 8:
                flat = np.zeros(len(keys), dtype=np.uint64)
                flat.view(np.uint8).reshape(-1, 8)[:, :width] = \
                    keys.view(np.uint8)
            else:
                flat = keys.view(f"V{width}").ravel()
            _, first, inverse = np.unique(flat, return_index=True,
                                          return_inverse=True)
            seen = first[inverse.ravel()]  # first candidate with the same key
            first = np.sort(first)
            # the new element of each candidate, numbered from 0 at this level
            dst = np.searchsorted(first, seen)
            block = np.full((len(first), l), -1, dtype=np.int32)
            blocks[-1][p, i] = hi + dst
            block[dst, i] = lo + p
            blocks.append(block)
            p, i = p[first], i[first]
            level = times(level, p, i, R)
            levels.append(level)
            parents.append((lo + p).astype(np.int32))
            lasts.append(i.astype(np.uint8))
            lo = hi

        if hi != self.order:
            raise AssertionError("enumerated |W| differs from the orbit chain's")
        sizes = [len(lev) for lev in levels]
        # each per-level list is released once its table is whole
        self.perms = np.concatenate(levels)
        del levels
        self.rmult = rmult = np.concatenate(blocks)
        del blocks
        self.length_arr = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        self.parent = parent = np.concatenate(parents)
        self.last = last = np.concatenate(lasts)

        inv = np.zeros(hi, dtype=np.int32)
        cur = np.arange(hi, dtype=np.int32)
        for b in np.cumsum(sizes[:-1]):
            # ids from b on are longer than the steps taken: one more letter
            inv[b:] = rmult[inv[b:], last[cur[b:]]]
            cur[b:] = parent[cur[b:]]
        self.inv_arr = inv

    def _build_reflections(self):
        """The reflection s_beta of each positive root, along the root
        closure: s_alpha_i = s_i, and beta = s_i beta' gives s_beta =
        s_i s_beta' s_i (Humphreys 5.7, w s_beta w^-1 = s_w(beta)), the
        left factor by s_i y = (y^-1 s_i)^-1.

        So each refl_elems[k] is a reflection, an involution negating its
        root refl_roots[k], and distinct roots give distinct reflections
        (Humphreys 5.7), so sorting by element id is a bijection.  Every
        reflection has odd length: l(s_i x s_i) has the parity of l(x),
        as each letter changes the length by one, and l(s_i) = 1.
        """
        rmult, inv = self.rmult, self.inv_arr
        elem = np.zeros(self.nroots, dtype=np.intp)
        for r, par in enumerate(self._root_parent):
            if par is None:
                elem[r] = 1 + r          # generator ids are 1..l
            else:
                i, pr = par
                elem[r] = inv[rmult[inv[rmult[elem[pr], i]], i]]
        self.refl_roots = np.argsort(elem)
        self.refl_elems = elem[self.refl_roots]
        self.refl_of_root = np.argsort(self.refl_roots)

    # -- words ---------------------------------------------------------------

    def word(self, w: int) -> tuple[int, ...]:
        """w's ShortLex word, read up the BFS tree."""
        word = ()
        while w:
            word, w = (int(self.last[w]),) + word, int(self.parent[w])
        return word

    def element(self, word) -> int:
        """The element of a word, its letters applied left to right
        through rmult from the identity: element(word(w)) = w.  The word
        need not be reduced."""
        w = 0
        for i in word:
            w = int(self.rmult[w, i])
        return w

    # -- tables built on first use -------------------------------------------

    def mult_table(self) -> np.ndarray:
        """Dense |W| x |W| multiplication table (built on first use).

        Built row by row along the BFS tree: an element a = c s (c its
        BFS parent) has a b = c (s b), so row a is row c read at the left
        translates s b = (b^-1 s)^-1, one length level at a time.
        """
        if self._mult is None:
            n = self.order
            parent, last = self.parent, self.last
            left = self.inv_arr[self.rmult[self.inv_arr]].T  # [s, b]: s b
            M = np.empty((n, n), dtype=np.int32)
            M[0] = np.arange(n, dtype=np.int32)
            bounds = np.searchsorted(self.length_arr,
                                     np.arange(self.length_arr[-1] + 2))
            step = max(1, MULT_BLOCK_CELLS // n)
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                for a in range(lo, hi, step):
                    rows = np.arange(a, min(a + step, hi))
                    M[rows] = M[parent[rows, None], left[last[rows]]]
            self._mult = M
        return self._mult

    def conj_refl_table(self) -> np.ndarray:
        """(|W|, |T|) table of w > y as reflection indices, in the
        narrowest unsigned dtype holding |T| - 1.

        w s_beta w^-1 = s_(w(beta)), and s_(-gamma) = s_gamma, so column y
        is the reflection of the signed root perms[w, refl_roots[y]].
        """
        if self._conj_refl is None:
            of_signed = np.tile(self.refl_of_root, 2).astype(
                np.min_scalar_type(self.nroots - 1))
            self._conj_refl = of_signed[self.perms[:, self.refl_roots]]
        return self._conj_refl


def build_group(source: CoxeterMatrix | RootSystem) -> GroupTable:
    """Enumerate roots and elements; given a RootSystem, reuse its roots.
    Raises NotFiniteError before any enumeration for an infinite group,
    and before the elements for |W| above DEFAULT_ELEMENT_CAP, |W| coming
    from the roots' orbit chain."""
    return GroupTable(source)
