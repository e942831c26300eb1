"""Finite Coxeter groups from their Coxeter matrices, with exact roots.

Numbers are integer vectors over Z[zeta_N], N = CoxeterMatrix.global_level
(see cyclo).  The form enters doubled, B_ij = 2(alpha_i, alpha_j) =
-(zeta^(N/2m_ij) + zeta^(-N/2m_ij)), which is integral, and so is every
root coordinate: s_i beta = beta - (B beta)_i alpha_i.  require_finite
refuses an infinite group from B alone, before any enumeration.

A group is then built in two passes.  First the positive roots are
enumerated (RootSystem, which stops there) by closing the simple basis
under the simple reflections; each (root, generator) pair is reflected
once, and every root is checked to have unit norm and exactly positive
coordinates.  |W| follows from the roots (RootSystem._orbit_chain_order),
so a group above the element cap is refused before it is enumerated.
Then the elements are enumerated by their action on the positive roots,
one length level at a time with whole-array operations, each keyed on
its images of the simple roots (GroupTable._build_elements).  These root
images make the length function, the reflection/positive-root bijection
and all conjugation questions cheap table lookups.

Everything downstream (cocycles, the central extension, symmetrizers)
consumes the tables built here.  A GroupTable is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

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

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
        """Components of the Coxeter graph after dropping even-labeled edges."""
        n = self.rank
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(n):
            for j in range(i + 1, n):
                m = self.rows[i][j]
                if m >= 3 and m % 2 == 1:
                    parent[find(i)] = find(j)
        comps: dict[int, list[int]] = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        return sorted(comps.values())

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
    l = int(tokens[0])
    vals = [int(t) for t in tokens[1:]]
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
# Reflection views
# ---------------------------------------------------------------------------


class Reflection(NamedTuple):
    """A reflection together with its unique positive root."""

    index: int      # position in the reflection enumeration
    elem: int       # element id
    root: int       # positive-root index


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
        self._build_root_classes()
        self.order = self._orbit_chain_order()

    def _build_roots(self):
        """Close the simple roots under the simple reflections,
        s_i beta = beta - (B beta)_i alpha_i, breadth first; then check
        every root's unit norm and exact positivity."""
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
        # (beta, beta) = 1: sum_i beta_i 2(alpha_i, beta) = 2
        norms = mul(roots, self.pairings(roots), lev).sum(axis=1)
        if (norms[:, 0] != 2).any() or norms[:, 1:].any():
            raise AssertionError("root does not have unit norm")
        # exact positivity; the sign of each distinct coordinate once
        coords = roots.reshape(R * l, -1)
        sign_of = {}
        for c in coords:
            sign_of.setdefault(c.tobytes(), sign(c, lev))
        signs = np.array([sign_of[c.tobytes()] for c in coords]).reshape(R, l)
        if (signs < 0).any() or not (signs > 0).any(axis=1).all():
            raise AssertionError("enumerated root is not positive")

        self.pos_roots = roots
        self.nroots = R
        self._root_parent = parent
        self._root_base_simple = base_simple

        # generator action on signed roots: r -> s_i(r), r + R -> -s_i(r)
        img = np.array(images, dtype=np.int64).T
        img = np.where(img < 0, ~img + R, img)
        perm = np.concatenate([img, (img + R) % (2 * R)], axis=1)
        self.gen_root_perm = tuple(map(tuple, perm.tolist()))

    def _build_root_classes(self):
        """root_classes[c]: the positive roots descending from the simple
        roots of the c-th odd component, whose reflections form a
        conjugacy class (tests compare them with the root orbits)."""
        self.root_classes = tuple(
            tuple(r for r, b in enumerate(self._root_base_simple) if b in comp)
            for comp in self.matrix.odd_components())

    def _orbit_chain_order(self) -> int:
        """|W| = |W delta| |W_J| for delta in the closed chamber
        {v : (alpha_j, v) >= 0 for every j} and J = {j : (alpha_j, delta)
        = 0}, |W_J| found the same way on J's submatrix (1 for J empty).

        Each W-orbit meets the closed chamber in exactly one point, whose
        stabilizer is the standard parabolic subgroup W_J (Humphreys,
        Reflection Groups and Coxeter Groups, 1.12).  W permutes the
        roots, so gen_root_perm on the 2R signed roots counts W delta.
        delta, the root the closure found last, has the greatest depth,
        and s_j deepens a positive root beta != alpha_j with (alpha_j,
        beta) < 0 (Bjorner and Brenti, Combinatorics of Coxeter Groups,
        4.6.2): so delta is in the closed chamber (checked exactly), and
        as (delta, delta) > 0 with delta's coordinates >= 0, J is a
        proper subset.  A reducible matrix needs nothing special.
        """
        R = self.nroots
        pair = self.pairings(self.pos_roots[R - 1])
        if any(sign(p, self.level) < 0 for p in pair):
            raise AssertionError("the last root is not in the closed chamber")
        orbit = [R - 1]
        for r in orbit:
            orbit += {p[r] for p in self.gen_root_perm}.difference(orbit)
        J = [j for j in range(self.rank) if not pair[j].any()]
        rows = self.matrix.rows
        sub = tuple(tuple(rows[a][b] for b in J) for a in J)
        return len(orbit) * (RootSystem(CoxeterMatrix(sub)).order if J else 1)

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
      - rmult, inv_arr, length_arr and the BFS parents are int32, the
        BFS last letters uint8.
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
        self._build_classes()
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
        perms[:, :l] is its key.  Only up-moves
        create elements: w(alpha_i) > 0 iff l(w s_i) = l(w) + 1.  A
        level's candidates are numbered by first appearance, parent-major
        and generator-minor, which is ShortLex order of the reduced
        words; each down-move is an up edge reversed, (w s_i) s_i = w.
        Inverses walk the reversed words through rmult and are checked on
        the simple roots only, w^-1(w(alpha_j)) = alpha_j: an element
        fixing every simple root is the identity, so this n x l check is
        complete.  Both checks run one length level at a time.
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
        n = hi
        sizes = [len(lev) for lev in levels]
        bounds = np.cumsum([0] + sizes)
        # each per-level list is released once its table is whole
        self.perms = np.concatenate(levels)
        del levels
        self.rmult = rmult = np.concatenate(blocks)
        del blocks
        if (rmult < 0).any():
            raise AssertionError("a right multiple is not an up- or down-move")
        self.length_arr = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        parent, last = np.concatenate(parents), np.concatenate(lasts)
        self._parent, self._last = parent, last

        inv = np.zeros(n, dtype=np.int32)
        cur = np.arange(n, dtype=np.int32)
        for b in bounds[1:-1]:
            # ids from b on are longer than the steps taken: one more letter
            inv[b:] = rmult[inv[b:], last[cur[b:]]]
            cur[b:] = parent[cur[b:]]
        self.inv_arr = inv

        simple = np.arange(l)
        for d, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = self.perms[a:b]
            # length via the root system must agree with the BFS word length
            if ((rows >= R).sum(axis=1) != d).any():
                raise AssertionError(
                    "root-counting length disagrees with BFS length")
            img = rows[:, :l]
            back = self.perms[inv[a:b, None], img % R]
            back = np.where(img >= R, neg[back], back)
            if (back != simple).any():
                raise AssertionError("inverse table fails on the simple roots")

    def _build_reflections(self):
        R = self.nroots
        rmult, inv = self.rmult, self.inv_arr
        refl_elem_of_root = [0] * R
        for r in range(R):
            par = self._root_parent[r]
            if par is None:
                refl_elem_of_root[r] = 1 + r  # generator ids are 1..l
            else:
                # s_beta = s_i s_beta' s_i, left factor by s_i y = (y^-1 s_i)^-1
                i, pr = par
                y = rmult[refl_elem_of_root[pr], i]
                refl_elem_of_root[r] = int(inv[rmult[inv[y], i]])
        if len(set(refl_elem_of_root)) != R:
            raise AssertionError("reflection/positive-root map is not injective")

        order = sorted(range(R), key=lambda r: refl_elem_of_root[r])
        self.reflections: tuple[Reflection, ...] = tuple(
            Reflection(index=k, elem=refl_elem_of_root[r], root=r)
            for k, r in enumerate(order))
        self.refl_of_root = [0] * R
        for refl in self.reflections:
            self.refl_of_root[refl.root] = refl.index

        for refl in self.reflections:
            e = refl.elem
            if self.length_arr[e] % 2 != 1:
                raise AssertionError("reflection of even length")
            if self.mul(e, e) != 0:
                raise AssertionError("reflection is not an involution")
            if self.perms[e][refl.root] != refl.root + R:
                raise AssertionError("reflection does not negate its root")

    def _build_classes(self):
        """Conjugacy classes of reflections (indices), those of
        root_classes.  Reflection i < l is s_i, so the classes come
        ordered by their least index, as the odd components are."""
        self.classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(self.refl_of_root[r] for r in c))
            for c in self.root_classes)

    # -- elementary operations ---------------------------------------------

    def simple_reflection(self, i: int) -> int:
        return int(self.rmult[0][i])

    def word(self, w: int) -> tuple[int, ...]:
        """w's ShortLex word, read up the BFS tree."""
        word = ()
        while w:
            word, w = (int(self._last[w]),) + word, int(self._parent[w])
        return word

    def mul(self, a: int, b: int) -> int:
        x = a
        for i in self.word(b):
            x = int(self.rmult[x][i])
        return x

    def inv(self, a: int) -> int:
        return int(self.inv_arr[a])

    def conj(self, w: int, x: int) -> int:
        """w > x = w x w^-1."""
        return self.mul(self.mul(w, x), self.inv(w))

    def mult_table(self) -> np.ndarray:
        """Dense |W| x |W| multiplication table (built on first use).

        Built row by row along the BFS tree: an element a = c s (c its
        BFS parent) has a b = c (s b), so row a is row c read at the left
        translates s b = (b^-1 s)^-1, one length level at a time.
        """
        if self._mult is None:
            n = self.order
            parent, last = self._parent, self._last
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
        is the reflection of the signed root perms[w, root(y)].
        """
        if self._conj_refl is None:
            roots = [t.root for t in self.reflections]
            of_signed = np.array(2 * self.refl_of_root, dtype=np.min_scalar_type(
                len(self.reflections) - 1))
            self._conj_refl = of_signed[self.perms[:, roots]]
        return self._conj_refl


def build_group(source: CoxeterMatrix | RootSystem) -> GroupTable:
    """Enumerate roots and elements; given a RootSystem, reuse its roots.
    Raises NotFiniteError before any enumeration for an infinite group,
    and before the elements for |W| above DEFAULT_ELEMENT_CAP, |W| coming
    from the roots' orbit chain."""
    return GroupTable(source)
