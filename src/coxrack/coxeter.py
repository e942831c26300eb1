"""Finite Coxeter groups from their Coxeter matrices, with exact roots.

A group is built in two passes.  First the positive roots are enumerated
by closing the simple basis under the simple reflections, with exact
cyclotomic coordinates so that positivity of a root is an exact sign
decision; each (root, generator) pair is reflected once.  Then the
elements are enumerated as permutations of the signed roots, one length
level at a time with whole-array operations, each keyed on its images
of the simple roots (GroupTable._build_elements).  The permutations make
the length function, the reflection/positive-root bijection and all
conjugation questions cheap table lookups.

Everything downstream (cocycles, the central extension, symmetrizers)
consumes the tables built here.  A GroupTable is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .cyclo import CycloNumber, cos_of_pi_over

DEFAULT_ELEMENT_CAP = 2_000_000
MULT_BLOCK_CELLS = 1 << 22  # index cells gathered per block of mult_table rows


class InvalidMatrixError(ValueError):
    """The given integer matrix is not a Coxeter matrix."""


class NotFiniteError(RuntimeError):
    """The group is infinite, or finite with more elements than the cap."""


class PreconditionFailed(ValueError):
    """An operation's stated hypotheses do not hold for the arguments."""


# ---------------------------------------------------------------------------
# Coxeter matrices, presets, input files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of finite bond orders m_ij (m_ii = 1, m_ij >= 2)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise InvalidMatrixError("empty matrix")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InvalidMatrixError("matrix is not square")
            for j, m in enumerate(row):
                if not isinstance(m, int):
                    raise InvalidMatrixError("entries must be integers")
                if m != self.rows[j][i]:
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

    def gram(self, level: int | None = None) -> tuple[tuple[CycloNumber, ...], ...]:
        """Bilinear form (alpha_i, alpha_j) = -cos(pi / m_ij), exactly."""
        lev = level or self.global_level
        return tuple(
            tuple((-cos_of_pi_over(m)).embed(lev) for m in row)
            for row in self.rows)


def require_finite(gram):
    """Refuse the form (alpha_i, alpha_j) = -cos(pi / m_ij) of an infinite W.

    W is finite iff the form is positive definite (Humphreys, Reflection
    Groups and Coxeter Groups, 6.4), iff its leading principal minors
    are positive (Sylvester).  The pivots of elimination without pivoting
    are the ratios of consecutive minors, so each must be positive.
    """
    a = [list(row) for row in gram]
    for k in range(len(a)):
        if a[k][k].sign() <= 0:
            raise NotFiniteError(
                f"the Coxeter form is not positive definite (pivot {k} "
                "is not positive), so the group is infinite")
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]


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


@dataclass(frozen=True)
class Reflection:
    """A reflection together with its unique positive root."""

    index: int      # position in the reflection enumeration
    elem: int       # element id
    root: int       # positive-root index


class Trichotomy(Enum):
    UP = "up"
    DOWN = "down"
    COMMUTE = "commute"


@dataclass(frozen=True)
class ConjGraph:
    """Reflection conjugacy graph: edge x --s--> y iff y = s>x, l(x)=l(y)+2."""

    edges: tuple[tuple[tuple[int, int], ...], ...]  # per refl: (gen, target)
    simple_gen: tuple[int, ...]                     # sink label per reflection, -1 if none

    def out_edges(self, refl_index: int) -> tuple[tuple[int, int], ...]:
        return self.edges[refl_index]


# ---------------------------------------------------------------------------
# Chebyshev polynomials of the second kind
# ---------------------------------------------------------------------------


def chebyshev_U(n: int, x: CycloNumber) -> CycloNumber:
    """U_n(x) by the recursion U_0 = 1, U_1 = 2x, U_(n+1) = 2x U_n - U_(n-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u_prev = CycloNumber.one(x.level)
    if n == 0:
        return u_prev
    u = x * 2
    for _ in range(n - 1):
        u_prev, u = u, x * 2 * u - u_prev
    return u


@dataclass(frozen=True)
class ChebyshevReport:
    """Outcome of one root sequence beta_0, beta_1 = s_(1) beta_0, ..."""

    beta: int                   # starting positive-root index
    i: int                      # generator with (alpha_i, beta) = 0
    j: int                      # generator with (alpha_j, beta) > 0
    m: int                      # bond order m_ij
    scalars: tuple[CycloNumber, ...]   # (beta_p, alpha_(p+1)) for p < m
    tag: str                    # "length-drop" | "even-shortcut"
    stall: int | None           # q with beta_q = alpha_(q+1), shortcut only
    start_length: int
    end_length: int | None      # length of s_beta_(m-1), drop case only


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------


class GroupTable:
    """A fully enumerated finite Coxeter group.

    Signed roots are indexed 0..2R-1: index r < R is the r-th positive
    root, index r + R its negative.  Elements are indexed in ShortLex
    order of their canonical reduced words (identity = 0, s_i = 1 + i).
    """

    def __init__(self, matrix: CoxeterMatrix):
        self.matrix = matrix
        self.level = matrix.global_level
        self.rank = matrix.rank
        self._gram = matrix.gram(self.level)
        require_finite(self._gram)
        self._build_roots()
        self._build_elements()
        self._build_reflections()
        self._build_classes()
        self._mult = None
        self._conj_refl = None
        self._graph = None

    # -- construction -----------------------------------------------------

    def _build_roots(self):
        l = self.rank
        lev = self.level
        zero = CycloNumber.zero(lev)
        one = CycloNumber.one(lev)
        simples = [tuple(one if k == i else zero for k in range(l))
                   for i in range(l)]

        def key(vec):
            return tuple(c.coeffs for c in vec)

        pos: list[tuple[CycloNumber, ...]] = list(simples)
        index = {key(v): i for i, v in enumerate(pos)}
        parent: list[tuple[int, int] | None] = [None] * l
        base_simple = list(range(l))
        images: list[list[int]] = []  # [r][i]: s_i(beta_r), ~index if negative
        head = 0
        while head < len(pos):
            beta = pos[head]
            scal = [self.inner_simple(i, beta) for i in range(l)]
            # (beta, beta) = sum_k beta_k (alpha_k, beta)
            norm = sum((c * sc for c, sc in zip(beta, scal) if not c.is_zero()),
                       CycloNumber.zero(lev))
            if norm != 1:
                raise AssertionError("root does not have unit norm")
            row = []
            for i in range(l):
                if head == i:  # s_i(alpha_i) = -alpha_i, the only negative image
                    row.append(~i)
                    continue
                image = beta[:i] + (beta[i] - 2 * scal[i],) + beta[i + 1:]
                k = key(image)
                if k not in index:
                    index[k] = len(pos)
                    pos.append(image)
                    parent.append((i, head))
                    base_simple.append(base_simple[head])
                row.append(index[k])
            images.append(row)
            head += 1

        # exact positivity; the sign of each distinct coordinate value once
        distinct = {c.coeffs: c for beta in pos for c in beta}
        sign = {k: c.sign() for k, c in distinct.items()}
        for beta in pos:
            signs = [sign[c.coeffs] for c in beta]
            if any(s < 0 for s in signs) or all(s == 0 for s in signs):
                raise AssertionError("enumerated root is not positive")

        self.pos_roots = pos
        self.nroots = R = len(pos)
        self._root_index = index
        self._root_parent = parent
        self._root_base_simple = base_simple

        # generator action on signed roots: r -> s_i(r), r + R -> -s_i(r)
        img = np.array(images, dtype=np.int64).T
        img = np.where(img < 0, ~img + R, img)
        perm = np.concatenate([img, (img + R) % (2 * R)], axis=1)
        self.gen_root_perm = tuple(map(tuple, perm.tolist()))

    def _reflect_simple(self, i: int, vec):
        """s_i(v) = v - 2 (v, alpha_i) alpha_i; only coordinate i moves."""
        scal = self.inner_simple(i, vec)
        out = list(vec)
        out[i] = vec[i] - 2 * scal
        return tuple(out)

    def inner_simple(self, i: int, vec) -> CycloNumber:
        """(alpha_i, v) via the Gram matrix."""
        acc = CycloNumber.zero(self.level)
        for k, c in enumerate(vec):
            if not c.is_zero():
                acc = acc + c * self._gram[i][k]
        return acc

    def _build_elements(self):
        """Enumerate W breadth-first, one length level at a time.

        An element acts linearly, so its images of the l simple roots fix
        it: perms[:, :l] is its key.  Only up-moves create elements:
        w(alpha_i) > 0 iff l(w s_i) = l(w) + 1.  A level's candidates are
        numbered by first appearance, parent-major and generator-minor,
        which is ShortLex order of the reduced words; each down-move is an
        up edge reversed, (w s_i) s_i = w.  Inverses walk the reversed
        words through rmult and are checked on the simple roots only,
        w^-1(w(alpha_j)) = alpha_j: an element fixing every simple root is
        the identity, so this n x l check is complete.
        """
        l, R = self.rank, self.nroots
        gen = np.array(self.gen_root_perm, dtype=np.int32)
        level = np.arange(2 * R, dtype=np.int32)[None, :]
        levels = [level]
        ident = np.zeros(1, dtype=np.int64)  # the identity's parent and letter
        parents, lasts = [ident], [ident]
        edges = []  # up-moves (w, i, w s_i)
        lo = 0
        while True:
            hi = lo + len(level)
            p, i = np.nonzero(level[:, :l] < R)
            if len(p) == 0:
                break
            keys = level[p[:, None], gen[i, :l]]  # w(s_i(alpha_j))
            # rows as opaque bytes: equality is all that matters here
            _, first, inverse = np.unique(keys.view(f"V{4 * l}").ravel(),
                                          return_index=True, return_inverse=True)
            if hi + len(first) > DEFAULT_ELEMENT_CAP:
                raise NotFiniteError(
                    f"element enumeration passed {DEFAULT_ELEMENT_CAP} "
                    "elements; the group is finite but larger than the cap")
            seen = first[inverse.ravel()]  # first candidate with the same key
            first = np.sort(first)
            edges.append((lo + p, i, hi + np.searchsorted(first, seen)))
            level = level[p[first, None], gen[i[first]]]
            levels.append(level)
            parents.append(lo + p[first])
            lasts.append(i[first])
            lo = hi

        n = self.order = hi
        self.perms = np.concatenate(levels)
        self.length_arr = np.repeat(np.arange(len(levels), dtype=np.int32),
                                    [len(lev) for lev in levels])
        parent, last = np.concatenate(parents), np.concatenate(lasts)
        self._parent, self._last = parent, last

        src, gens, dst = map(np.concatenate, zip(*edges))
        rmult = self.rmult = np.full((n, l), -1, dtype=np.int32)
        rmult[src, gens] = dst
        rmult[dst, gens] = src
        if (rmult < 0).any():
            raise AssertionError("a right multiple is not an up- or down-move")

        # length via the root system must agree with the BFS word length
        neg_counts = (self.perms[:, :R] >= R).sum(axis=1)
        if not np.array_equal(neg_counts, self.length_arr):
            raise AssertionError("root-counting length disagrees with BFS length")

        inv = np.zeros(n, dtype=np.int32)
        cur = np.arange(n)
        for b in np.cumsum([len(lev) for lev in levels[:-1]]):
            # ids from b on are longer than the steps taken: one more letter
            inv[b:] = rmult[inv[b:], last[cur[b:]]]
            cur[b:] = parent[cur[b:]]
        if not (self.perms[inv[:, None], self.perms[:, :l]] == np.arange(l)).all():
            raise AssertionError("inverse table fails on the simple roots")
        self.inv_arr = inv

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

        refl_index_of_elem = np.full(self.order, -1, dtype=np.int32)
        for refl in self.reflections:
            refl_index_of_elem[refl.elem] = refl.index
        self.refl_index_of_elem = refl_index_of_elem

        for refl in self.reflections:
            e = refl.elem
            if self.length_arr[e] % 2 != 1:
                raise AssertionError("reflection of even length")
            if self.mul(e, e) != 0:
                raise AssertionError("reflection is not an involution")
            if self.perms[e][refl.root] != refl.root + R:
                raise AssertionError("reflection does not negate its root")

    def _build_classes(self):
        comps = self.matrix.odd_components()
        comp_of_gen = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of_gen[i] = ci
        buckets: dict[int, list[int]] = {}
        for refl in self.reflections:
            ci = comp_of_gen[self._root_base_simple[refl.root]]
            buckets.setdefault(ci, []).append(refl.index)
        ordered = sorted(buckets.values(), key=min)
        self.classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(c)) for c in ordered)

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

    def length(self, w: int) -> int:
        return int(self.length_arr[w])

    def det(self, w: int) -> int:
        """det of the geometric representation: (-1)^length."""
        return -1 if self.length_arr[w] % 2 else 1

    def act_root(self, w: int, signed_root: int) -> int:
        return int(self.perms[w][signed_root])

    def elem_of_word(self, word) -> int:
        x = 0
        for i in word:
            x = int(self.rmult[x][i])
        return x

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
        """(|W|, |T|) table of w > y as reflection indices.

        w s_beta w^-1 = s_(w(beta)), and s_(-gamma) = s_gamma, so column y
        is the reflection of the root perms[w, root(y)] up to sign.
        """
        if self._conj_refl is None:
            roots = np.array([t.root for t in self.reflections], dtype=np.int64)
            refl_of_root = np.array(self.refl_of_root, dtype=np.int32)
            self._conj_refl = refl_of_root[self.perms[:, roots] % self.nroots]
        return self._conj_refl

    # -- reflection-level operations ----------------------------------------

    def acts_negatively(self, w: int, refl_index: int) -> bool:
        """Whether w sends the reflection's positive root into Phi^-.

        Decided two independent ways (exact root image, length drop of
        w * y); the two must agree.
        """
        refl = self.reflections[refl_index]
        by_root = self.perms[w][refl.root] >= self.nroots
        by_length = self.length_arr[self.mul(w, refl.elem)] < self.length_arr[w]
        if bool(by_root) != bool(by_length):
            raise AssertionError(
                f"root and length criteria disagree at w={w}, y={refl.elem}")
        return bool(by_root)

    def reflection_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes of reflections (indices), cross-checked.

        Primary route: components of the odd-labeled Coxeter graph.
        Cross-check: direct orbit closure under conjugation by the simple
        reflections, s_i s_beta s_i = s_(s_i beta), on the positive roots.
        """
        orbit_partition = []
        seen: set[int] = set()
        for refl in self.reflections:
            if refl.index in seen:
                continue
            orbit = {refl.root}
            frontier = [refl.root]
            while frontier:
                r = frontier.pop()
                for perm in self.gen_root_perm:
                    q = perm[r] % self.nroots
                    if q not in orbit:
                        orbit.add(q)
                        frontier.append(q)
            ids = tuple(sorted(self.refl_of_root[r] for r in orbit))
            orbit_partition.append(ids)
            seen.update(ids)
        orbit_partition.sort(key=min)
        if tuple(orbit_partition) != self.classes:
            raise AssertionError("odd-component classes disagree with orbits")
        return self.classes

    def conjugacy_graph(self) -> ConjGraph:
        if self._graph is None:
            edges = []
            sink_gen = []
            for refl in self.reflections:
                lx = self.length_arr[refl.elem]
                outs = []
                for i in range(self.rank):
                    s = self.simple_reflection(i)
                    y = self.conj(s, refl.elem)
                    if self.length_arr[y] == lx - 2:
                        outs.append((i, int(self.refl_index_of_elem[y])))
                if lx > 1 and not outs:
                    raise AssertionError(
                        "non-simple reflection with no length-decreasing edge")
                edges.append(tuple(outs))
                sink_gen.append(refl.elem - 1 if lx == 1 else -1)
            self._graph = ConjGraph(edges=tuple(edges), simple_gen=tuple(sink_gen))
        return self._graph

    # -- length trichotomy and Chebyshev sequences ---------------------------

    def length_trichotomy(self, beta_root: int, alpha_gen: int) -> Trichotomy:
        """Classify l(s_a s_b s_a) - l(s_b) by the exact sign of (alpha, beta)."""
        beta = self.pos_roots[beta_root]
        s = self.inner_simple(alpha_gen, beta).sign()
        if beta_root == alpha_gen or s == 0:
            tag = Trichotomy.COMMUTE
        elif s < 0:
            tag = Trichotomy.UP
        else:
            tag = Trichotomy.DOWN
        # the tag must match the actual length change
        sb = self.reflections[self.refl_of_root[beta_root]].elem
        sa = self.simple_reflection(alpha_gen)
        diff = self.length(self.conj(sa, sb)) - self.length(sb)
        want = {Trichotomy.UP: 2, Trichotomy.DOWN: -2, Trichotomy.COMMUTE: 0}[tag]
        if diff != want:
            raise AssertionError(
                f"trichotomy tag {tag} does not match length change {diff}")
        if tag is Trichotomy.COMMUTE and self.mul(sa, sb) != self.mul(sb, sa):
            raise AssertionError("commute tag but the reflections do not commute")
        return tag

    def chebyshev_sequence(self, beta_root: int, i: int, j: int) -> ChebyshevReport:
        """Root sequence of the alternating conjugations, exactly verified.

        Hypotheses: beta positive non-simple, (alpha_i, beta) = 0 and
        (alpha_j, beta) > 0.  The scalar (beta_p, alpha_(p+1)) must equal
        delta * U_p(cos pi/m_ij) for every p; positivity holds through
        p = m_ij - 2 and the scalar vanishes at p = m_ij - 1.
        """
        l = self.rank
        if not (0 <= i < l and 0 <= j < l) or i == j:
            raise PreconditionFailed("need two distinct generator indices")
        if self._root_parent[beta_root] is None:
            raise PreconditionFailed("beta must be a non-simple positive root")
        beta = self.pos_roots[beta_root]
        delta = self.inner_simple(j, beta)
        if delta.sign() <= 0:
            raise PreconditionFailed("(alpha_j, beta) must be positive")
        if self.inner_simple(i, beta).sign() != 0:
            raise PreconditionFailed("(alpha_i, beta) must vanish")
        m = self.matrix.entry(i, j)
        gamma = cos_of_pi_over(m).embed(self.level)

        def alpha_gen(p: int) -> int:
            return i if p % 2 == 0 else j

        lev = self.level
        zero = CycloNumber.zero(lev)
        one = CycloNumber.one(lev)
        simple_vec = [tuple(one if k == g else zero for k in range(l))
                      for g in range(l)]

        vec = beta
        scalars = []
        stall = None
        vecs = [vec]
        for p in range(m):
            a_next = alpha_gen(p + 1)
            scal = self.inner_simple(a_next, vec)
            scalars.append(scal)
            if scal != delta * chebyshev_U(p, gamma):
                raise AssertionError("scalar sequence leaves the Chebyshev line")
            want_sign = 1 if p <= m - 2 else 0
            if scal.sign() != want_sign:
                raise AssertionError("scalar sign violates the sequence lemma")
            if stall is None and p <= m - 2 and vec == simple_vec[a_next]:
                stall = p
            if p < m - 1:
                vec = self._reflect_simple(a_next, vec)
                vecs.append(vec)

        start_len = self.length(self.reflections[self.refl_of_root[beta_root]].elem)
        if stall is not None:
            if m % 2 != 0 or stall != m // 2 - 1:
                raise AssertionError("shortcut stall at an impossible position")
            if start_len != m - 1:
                # the alternating word of 2*stall+1 letters is reduced
                raise AssertionError("shortcut length differs from m_ij - 1")
            return ChebyshevReport(beta=beta_root, i=i, j=j, m=m,
                                   scalars=tuple(scalars), tag="even-shortcut",
                                   stall=stall, start_length=start_len,
                                   end_length=None)

        last = vecs[m - 1]
        last_key = tuple(c.coeffs for c in last)
        r_last = self._root_index.get(last_key)
        if r_last is None:
            raise AssertionError("drop sequence left the positive roots")
        s_last = self.reflections[self.refl_of_root[r_last]].elem
        end_len = self.length(s_last)
        if end_len != start_len - 2 * m + 2:
            raise AssertionError("drop case length bookkeeping failed")
        s_m = self.simple_reflection(alpha_gen(m))
        if self.mul(s_m, s_last) != self.mul(s_last, s_m):
            raise AssertionError("final reflections fail to commute")
        if last == simple_vec[alpha_gen(m)]:
            raise AssertionError("drop case ended on alpha_(m)")
        return ChebyshevReport(beta=beta_root, i=i, j=j, m=m,
                               scalars=tuple(scalars), tag="length-drop",
                               stall=None, start_length=start_len,
                               end_length=end_len)

    def chebyshev_sweep(self) -> list[ChebyshevReport]:
        """Reports for every (beta, i, j) satisfying the hypotheses."""
        out = []
        for r in range(self.nroots):
            if self._root_parent[r] is None:
                continue
            beta = self.pos_roots[r]
            signs = [self.inner_simple(g, beta).sign() for g in range(self.rank)]
            for i in range(self.rank):
                if signs[i] != 0:
                    continue
                for j in range(self.rank):
                    if j != i and signs[j] > 0:
                        out.append(self.chebyshev_sequence(r, i, j))
        return out


def build_group(matrix: CoxeterMatrix) -> GroupTable:
    """Enumerate roots and elements; raises NotFiniteError up front or at
    the element cap."""
    return GroupTable(matrix)
