"""Braided vector spaces, quantum symmetrizers, Hilbert coefficients.

A braiding here is always monomial: basis x tensor y maps to a root of
unity times (x > y) tensor x, which covers rack braidings, diagonal
braidings and the graded-module braidings over dihedral groups.  Braid
words therefore act by (permutation, exponent) pairs on tensor bases and
never by dense matrices.

The n-th symmetrizer is the sum over the symmetric group of the braid
lifts of minimal words.  Its assembly uses the coset factorization: the
sum equals (previous symmetrizer tensor identity) times the sum over
the n minimal coset representatives.  Letter x acts on the basis by
phi_x: y -> x > y, and the braid equation gives phi_x o phi_y =
phi_(x > y) o phi_x, so every braid lift keeps the grade g(u) =
phi_(u_1) o ... o phi_(u_n) of a word u and S_n is block diagonal in it:
the column at u lies in block g(u).  The modular rank ladder never
assembles the d^n columns of a degree: the columns at the words x_i w,
w running over the pivot words of the previous degree, already span
the image (proof in ladder_ranks_iter), and each block of them is
eliminated on its own, in slot coordinates: slot (b, j) of a column in
block g is the j-th pivot of the previous degree's block g o phi_b^-1.
The slot coordinates of the other words those columns need are
computed on demand and memoized per degree.  The only limit is the
memory limit in bytes: a candidate block or a memo batch that would
pass it is refused with DegreeTooLargeError before it is built.  Every
rank query (hilbert_coeffs, total_dimension, the quadraticity probe)
runs the ladder once per prime through _ladder_runs, which stops each
run at the requested degree or its first zero rank.  Exact ranks come
from the same ladder at enough primes (proof in hilbert_coeffs).  Tests
pin the factorization against the literal sum, and the ladder against
the dense d^n assembly and the exact rank over Q(zeta_k) of its
integer power-basis form: symmetrizer_factorized_exact, with
exact_matrix_as_cyclo and modlin.rank_exact_cyclo, which stay here as
benchmark trace targets (the other oracles are in tests/oracles.py).
"""

from __future__ import annotations

import math
import os
import resource
import time
from typing import NamedTuple

import numpy as np

from .modlin import (
    matmul_mod,
    nullspace_mod,
    primes_one_mod,
    root_of_unity_mod,
    row_reduce_mod,
    solve_in_span_mod,
)
from .cyclo import euler_phi, reduction_matrix
from .racks import Rack, RackCocycle

PRIME_COUNT = 2           # primes of a modular run
MAX_TOTAL_DEGREE = 64     # give up searching for the top degree here
MEMO_CHUNK_CELLS = 1 << 20  # int64 cells of one batch of memoized columns
INT64_MAX = (1 << 63) - 1


class BraidEquationError(ValueError):
    """Construction produced an operator violating the braid equation."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"braid equation fails on basis triple {witness}")


class DegreeTooLargeError(RuntimeError):
    """A degree does not fit in int64 word indices or in memory."""


# ---------------------------------------------------------------------------
# Monomial operators on tensor powers
# ---------------------------------------------------------------------------


class MonomialOp:
    """Operator e_j -> zeta^expo[j] e_perm[j] on a tensor basis."""

    def __init__(self, k: int, perm: np.ndarray, expo: np.ndarray):
        self.k, self.perm, self.expo = k, perm, expo

    @classmethod
    def identity(cls, size: int, k: int) -> "MonomialOp":
        return cls(k, np.arange(size, dtype=np.int64),
                   np.zeros(size, dtype=np.int64))

    def compose_after(self, first: "MonomialOp") -> "MonomialOp":
        """self applied after `first` (matrix product self * first)."""
        return MonomialOp(self.k, self.perm[first.perm],
                          (first.expo + self.expo[first.perm]) % self.k)

    def equal(self, other: "MonomialOp") -> bool:
        return (np.array_equal(self.perm, other.perm)
                and np.array_equal(self.expo, other.expo))


class BraidedSpace:
    """Monomial braided vector space.

    c(x tensor y) = zeta_k^expo[x][y] (target[x][y] tensor x).  The braid
    equation is checked exhaustively on basis triples at construction.
    """

    def __init__(self, k: int, target, expo, labels=None):
        self.k = k
        self.target = tuple(tuple(int(v) for v in row) for row in target)
        self.expo = tuple(tuple(int(v) % k for v in row) for row in expo)
        self.dim = len(self.target)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"x{i}" for i in range(self.dim))
        d = self.dim
        if any(len(row) != d for row in self.target) or \
           any(len(row) != d for row in self.expo) or len(self.labels) != d:
            raise ValueError("braiding tables have inconsistent shapes")
        for x in range(d):
            if sorted(self.target[x]) != list(range(d)):
                raise ValueError(f"left translation by basis {x} not bijective")
        self._letter_cache: dict[tuple[int, int], MonomialOp] = {}
        self._check_braid_equation()

    def _check_braid_equation(self):
        left = word_operator(self, 3, (1, 2, 1))
        right = word_operator(self, 3, (2, 1, 2))
        if not left.equal(right):
            bad = int(np.nonzero((left.perm != right.perm)
                                 | (left.expo != right.expo))[0][0])
            d = self.dim
            witness = (bad // (d * d), bad // d % d, bad % d)
            raise BraidEquationError(witness)

    def braid_letter(self, n: int, i: int) -> MonomialOp:
        """The operator of sigma_i on the n-fold tensor power."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for {n} strands")
        key = (n, i)
        op = self._letter_cache.get(key)
        if op is not None:
            return op
        d = self.dim
        size = d ** n
        idx = np.arange(size, dtype=np.int64)
        stride_x = d ** (n - i)
        stride_y = d ** (n - i - 1)
        x = idx // stride_x % d
        y = idx // stride_y % d
        base = idx - x * stride_x - y * stride_y
        tgt = np.array(self.target, dtype=np.int64)
        exp = np.array(self.expo, dtype=np.int64)
        op = MonomialOp(self.k, base + tgt[x, y] * stride_x + x * stride_y,
                        exp[x, y])
        self._letter_cache[key] = op
        return op


def word_operator(V: BraidedSpace, n: int, word) -> MonomialOp:
    """Operator of a positive braid word (letter i for sigma_i)."""
    acc = MonomialOp.identity(V.dim ** n, V.k)
    for letter in word:
        acc = acc.compose_after(V.braid_letter(n, letter))
    return acc


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def braiding_from_rack(X: Rack, q: RackCocycle, labels=None) -> BraidedSpace:
    """c(x tensor y) = q(x, y) (x > y) tensor x on the free space on X.

    The braid equation that BraidedSpace checks on every basis triple is
    then the rack cocycle identity q(x, y > z) + q(y, z) = q(x > y, x > z)
    + q(x, z) (Andruskiewitsch-Grana, From racks to pointed Hopf algebras,
    2003): on x tensor y tensor z, c1 c2 c1 and c2 c1 c2 reach the same
    basis vector by self-distributivity, with the exponents
    q(x, y) + q(x, z) + q(x > y, x > z) and q(y, z) + q(x, y > z) + q(x, y).
    So a cocycle that is not one raises BraidEquationError, and its
    witness is the lexicographically first triple (x, y, z) that fails.
    """
    if q.size != X.size:
        raise ValueError("cocycle and rack sizes differ")
    return BraidedSpace(k=q.order, target=X.act, expo=q.table,
                        labels=labels or [str(l) for l in X.labels])


class DiagonalBraidedSpace(BraidedSpace):
    """Diagonal braiding: x > y = y with scalar matrix zeta^qexp[x][y]."""

    def __init__(self, k: int, qexp, labels=None):
        d = len(qexp)
        target = [[y for y in range(d)] for _ in range(d)]
        super().__init__(k, target, qexp, labels)
        self.qexp = self.expo


# ---------------------------------------------------------------------------
# Symmetrizer assembly
# ---------------------------------------------------------------------------


def coset_ops(V: BraidedSpace, n: int) -> list[MonomialOp]:
    """Lifts of the minimal coset representatives: words (n-1, ..., t+1)."""
    return [word_operator(V, n, tuple(range(n - 1, t, -1)))
            for t in range(n)]


def symmetrizer_factorized_exact(V: BraidedSpace, n: int) -> np.ndarray:
    """Counts per zeta power, as an (N, N, k) array over Z[x]/(x^k - 1),
    of the symmetrizer assembled by the coset factorization; reduce with
    exact_matrix_as_cyclo for canonical comparisons.

    Test oracle, with exact_matrix_as_cyclo and modlin.rank_exact_cyclo,
    for the exact ranks of hilbert_coeffs; is_quadratic_through reads its
    degree-2 kernel off this matrix mod p."""
    d = V.dim
    k = V.k
    if n == 0:
        out = np.zeros((1, 1, k), dtype=np.int64)
        out[0, 0, 0] = 1
        return out
    prev = np.zeros((d, d, k), dtype=np.int64)
    prev[np.arange(d), np.arange(d), 0] = 1
    for m in range(2, n + 1):
        N = d ** m
        out = np.zeros((d ** (m - 1), d, N, k), dtype=np.int64)
        cols = np.arange(N)
        for op in coset_ops(V, m):
            a, b = op.perm // d, op.perm % d
            for e in range(k):
                sel = cols[op.expo == e]
                if sel.size:
                    out[:, b[sel], sel, :] += np.roll(prev[:, a[sel], :],
                                                      e, axis=-1)
        prev = out.reshape(N, N, k)
    return prev


def exact_matrix_as_cyclo(arr: np.ndarray, k: int) -> np.ndarray:
    """Map counts over Z[x]/(x^k - 1), on the last axis, to the integer
    power basis of Z[zeta_k] (test oracle, with modlin.rank_exact_cyclo)."""
    return arr @ reduction_matrix(k)


# ---------------------------------------------------------------------------
# Hilbert coefficients
# ---------------------------------------------------------------------------


class SymmetrizerReport(NamedTuple):
    """Per-degree rank data of the quantum symmetrizer."""

    degree: int
    ambient_dim: int
    rank: int
    nullity: int
    mode: str                 # "modular" | "exact"
    primes: tuple[int, ...]
    agreed: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "schema": "symmetrizer_report.v1",
            "degree": self.degree,
            "ambient_dim": self.ambient_dim,
            "rank": self.rank,
            "nullity": self.nullity,
            "mode": self.mode,
            "primes": list(self.primes),
            "agreed": self.agreed,
            "seconds": round(self.seconds, 6),
        }


def _memory_limit_bytes() -> int:
    """Physical memory, or the soft address-space limit if that is lower."""
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return phys if soft == resource.RLIM_INFINITY else min(phys, soft)


class _ImageLevel:
    """Degree m of the ladder, block by block (see ladder_ranks_iter).

    Blocks are labelled 0, 1, ... as their grades occur: `grades[l]` is
    the grade of block l, a permutation of the basis, and `label` maps
    its bytes back to l.  `down[l][b]` labels, at degree m - 1, the
    block grades[l] o phi_b^-1 of the prefix of a block-l word ending in
    letter b.  Block l keeps `pivots[l]`, its pivot words, and
    `basis[l]`, the columns of S_m at them in slot coordinates: `rows` =
    d * width_(m-1) of them, row b * width_(m-1) + j for letter b and
    the j-th pivot of block down[l][b].  `sel[l]`/`inv[l]`, a square
    block of pivot rows and its inverse, are set when degree m + 1 first
    needs coordinates; a block that only memo words reach has no pivots.
    `words` (sorted) and `gam` are the memo: row i of `gam` is
    gamma_m(words[i]), the coordinates of the column of S_m at that word
    in its block's pivot basis, padded with zeros to `width`, the largest
    block rank.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.grades, self.label, self.down = [], {}, []
        self.pivots, self.basis, self.sel, self.inv = [], [], [], []
        self.width = 0
        self.words = np.empty(0, dtype=np.int64)
        self.gam = np.empty((0, 0), dtype=np.int64)


def _runs(labels: np.ndarray):
    """(label, start, stop) of each run of equal values in a sorted array."""
    cut = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], cut)).tolist()
    stops = np.concatenate((cut, [labels.size])).tolist()
    return zip(labels[starts].tolist(), starts, stops)


class _SpanLadder:
    """Ranks of S_2, S_3, ... over GF(p) from spanning columns, block by
    block (see ladder_ranks_iter)."""

    def __init__(self, V: BraidedSpace, p: int, omega: int):
        d = V.dim
        self.d, self.k, self.p = d, V.k, p
        self.limit = _memory_limit_bytes()
        self.tgt = np.array(V.target, dtype=np.int64).reshape(d, d)
        self.tinv = np.argsort(self.tgt, axis=1)    # row b is phi_b^-1
        self.expo = np.array(V.expo, dtype=np.int64).reshape(d, d)
        self.zpow = np.array([pow(omega, e, p) for e in range(V.k)],
                             dtype=np.int64)
        # degree 1: S_1 = id, letter x is a pivot of the block of phi_x
        first = _ImageLevel(0)
        labels = self._labels(first, self.tgt)
        order = np.argsort(labels, kind="stable")
        place = np.empty(d, dtype=np.int64)
        for label, lo, hi in _runs(labels[order]):
            first.pivots[label] = order[lo:hi]
            place[order[lo:hi]] = np.arange(hi - lo)
        first.width = int(place.max()) + 1
        first.words = np.arange(d, dtype=np.int64)
        first.gam = np.zeros((d, first.width), dtype=np.int64)
        first.gam[first.words, place] = 1
        self.levels = [None, first]

    def extend(self) -> int:
        """Rank of the next degree n: the sum over its blocks of the rank
        of the columns at the words x_i w in the block."""
        n = len(self.levels)
        if self.d ** n > INT64_MAX:
            raise DegreeTooLargeError(
                f"degree {n} words do not fit in int64 indices")
        d, prev = self.d, self.levels[-1]
        level = _ImageLevel(d * prev.width)
        # x_i w lies in the block phi_(x_i) o g(w)
        live = [label for label, piv in enumerate(prev.pivots) if piv.size]
        grades = self.tgt[:, [prev.grades[label] for label in live]]
        blocks = np.repeat(
            self._labels(level, grades.reshape(-1, d)).reshape(d, -1),
            [prev.pivots[label].size for label in live], axis=1).ravel()
        cand = (np.arange(d, dtype=np.int64)[:, None] * d ** (n - 1)
                + np.concatenate([prev.pivots[label] for label in live])
                ).ravel()
        order = np.argsort(blocks, kind="stable")
        cand, blocks = cand[order], blocks[order]
        runs = list(_runs(blocks))
        size = max(hi - lo for _, lo, hi in runs)
        # the largest block's size x rows int64 columns and the transposed
        # copy that elimination works on must fit in memory
        need = 16 * size * level.rows
        if need > self.limit:
            raise DegreeTooLargeError(
                f"degree {n} needs {need} bytes for two copies of its "
                f"largest candidate block, {size} columns of {level.rows} "
                f"rows, memory limit {self.limit}")
        self.levels.append(level)
        prefix, last, expo = self._coset_terms(n, cand)
        self._memoize(n - 1, prefix, last, blocks)
        for label, lo, hi in runs:
            cols = self._assemble(n, prefix[:, lo:hi], last[:, lo:hi],
                                  expo[:, lo:hi])
            _, piv = row_reduce_mod(cols.T.copy(), self.p)
            level.pivots[label] = cand[lo:hi][piv]
            level.basis[label] = cols[piv].T.copy()
        ranks = [piv.size for piv in level.pivots]
        level.width = max(ranks)
        level.gam = np.empty((0, level.width), dtype=np.int64)
        return sum(ranks)

    def _labels(self, level: _ImageLevel, grades) -> np.ndarray:
        """Labels at `level` of the rows of `grades`, new grades labelled
        in order of occurrence as blocks without pivots."""
        out = np.empty(len(grades), dtype=np.int64)
        for i, grade in enumerate(grades):
            key = grade.tobytes()
            if key not in level.label:
                level.label[key] = len(level.grades)
                level.grades.append(grade)
                level.pivots.append(np.empty(0, dtype=np.int64))
                level.basis.append(np.zeros((level.rows, 0), dtype=np.int64))
            out[i] = level.label[key]
        return out

    def _down(self, m: int) -> np.ndarray:
        """The table down of degree m (see _ImageLevel), completed."""
        level, below = self.levels[m], self.levels[m - 1]
        for grade in level.grades[len(level.down):]:
            level.down.append(self._labels(below, grade[self.tinv]))
        return np.array(level.down)

    def _coset_terms(self, m: int, words: np.ndarray):
        """(prefix, last, exponent) arrays, shape (m, len(words)), of the
        coset operators T_t = sigma_(m-1) ... sigma_(t+1), t = 0..m-1.

        T_t moves letter x = u_(t+1) of the word u to the end and acts by
        it on the letters it passes: e_u maps to zeta^e times the word
        (u_1 .. u_t, x > u_(t+2), .., x > u_m, x), e the sum of the
        exponents of the crossings (x, u_j).
        """
        d = self.d
        digits = np.array([words // d ** (m - 1 - j) % d for j in range(m)])
        prefix = np.empty_like(digits)
        expo = np.empty_like(digits)
        for t in range(m):
            x = digits[t]
            acc = words // d ** (m - t)
            e = np.zeros_like(x)
            for y in digits[t + 1:]:
                acc = acc * d + self.tgt[x, y]
                e += self.expo[x, y]
            prefix[t] = acc
            expo[t] = e % self.k
        return prefix, digits, expo

    def _assemble(self, m: int, prefix, last, expo) -> np.ndarray:
        """Columns of S_m = (S_(m-1) (x) id) sum_t T_t at words of one
        block, one row per word, in the slot coordinates of
        _ImageLevel.basis."""
        prev = self.levels[m - 1]
        size = prefix.shape[1]
        out = np.zeros((size, self.d, prev.width), dtype=np.int64)
        at = np.arange(size)
        for t in range(m):
            g = prev.gam[np.searchsorted(prev.words, prefix[t])]
            out[at, last[t]] += g * self.zpow[expo[t]][:, None] % self.p
        out %= self.p
        return out.reshape(size, -1)

    def _invert(self, level: _ImageLevel):
        """sel and inv of the blocks of `level` that have none yet."""
        for basis in level.basis[len(level.inv):]:
            _, sel = row_reduce_mod(basis.T.copy(), self.p)
            level.sel.append(np.array(sel, dtype=np.int64))
            level.inv.append(solve_in_span_mod(
                basis[sel], np.eye(len(sel), dtype=np.int64), self.p))

    def _memoize(self, m: int, prefix, last, above):
        """Add gamma_m of the degree-m words `prefix` to the level-m memo;
        prefix[t, i] is what T_t leaves of a degree-(m+1) word of block
        above[i] when it moves letter last[t, i] to the end, so it lies in
        block down[above[i]][last[t, i]].

        gamma_m(u) = inv * column(u)[sel] in the block of u; the block's
        basis times gamma_m(u) must give the column back, else the column
        is outside the pivot span and ValueError is raised.
        """
        if m == 1:
            return                      # degree 1 is complete
        level = self.levels[m]
        order = np.argsort(prefix, axis=None)
        words = prefix.ravel()[order]
        first = np.empty(words.size, dtype=bool)
        first[:1] = True
        np.not_equal(words[1:], words[:-1], out=first[1:])
        pick, words = order[first], words[first]
        if level.words.size:
            at = np.searchsorted(level.words, words)
            new = level.words[np.minimum(at, level.words.size - 1)] != words
            pick, words = pick[new], words[new]
        if words.size == 0:
            return
        labels = self._down(m + 1)[above[pick % above.size],
                                   last.ravel()[pick]]
        step = max(1, MEMO_CHUNK_CELLS // level.rows)
        self._check_memory(m, words.size, min(words.size, step))
        self._invert(level)
        prefix, last, expo = self._coset_terms(m, words)
        self._memoize(m - 1, prefix, last, labels)
        gam = np.zeros((words.size, level.width), dtype=np.int64)
        order = np.argsort(labels, kind="stable")
        for lo in range(0, words.size, step):
            part = order[lo:lo + step]
            cols = self._assemble(m, prefix[:, part], last[:, part],
                                  expo[:, part])
            for label, a, b in _runs(labels[part]):
                g = matmul_mod(cols[a:b, level.sel[label]],
                               level.inv[label].T, self.p)
                bad = np.flatnonzero((matmul_mod(g, level.basis[label].T,
                                                 self.p)
                                      != cols[a:b]).any(axis=1))
                if bad.size:
                    raise ValueError(
                        f"degree {m} column of word "
                        f"{int(words[part[a + bad[0]]])} is not in the span "
                        "of the pivot columns")
                gam[part[a:b], :g.shape[1]] = g
        at = np.searchsorted(level.words, words)
        level.words = np.insert(level.words, at, words)
        level.gam = np.insert(level.gam, at, gam, axis=0)

    def _check_memory(self, m: int, count: int, chunk: int):
        """Refuse a batch of `count` new degree-m words, assembled `chunk`
        at a time, before it is built, when the memo of every degree plus
        the batch's peak would pass the memory limit.

        The peak was measured with tracemalloc on the A3 and I2(6) ladders
        through degrees 10 and 11: about 6m int64 per word for its digits,
        its coset terms and the sort that finds its distinct prefixes,
        2(w + 1) for its coordinates and their merged copy (w the width of
        degree m), 5 int64 per cell of one chunk of slot columns in
        assembly and the span check, and one copy of the degree-m memo
        while the batch is merged into it.  That bounds every batch above
        1 MB by at least 13%.
        """
        level = self.levels[m]
        held = sum(lvl.words.nbytes + lvl.gam.nbytes
                   for lvl in self.levels[1:])
        cells = chunk * level.rows
        batch = (8 * (count * (6 * m + 2 * (level.width + 1)) + 5 * cells)
                 + level.words.nbytes + level.gam.nbytes)
        if held + batch > self.limit:
            raise DegreeTooLargeError(
                f"degree {m} memo batch of {count} words needs about {batch} "
                f"bytes on top of the {held} bytes memoized, memory limit "
                f"{self.limit}")


def ladder_ranks_iter(V: BraidedSpace, p: int, omega: int):
    """Yield (degree, rank, seconds) over GF(p) for degrees 0, 1, 2, ...
    through the first degree of rank zero.

    Spanning columns.  The length-additive lift factors the symmetrizer
    as S_n = (sum_c lift(c)) (id (x) S_(n-1)), c over the minimal coset
    representatives, so V (x) ker S_(n-1) lies in ker S_n.  If w runs
    over the pivot words of degree n-1 (words whose columns form a basis
    of im S_(n-1)) and S_(n-1) e_u = sum_w gamma_w S_(n-1) e_w, then
    e_i (x) (e_u - sum_w gamma_w e_w) is in ker S_n, so the column of S_n
    at x_i u is the same combination of its columns at the x_i w.  The
    d * r_(n-1) columns at the words x_i w therefore span im S_n, and one
    elimination of them gives r_n and the pivot words of degree n.  The
    algebra is generated in degree one, so a zero rank stays zero and
    the ladder ends there.

    Blocks.  The braid equation on a basis triple (x, y, z) says
    (x > y) > (x > z) = x > (y > z), that is phi_(x > y) o phi_x =
    phi_x o phi_y, so sigma_i maps e_u to a multiple of a word of the
    same grade g(u) = phi_(u_1) o ... o phi_(u_n).  Hence S_n maps the
    words of each grade into their own span, the column at u lies in
    block g(u), r_n is the sum of the block ranks, and the column at
    x_i w lies in block phi_(x_i) o g(w): the spanning columns split by
    block and each block is eliminated on its own.

    Columns are built through S_n = (S_(n-1) (x) id) sum_t T_t with the
    coset operators applied to word digits.  T_t e_u is a multiple of
    e_(v b) with g(v) o phi_b = g(u), so the column at u is a sum of
    S_(n-1) e_v (x) e_b over prefixes v in block g(u) o phi_b^-1.  Its
    slot coordinates are those of the S_(n-1) e_v in the pivot basis of
    that block: slot (b, j) of a column in block g is the j-th pivot of
    the degree-(n-1) block g o phi_b^-1, stored in d * max_h r_h rows.
    The prefixes are degree-(n-1) words, pivot or not; their coordinates
    gamma_(n-1)(v) = R col(v)[sel] (R the inverse of a square block of
    pivot rows of the block of v) are computed lazily, recursively and
    in batches, memoized per degree, and each memoized column is checked
    to lie in its block's pivot span (ValueError otherwise).  Grades are
    labelled as the ladder's words reach them, never by enumerating the
    group the phi_x generate.

    The only limit is memory, in bytes (_memory_limit_bytes, read once).
    DegreeTooLargeError is raised before a degree whose largest
    candidate block, in two copies, would pass it, and before a memo
    batch whose measured peak, added to the memo already held at every
    degree, would pass it; the message names both byte counts and the
    limit.
    """
    d = V.dim
    yield 0, 1, 0.0
    yield 1, d, 0.0
    ladder = _SpanLadder(V, p, omega)
    n, rank = 1, d
    while rank:
        n += 1
        t0 = time.perf_counter()
        rank = ladder.extend()
        yield n, rank, time.perf_counter() - t0


def _ladder_runs(V: BraidedSpace, dmax: int, exact: bool = False):
    """Ladder runs (p, omega, ranks, seconds) at primes p = 1 (mod k), each
    through degree dmax or its first zero rank, whichever comes first.

    PRIME_COUNT primes; exact mode adds primes until their product passes
    the Hadamard bound of hilbert_coeffs.
    """
    phi, runs, bound = euler_phi(V.k), [], 0
    while len(runs) < PRIME_COUNT or exact and math.prod(
            run[0] for run in runs) <= bound:
        p = primes_one_mod(V.k, count=len(runs) + 1)[-1]
        omega = root_of_unity_mod(p, V.k)
        ranks, seconds = [], []
        for n, rank, secs in ladder_ranks_iter(V, p, omega):
            ranks.append(rank)
            seconds.append(secs)
            if n == dmax:
                break
        runs.append((p, omega, ranks, seconds))
        if exact:   # Hadamard's bound on |N(D)|, r the largest rank so far
            bound = max(
                math.factorial(n) ** ((max(_ranks_at(runs, n)) + 1) * phi)
                for n in range(dmax + 1))
    return runs


def _ranks_at(runs, n: int) -> list[int]:
    """Degree-n rank of each run; a run that stopped at zero reads zero."""
    return [ranks[n] if n < len(ranks) else 0 for _, _, ranks, _ in runs]


def _reports(V: BraidedSpace, runs, mode: str):
    """Reports of the degrees the longest run reached (its first zero
    rank, or dmax): the largest rank over the runs (a rank mod p never
    exceeds the rank over the field), `agreed` saying whether the runs
    gave the same rank (always True in exact mode)."""
    primes = tuple(run[0] for run in runs)
    reports = []
    for n in range(max(len(ranks) for _, _, ranks, _ in runs)):
        vals = _ranks_at(runs, n)
        rank = max(vals)
        reports.append(SymmetrizerReport(
            degree=n, ambient_dim=V.dim ** n, rank=rank,
            nullity=V.dim ** n - rank, mode=mode, primes=primes,
            agreed=mode == "exact" or len(set(vals)) == 1,
            seconds=sum(secs[n] for *_, secs in runs if n < len(secs))))
    return reports


def hilbert_coeffs(V: BraidedSpace, dmax: int, mode: str = "modular"
                   ) -> list[SymmetrizerReport]:
    """Per-degree symmetrizer ranks for degrees 0..dmax, or through the
    first degree where they are all 0 if that comes first.

    Both modes run the ladder over GF(p), p = 1 (mod k), and report the
    largest rank per degree.  Modular mode uses PRIME_COUNT primes,
    `agreed` saying whether they gave the same ranks.

    Exact mode adds primes until the ranks are proved.  In degree n each
    column of S_n is a sum of n! monomial vectors over Z[zeta_k], of
    norm at most n! under every complex embedding.  The ladder at p
    gives exactly the rank of S_n mod P = (p, zeta - omega), a prime of
    norm p (its spanning proof holds over any field).  Let r be the
    largest such rank.  A nonzero (r+1)-minor D would vanish mod every
    P_i, so prod p_i would divide N(D), while Hadamard's bound gives
    0 < |N(D)| <= (n!)^((r+1) phi(k)).  So once prod p_i exceeds that
    bound, the rank over Q(zeta_k) is r, even if some prime undercounts.
    The reports list those primes, `agreed` True.
    """
    if dmax < 0:
        raise ValueError(f"dmax must be at least 0, got {dmax}")
    if mode not in ("modular", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    runs = _ladder_runs(V, dmax, exact=mode == "exact")
    return _reports(V, runs, mode)


def total_dimension(V: BraidedSpace):
    """(total dimension, reports) by summing ranks until one vanishes.

    A graded algebra generated in degree one dies for good once a degree
    vanishes, so the first zero rank certifies termination.  Modular
    mode; each degree reports the largest rank over the primes, `agreed`
    False where they differ, and a prime whose ladder vanished earlier
    counts as zero in the later degrees.
    """
    runs = _ladder_runs(V, MAX_TOTAL_DEGREE)
    if any(ranks[-1] for _, _, ranks, _ in runs):
        raise DegreeTooLargeError(
            f"no vanishing degree found below {MAX_TOTAL_DEGREE}")
    reports = _reports(V, runs, "modular")
    return sum(r.rank for r in reports), reports


# ---------------------------------------------------------------------------
# Quadraticity probe
# ---------------------------------------------------------------------------


def _ideal_degree_rank(V: BraidedSpace, n: int, p: int,
                       kernel: np.ndarray) -> int:
    """Rank of the degree-n slice of the two-sided ideal on the kernel.

    The slice is spanned by the rows e_a (x) v (x) e_b, v in the kernel,
    over every position t of v: eye(d^t) (x) kernel (x) eye(d^(n-2-t)).
    """
    d = V.dim
    mat = np.concatenate([
        np.kron(np.kron(np.eye(d ** t, dtype=np.int64), kernel),
                np.eye(d ** (n - 2 - t), dtype=np.int64))
        for t in range(n - 1)])
    _, pivots = row_reduce_mod(mat % p, p)
    return len(pivots)


def is_quadratic_through(V: BraidedSpace, n: int) -> bool:
    """Whether relations up to degree n are generated in degree two.

    Compares, at each prime, in each degree 3..n, the symmetrizer nullity
    with the dimension of the degree slice of the ideal generated by the
    degree-2 kernel; the slice can never exceed the nullity.
    """
    if n < 3:
        raise ValueError("the probe starts at degree 3")
    verdicts = []
    for p, omega, ranks, _ in _ladder_runs(V, n):
        zpow = np.array([pow(omega, e, p) for e in range(V.k)], dtype=np.int64)
        kernel = nullspace_mod(symmetrizer_factorized_exact(V, 2) @ zpow % p, p)
        ranks = ranks + [0] * (n + 1 - len(ranks))
        # nullity minus the dimension of the ideal slice, per degree
        slack = [V.dim ** deg - ranks[deg]
                 - _ideal_degree_rank(V, deg, p, kernel)
                 for deg in range(3, n + 1)]
        if min(slack) < 0:
            raise AssertionError("ideal slice exceeds the relation space")
        verdicts.append(not any(slack))
    if len(set(verdicts)) != 1:
        raise AssertionError("quadraticity verdict disagrees across primes")
    return verdicts[0]
