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
assembles the d^n columns of a degree: the columns at the candidates
x w, w over the pivots of the previous degree, span the image, and each
block of them is eliminated on its own, in left slot coordinates
(proofs in ladder_ranks_iter).  The column at x w is e_x (x) [w] plus
(Phi_x (x) L_x) of the column at w, L_x the left multiplication by x
one degree lower, read off that degree's reduced echelon form; so the
ladder holds one degree, its pivot columns and letter matrices.  A
degree whose largest candidate block, the factors of its products, or
whose pivot columns and letter matrices would pass the memory limit is
refused with DegreeTooLargeError before it is built.  Every rank query
(hilbert_coeffs, total_dimension, the quadraticity probe) runs the
ladder once per prime through _ladder_runs, which stops each run at the
requested degree or its first zero rank.  Exact ranks come from the
same ladder at enough primes (proof in hilbert_coeffs).  Tests pin the
factorization against the literal sum, and the ladder against the dense
d^n assembly and the exact rank over Q(zeta_k) of its integer
power-basis form: symmetrizer_factorized_exact, with
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
)
from .cyclo import euler_phi, reduction_matrix
from .racks import Rack, RackCocycle

PRIME_COUNT = 2           # primes of a modular run
MAX_TOTAL_DEGREE = 64     # give up searching for the top degree here


class BraidEquationError(ValueError):
    """Construction produced an operator violating the braid equation."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"braid equation fails on basis triple {witness}")


class DegreeTooLargeError(RuntimeError):
    """A degree of the rank ladder would pass the memory limit."""


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


class _Level:
    """One degree n of the ladder, block by block (see ladder_ranks_iter).

    Row l of `grades` is the grade of block l, labelled as grades occur;
    `label` maps its bytes back to l.  down[l, a] labels, at degree n - 1,
    the block phi_a^-1 o grades[l], or is len(rank) there, a block of rank
    0, if no candidate reached it.  Slot (a, j), letter a and the j-th
    pivot of block down[l, a], is row off[l, a] + j of block l, and
    candidate (x, j), x times that pivot, is column off[l, x] + j.  In
    flat int32 arrays, from its start in bstart, lstart and cstart, block
    l keeps its pivot columns (basis, row-major) and the coordinates of
    its candidates in them (letters, the letter matrices L_x side by
    side, one row per pivot).  Pivot candidates have unit coordinates, so
    letters keeps the other columns only: cmap maps a candidate to its
    column there, or the i-th pivot candidate to -1 - i.
    """

    def __init__(self, grades, label, down, off):
        self.grades, self.label, self.down, self.off = grades, label, down, off
        self.rank = np.zeros(len(grades), dtype=np.int64)
        self.basis = self.letters = self.cmap = np.empty(0, dtype=np.int32)
        self.bstart, self.lstart, self.cstart = np.zeros(
            (3, len(grades) + 1), dtype=np.int64)


def _keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-d array."""
    buf = np.ascontiguousarray(rows).tobytes()
    step = rows.shape[1] * rows.itemsize
    return [buf[at:at + step] for at in range(0, len(buf), step)]


class _SpanLadder:
    """Ranks of S_1, S_2, ... over GF(p) from spanning columns, block by
    block, holding one degree (see ladder_ranks_iter)."""

    def __init__(self, V: BraidedSpace, p: int, omega: int):
        d = V.dim
        self.d, self.p = d, p
        self.limit = _memory_limit_bytes()
        # grades are permutations in the smallest integer type of a letter
        self.tgt = np.array(V.target, dtype=np.min_scalar_type(d))
        self.tinv = np.argsort(self.tgt, axis=1).astype(self.tgt.dtype)
        self.expo = np.array(V.expo, dtype=np.int64)
        self.zpow = np.array([pow(omega, e, p) for e in range(V.k)],
                             dtype=np.int64)
        # degree 0: the empty word, one block of rank 1 and no slots
        ident = np.arange(d, dtype=self.tgt.dtype)[None]
        self.level = _Level(ident, {ident.tobytes(): 0},
                            np.zeros((1, d), dtype=np.int64),
                            np.zeros((1, d + 1), dtype=np.int64))
        self.level.rank[0] = 1
        self.degree = 0
        self.extend()

    def extend(self) -> int:
        """Rank of the next degree n: the sum over its blocks of the rank
        of the columns at their candidates."""
        d, prev = self.d, self.level
        n = self.degree + 1
        below = np.append(prev.rank, 0)     # rank of a degree n - 1 label
        # x w lies in the block phi_x o g(w)
        occur = self.tgt[:, prev.grades[prev.rank > 0]].reshape(-1, d)
        label = {key: l for l, key in enumerate(dict.fromkeys(_keys(occur)))}
        grades = np.frombuffer(b"".join(label), dtype=self.tgt.dtype).reshape(
            -1, d)
        down = np.array([prev.label.get(key, len(prev.rank)) for key in _keys(
            self.tinv[:, grades].transpose(1, 0, 2).reshape(-1, d))],
            dtype=np.int64).reshape(-1, d)
        off = np.zeros((len(grades), d + 1), dtype=np.int64)
        np.cumsum(below[down], axis=1, out=off[:, 1:])
        sizes = off[:, -1]
        # the largest block, c x c with c <= rows = d * width, and the copy
        # that elimination works on must fit in memory
        size, rows = int(sizes.max()), d * int(prev.rank.max())
        need = 16 * size * rows
        if need > self.limit:
            raise DegreeTooLargeError(
                f"degree {n} needs {need} bytes for two copies of its "
                f"largest candidate block, {size} columns of {rows} rows, "
                f"memory limit {self.limit}")
        pairs, cut, groups = self._pairs(prev, below, down, off)
        # and so must the factors of a block's products: pair (x, y)
        # multiplies r_out x inner cells of L_x by inner x r_in pivot rows
        cells = np.cumsum(np.append(0, pairs[1] * (pairs[0] + pairs[2])))
        need = 8 * int(np.diff(cells[cut]).max())
        if need > self.limit:
            raise DegreeTooLargeError(
                f"degree {n} needs {need} bytes for the factors of the "
                f"products of its largest block, memory limit {self.limit}")
        # a block of c candidates and rank r keeps c * r + r * (c - r) <=
        # c^2 int32 cells, and degree n - 1 is held until degree n is built
        held = prev.basis.nbytes + prev.letters.nbytes
        bound = 4 * int((sizes ** 2).sum())
        if held + bound > self.limit:
            raise DegreeTooLargeError(
                f"degree {n} keeps up to {bound} bytes of pivot columns and "
                f"letter matrices on top of the {held} bytes of degree "
                f"{n - 1}, memory limit {self.limit}")
        first, cut = np.searchsorted(groups, cut).tolist(), cut.tolist()
        level = _Level(grades, label, down, off)
        basis, letters, cmap = [], [], []
        for l, size in enumerate(sizes.tolist()):
            lo, hi = cut[l], cut[l + 1]
            cols = self._block(prev, pairs[:, lo:hi], size,
                               groups[first[l]:first[l + 1]] - lo)
            red, piv = row_reduce_mod(cols.copy(), self.p, full=True)
            pivot = np.zeros(size, dtype=bool)
            pivot[piv] = True
            basis.append(cols[:, piv].astype(np.int32).ravel())
            letters.append(red[:len(piv), ~pivot].astype(np.int32).ravel())
            cmap.append(np.where(pivot, -np.cumsum(pivot),
                                 np.cumsum(~pivot) - 1).astype(np.int32))
            level.rank[l] = len(piv)
        for name, parts in (("basis", basis), ("letters", letters),
                            ("cmap", cmap)):
            setattr(level, name, np.concatenate(parts))
            np.cumsum([part.size for part in parts],
                      out=getattr(level, name[0] + "start")[1:])
        self.level, self.degree = level, n
        return int(level.rank.sum())

    def _pairs(self, prev: _Level, below, down, off):
        """The pairs (x, y) of each block of the next degree where slot y
        of the column at x w, w a pivot of block h = down[x], and slot
        x > y it goes to both have rank, one column each, sorted by block
        and by the shape of their product (rows 0-2); with the start of
        each block and of each run of equal block and shape.  Rows: the
        ranks of t = down[x > y], of slot y of h and of h; the starts of
        the letter-x candidates of t in prev.cmap, of t in prev.letters,
        its row length there, and of slot (y, 0) of h in prev.basis;
        zeta^expo[x][y]; and the first row of slot x > y and the first
        column of slot x in the block.
        """
        blk, x = np.nonzero(below[down])
        h = down[blk, x]
        inner = np.diff(prev.off[h], axis=1)
        into = down[blk[:, None], self.tgt[x]]
        pair, y = np.nonzero((inner > 0) & (below[into] > 0))
        blk, x, h, t = blk[pair], x[pair], h[pair], into[pair, y]
        pairs = np.array([
            below[t], inner[pair, y], below[h],
            prev.cstart[t] + prev.off[t, x], prev.lstart[t],
            prev.off[t, -1] - below[t],
            prev.bstart[h] + prev.off[h, y] * below[h],
            self.zpow[self.expo[x, y]], off[blk, self.tgt[x, y]], off[blk, x]],
            dtype=np.int64)
        order = np.lexsort((pairs[2], pairs[1], pairs[0], blk))
        blk, pairs = blk[order], pairs[:, order]
        step = np.diff(np.vstack((blk, pairs[:3])), axis=1).any(axis=0)
        groups = np.flatnonzero(np.concatenate(([True], step)))
        return pairs, np.searchsorted(blk, np.arange(len(down) + 1)), groups

    def _block(self, prev: _Level, pairs: np.ndarray, size: int,
               groups) -> np.ndarray:
        """Columns of S_n at the `size` candidates of one block of degree
        n, in slot coordinates; `pairs` and `groups` are the block's share
        of _pairs.

        The column at x w_j is e_x (x) [w_j] plus (Phi_x (x) L_x) of the
        column at w_j: slot y of it goes through zeta^expo[x][y] L_x, the
        letter-x columns of block down[x > y], to slot x > y.  The pairs
        of one shape run as one stacked product.
        """
        p = self.p
        out = np.zeros((size, size), dtype=np.int64)
        r_out, inner, r_in, cmap_at, letters_at, row, basis_at, zeta, \
            top, left = pairs
        # L_x, rows i and columns k, and rows k of slot y of the pivot
        # columns of h, laid end to end pair by pair
        lx_at = np.concatenate(([0], np.cumsum(r_out * inner)))
        piece_at = np.concatenate(([0], np.cumsum(inner * r_in)))
        at = np.repeat(np.arange(len(zeta)), np.diff(lx_at))
        i, k = np.divmod(np.arange(lx_at[-1]) - lx_at[at], inner[at])
        m = prev.cmap[cmap_at[at] + k].astype(np.int64)
        lx = (i == -1 - m).astype(np.int64)
        ok = m >= 0
        lx[ok] = prev.letters[(letters_at[at] + i * row[at] + m)[ok]]
        at = np.repeat(np.arange(len(zeta)), np.diff(piece_at))
        piece = prev.basis[basis_at[at] + np.arange(piece_at[-1])
                           - piece_at[at]] * zeta[at] % p
        for lo, hi in zip(groups.tolist(), groups[1:].tolist() + [len(zeta)]):
            rows, ks, cols = pairs[:3, lo].tolist()
            prod = matmul_mod(
                lx[lx_at[lo]:lx_at[hi]].reshape(-1, rows, ks),
                piece[piece_at[lo]:piece_at[hi]].reshape(-1, ks, cols), p)
            # row i of a product fills `cols` cells from out[top + i, left]
            dest = ((top[lo:hi, None] + np.arange(rows)) * size
                    + left[lo:hi, None])
            out.ravel()[dest[:, :, None] + np.arange(cols)] = prod
        diag = out.ravel()[::size + 1]
        diag[:] = (diag + 1) % p
        return out


def ladder_ranks_iter(V: BraidedSpace, p: int, omega: int):
    """Yield (degree, rank, seconds) over GF(p) for degrees 0, 1, 2, ...
    through the first degree of rank zero.

    Spanning columns.  The length-additive lift factors S_n over the
    minimal representatives of either coset space: S_n =
    Q_n (id (x) S_(n-1)) with Q_n = sum_j sigma_j ... sigma_1, and
    S_n = (id (x) S_(n-1)) (1 + sigma_1 + ... + sigma_1 ... sigma_(n-1)).
    By the first, V (x) ker S_(n-1) lies in ker S_n.  If w runs over the
    pivots of degree n-1 (words whose columns form a basis of
    im S_(n-1)) and S_(n-1) e_u = sum_w gamma_w S_(n-1) e_w, then
    e_x (x) (e_u - sum_w gamma_w e_w) is in ker S_n, so the d * r_(n-1)
    columns at the candidates x w span im S_n, and one elimination of
    them gives r_n and the pivots of degree n.  The algebra is generated
    in degree one, so a zero rank stays zero and the ladder ends there.

    Blocks.  The braid equation on a basis triple (x, y, z) says
    phi_(x > y) o phi_x = phi_x o phi_y, so sigma_i maps e_u to a
    multiple of a word of the same grade g(u) = phi_(u_1) o ... o
    phi_(u_n).  Hence the column at u lies in block g(u), r_n is the sum
    of the block ranks, and the candidates x w of each block
    phi_x o g(w) are eliminated on their own.  Grades are labelled as
    candidates reach them, never by enumerating the group the phi_x
    generate.

    Left slots.  By the second factorization im S_n lies in
    V (x) im S_(n-1): a column in block G is sum_a e_a (x) z_a with z_a
    in im S_(n-1) of grade phi_a^-1 o G, and slot (a, j) holds the
    coordinate of z_a on the j-th pivot of that block.  As Q_n =
    1 + (id (x) Q_(n-1)) sigma_1 and Q_(n-1) (id (x) S_(n-2)) = S_(n-1),
    S_(n-1) e_w = sum_y e_y (x) S_(n-2) v_y gives
        S_n e_(x w) = e_x (x) S_(n-1) e_w
                      + sum_y zeta^expo[x][y] e_(x > y) (x) L_x S_(n-2) v_y
    with L_x: S_(n-2) v -> S_(n-1)(e_x (x) v).  L_x is well defined, as
    S_(n-2) v = 0 puts e_x (x) v in V (x) ker S_(n-2), inside ker S_(n-1):
    it is left multiplication by x, B_(n-2) -> B_(n-1), and maps block K
    to block phi_x o K.  So the column at x w is e_x (x) [w] +
    (Phi_x (x) L_x)(column at w), Phi_x: e_y -> zeta^expo[x][y] e_(x > y),
    and the columns of L_x are those at the candidates x v of degree
    n-1, in the coordinates of that degree's reduced echelon form.
    Degree n needs of degree n-1 only its pivot columns and these letter
    matrices, and the ladder holds no more.

    The only limit is memory, in bytes (_memory_limit_bytes, read once).
    DegreeTooLargeError is raised before a degree whose largest candidate
    block, in two copies, the int64 factors of the products of one block,
    or whose pivot columns and letter matrices (at most c^2 int32 cells
    for c candidates) on top of those of the degree before, would pass
    it; the message names the bytes and the limit.
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
