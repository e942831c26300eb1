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
ladder holds one degree, per block its pivot columns and letter
matrices, and fills a block one product per letter and slot.  A degree
whose held, kept and transient bytes, summed, would pass the memory
limit is refused with DegreeTooLargeError before it is built.
hilbert_coeffs, which total_dimension calls, runs the ladder once per
prime and stops each run at the requested degree or its first zero
rank.  Exact ranks come from the same ladder at enough primes (proof in
hilbert_coeffs).  Tests pin the factorization against the literal sum,
and the ladder against the dense d^n assembly and the exact rank over
Q(zeta_k) of its integer power-basis form: symmetrizer_factorized_exact,
with exact_matrix_as_cyclo and modlin.rank_exact_cyclo, which stay here
as benchmark trace targets (the other oracles are in tests/oracles.py).
"""

from __future__ import annotations

from bisect import bisect_left
import math
import os
import resource
from typing import NamedTuple

import numpy as np

from .modlin import (
    matmul_mod,
    primes_one_mod,
    root_of_unity_mod,
    row_reduce_mod,
)
from .cyclo import euler_phi, reduction_matrix
from .racks import Rack

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
# Braided spaces and monomial operators on tensor powers
# ---------------------------------------------------------------------------


class BraidedSpace:
    """Monomial braided vector space: c(x (x) y) = zeta_k^expo[x, y]
    (target[x, y] (x) x), target a d x d intp array and expo one of
    int64 exponents mod k.

    Construction checks that each row of target is a bijection, else
    raises ValueError, and that the braid equation holds on every basis
    triple, else raises BraidEquationError with the lexicographically
    first triple (x, y, z) that fails.  For a rack braiding the two are
    the rack axioms and the cocycle identity (see racks), which nothing
    else checks.
    """

    def __init__(self, k: int, target, expo):
        self.k = k
        self.target = np.array(target, dtype=np.intp)
        self.expo = np.array(expo, dtype=np.int64) % k
        d = self.dim = len(self.target)
        if self.target.shape != (d, d) or self.expo.shape != (d, d):
            raise ValueError("braiding tables have inconsistent shapes")
        bad = np.flatnonzero(
            (np.sort(self.target, axis=1) != np.arange(d)).any(axis=1))
        if len(bad):
            raise ValueError(
                f"left translation by basis {bad[0]} not bijective")
        lperm, lexpo = word_operator(self, 3, (1, 2, 1))
        rperm, rexpo = word_operator(self, 3, (2, 1, 2))
        bad = np.flatnonzero((lperm != rperm) | (lexpo != rexpo))
        if len(bad):
            bad = int(bad[0])
            raise BraidEquationError((bad // (d * d), bad // d % d, bad % d))

    def braid_letter(self, n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The operator of sigma_i on the n-fold tensor power."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for {n} strands")
        d = self.dim
        idx = np.arange(d ** n, dtype=np.int64)
        stride_x = d ** (n - i)
        stride_y = d ** (n - i - 1)
        x = idx // stride_x % d
        y = idx // stride_y % d
        base = idx - x * stride_x - y * stride_y
        return (base + self.target[x, y] * stride_x + x * stride_y,
                self.expo[x, y])


def compose(size: int, k: int, ops) -> tuple[np.ndarray, np.ndarray]:
    """The product ops[0] ops[1] ... of monomial operators on a basis of
    `size` vectors, the last applied first.  An operator is the pair
    (perm, expo) of int64 arrays of e_j -> zeta_k^expo[j] e_perm[j]."""
    perm = np.arange(size, dtype=np.int64)
    expo = np.zeros(size, dtype=np.int64)
    for p, e in ops:
        perm, expo = perm[p], (e + expo[p]) % k
    return perm, expo


def word_operator(V: BraidedSpace, n: int, word
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Operator of a positive braid word (letter i for sigma_i)."""
    return compose(V.dim ** n, V.k, [V.braid_letter(n, i) for i in word])


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def braiding_from_rack(X: Rack, q: np.ndarray) -> BraidedSpace:
    """c(x (x) y) = (-1)^q[x, y] (x > y) (x) x on the free space on X.

    The braid equation that BraidedSpace checks on every basis triple is
    then self-distributivity of X and the rack cocycle identity
    q(x, y > z) + q(y, z) = q(x > y, x > z) + q(x, z) (Andruskiewitsch-
    Grana, From racks to pointed Hopf algebras, 2003): on x (x) y (x) z,
    c1 c2 c1 and c2 c1 c2 reach (x > (y > z)) (x) (x > y) (x) x and
    ((x > y) > (x > z)) (x) (x > y) (x) x, with the exponents
    q(x, y) + q(x, z) + q(x > y, x > z) and q(y, z) + q(x, y > z) + q(x, y).
    So a table that is not a rack, or a q that is not a cocycle on it,
    raises BraidEquationError, and its witness is the lexicographically
    first triple (x, y, z) that fails.
    """
    return BraidedSpace(2, X.act, q)


# ---------------------------------------------------------------------------
# Symmetrizer assembly
# ---------------------------------------------------------------------------


def symmetrizer_factorized_exact(V: BraidedSpace, n: int) -> np.ndarray:
    """Counts per zeta power, as an (N, N, k) array over Z[x]/(x^k - 1),
    of the symmetrizer assembled by the coset factorization; reduce with
    exact_matrix_as_cyclo for canonical comparisons.

    Test oracle, with exact_matrix_as_cyclo and modlin.rank_exact_cyclo,
    for the exact ranks of hilbert_coeffs."""
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
        for t in range(m):  # lifts of the coset minima (m-1, ..., t+1)
            perm, expo = word_operator(V, m, tuple(range(m - 1, t, -1)))
            a, b = perm // d, perm % d
            for e in range(k):
                sel = cols[expo == e]
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
    """Rank of the quantum symmetrizer in one degree, over the primes of
    the run; `agreed` says whether they proved or agreed on it."""

    degree: int
    rank: int
    primes: tuple[int, ...]
    agreed: bool


def _mem_available() -> int:
    """MemAvailable of /proc/meminfo in bytes, or physical memory where
    the kernel does not report it."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def memory_limit_bytes() -> int:
    """The memory the kernel will give, or the soft address-space limit
    if that is lower."""
    avail = _mem_available()
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return avail if soft == resource.RLIM_INFINITY else min(avail, soft)


class _Level:
    """One degree n of the ladder, block by block (see ladder_ranks_iter).

    Row l of `grades` is the grade of block l, labelled as grades occur;
    `label` maps its bytes back to l.  down[l, a] labels, at degree n - 1,
    the block phi_a^-1 o grades[l], or is len(rank) there, a block of rank
    0, if no candidate reached it.  Slot (a, j), letter a and the j-th
    pivot of block down[l, a], is row off[l, a] + j of block l, and
    candidate (x, j), x times that pivot, is column off[l, x] + j.  Block
    l of c candidates and rank r keeps, in int32, its pivot columns
    basis[l] (c x r) and the non-pivot columns letters[l] (r x (c - r))
    of its reduced echelon form, whose columns pivots[l] are units.
    """

    def __init__(self, grades, label, down, off):
        self.grades, self.label, self.down, self.off = grades, label, down, off
        self.rank = np.zeros(len(grades), dtype=np.int64)
        self.basis, self.letters, self.pivots = [], [], []


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
        self.limit = memory_limit_bytes()
        # grades are permutations in the smallest integer type of a letter
        self.tgt = V.target.astype(np.min_scalar_type(d))
        self.tinv = np.argsort(self.tgt, axis=1).astype(self.tgt.dtype)
        self.target = V.target.tolist()
        self.zeta = [[pow(omega, e, p) for e in row]
                     for row in V.expo.tolist()]
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
        # the memory of degree n: degree n - 1 is held until it is built;
        # a block of c candidates and rank r keeps c r + r (c - r) <= c^2
        # int32 cells and r pivots, Python ints of at most 40 bytes; the
        # largest block is built as c x c int64 cells, which elimination
        # copies and works on in two more copies of its rows; a product
        # multiplies r1 x r2 cells of L_x by r2 x r1 pivot rows, r1 and r2
        # the largest block ranks of degrees n - 1 and n - 2, copies those
        # rows in int32 and hands them to matmul_mod, which holds both
        # factors in int64, at most six limbs of each (p < 2^31, 2^13
        # inner terms) in int64 and float64, and four r1 x r1 products
        held = sum(a.nbytes for a in prev.basis + prev.letters) + 40 * int(
            prev.rank.sum())
        keep = 4 * int((sizes ** 2).sum()) + 40 * int(sizes.sum())
        size = int(sizes.max())
        block = 32 * size * size
        r1, r2 = int(prev.rank.max()), int(np.diff(prev.off).max())
        product = 8 * (27 * r1 * r2 + 4 * r1 * r1)
        need = held + keep + block + product
        if need > self.limit:
            raise DegreeTooLargeError(
                f"degree {n} needs {need} bytes: {held} held by degree "
                f"{n - 1}, up to {keep} kept, {block} to build and eliminate "
                f"its largest block, c = {size}, and {product} for one "
                f"product, memory limit {self.limit}")
        level = _Level(grades, label, down, off)
        below, prev_off = below.tolist(), prev.off.tolist()
        slots = [[(y, o[y], o[y + 1]) for y in range(d) if o[y + 1] > o[y]]
                 for o in prev_off]
        for l, size in enumerate(sizes.tolist()):
            cols = self._block(prev, below, prev_off, slots, down[l].tolist(),
                               off[l].tolist())
            red, piv = row_reduce_mod(cols.copy(), self.p)
            pivot = np.zeros(size, dtype=bool)
            pivot[piv] = True
            level.basis.append(cols[:, piv].astype(np.int32))
            level.letters.append(red[:len(piv), ~pivot].astype(np.int32))
            level.pivots.append(piv)
            level.rank[l] = len(piv)
        self.level, self.degree = level, n
        return int(level.rank.sum())

    def _block(self, prev: _Level, below, prev_off, slots, down,
               off) -> np.ndarray:
        """Columns of S_n at the candidates of the block of degree n whose
        rows of down and off are given, in slot coordinates.

        The column at x w_j is e_x (x) [w_j] plus (Phi_x (x) L_x) of the
        column at w_j: slot y of it goes through zeta^expo[x][y] L_x, the
        letter-x columns of block t = down[x > y] of degree n - 1, to slot
        x > y.  Those columns are units where they are pivots of t, which
        copy rows of the slot, and a slice of the letter matrices of t
        elsewhere, which multiplies the other rows.  Entries stay below
        2 p^2 < 2^63 until the one reduction mod p.
        """
        p, size = self.p, off[-1]
        letters, pivots = prev.letters, prev.pivots
        out = np.zeros((size, size), dtype=np.int64)
        for x, h in enumerate(down):
            if not below[h] or not slots[h]:
                continue
            tx, zx, basis = self.target[x], self.zeta[x], prev.basis[h]
            left, right = off[x], off[x + 1]
            for y, lo, hi in slots[h]:
                t = down[tx[y]]
                if not below[t]:
                    continue
                at, piv = prev_off[t], pivots[t]
                a, b = at[x], at[x + 1]
                i = bisect_left(piv, a)
                j = bisect_left(piv, b, i)
                top, rows = off[tx[y]], basis[lo:hi]
                dest = out[top:top + below[t], left:right]
                unit = [c - a for c in piv[i:j]]
                if len(unit) < b - a:   # the letter columns multiply
                    other = rows.take(sorted(set(range(b - a)).difference(
                        unit)), axis=0) if unit else rows
                    dest[:] = matmul_mod(letters[t][:, a - i:b - j], other, p)
                if unit:        # the pivot columns are units, rows i .. j - 1
                    dest[i:j] += rows.take(unit, axis=0)
                if zx[y] != 1:
                    dest *= zx[y]
        out.ravel()[::size + 1] += 1
        out %= p
        return out


def ladder_ranks_iter(V: BraidedSpace, p: int, omega: int):
    """Yield (degree, rank) over GF(p) for degrees 0, 1, 2, ...
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

    The only limit is memory, in bytes: the smaller of what the kernel
    reports available and the soft address-space limit
    (memory_limit_bytes, read once).  DegreeTooLargeError is raised
    before a degree if the sum would pass it of the pivot columns and
    letter matrices of the degree before, its own (at most c^2 int32
    cells for c candidates), its largest block with elimination's copies,
    and one product with matmul_mod's working copies; the message names
    each part and the limit.
    """
    d = V.dim
    yield 0, 1
    yield 1, d
    ladder = _SpanLadder(V, p, omega)
    n, rank = 1, d
    while rank:
        n += 1
        rank = ladder.extend()
        yield n, rank


def _ranks_at(runs, n: int) -> list[int]:
    """Degree-n rank of each run; a run that stopped at zero reads zero."""
    return [ranks[n] if n < len(ranks) else 0 for _, ranks in runs]


def hilbert_coeffs(V: BraidedSpace, dmax: int, mode: str = "modular"
                   ) -> list[SymmetrizerReport]:
    """Per-degree symmetrizer ranks for degrees 0..dmax, or through the
    first degree where they are all 0 if that comes first.

    Both modes run the ladder over GF(p), p = 1 (mod k), once per prime,
    each run through dmax or its first zero rank, and report per degree
    the largest rank over the runs (a rank mod p never exceeds the rank
    over the field).  Modular mode uses PRIME_COUNT primes, `agreed`
    saying whether they gave the same rank.

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
    exact = mode == "exact"
    phi, runs, bound = euler_phi(V.k), [], 0
    while len(runs) < PRIME_COUNT or exact and math.prod(
            p for p, _ in runs) <= bound:
        p = primes_one_mod(V.k, count=len(runs) + 1)[-1]
        ranks = []
        for n, rank in ladder_ranks_iter(V, p, root_of_unity_mod(p, V.k)):
            ranks.append(rank)
            if n == dmax:
                break
        runs.append((p, ranks))
        if exact:   # Hadamard's bound on |N(D)|, r the largest rank so far
            bound = max(
                math.factorial(n) ** ((max(_ranks_at(runs, n)) + 1) * phi)
                for n in range(dmax + 1))
    primes = tuple(p for p, _ in runs)
    reports = []
    for n in range(max(len(ranks) for _, ranks in runs)):
        vals = _ranks_at(runs, n)
        reports.append(SymmetrizerReport(
            degree=n, rank=max(vals), primes=primes,
            agreed=exact or len(set(vals)) == 1))
    return reports


def total_dimension(V: BraidedSpace):
    """(total dimension, reports) by summing ranks until one vanishes.

    A graded algebra generated in degree one dies for good once a degree
    vanishes, so the first zero rank certifies termination.  Modular
    mode; each degree reports the largest rank over the primes, `agreed`
    False where they differ, and a prime whose ladder vanished earlier
    counts as zero in the later degrees.
    """
    reports = hilbert_coeffs(V, MAX_TOTAL_DEGREE)
    if reports[-1].rank:
        raise DegreeTooLargeError(
            f"no vanishing degree found below {MAX_TOTAL_DEGREE}")
    return sum(r.rank for r in reports), reports
