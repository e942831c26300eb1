"""The index-two central extension of W and its canonical section.

The extension is presented on generators t_1..t_l, z with relations
z^2 = (t_i z)^2 = 1 and (t_i t_j)^m_ij = z^(m_ij + 1).  Its regular
permutation representation, the coset table of the trivial subgroup, is
read off W's Cayley graph, one bit per edge.  Its elements are numbered
(w, eps) = w + eps |W|: element w is the lift of w's ShortLex word (t_i
for s_i, no z), and the projection pi to W is the number mod |W|.  The
section of pi is defined on reflections along the reflection conjugacy
graph (see build_section).  The resulting group 2-cocycle (the
z-exponent of rho(xy) rho(y)^-1 rho(x)^-1) is the machine certificate
that the two sign cocycles on reflections are twist equivalent.

Checked at run time: the relators at every point (coset_enumeration),
the numbering of z and of the tree edges (ExtGroup), the section
(build_section), check_vendramin, check_global, the twist and, on the
all-odd groups, the split by the edge bits (twist_certificate).  The
rest is proved where it is used: the group laws (build_wtilde), every
path's value (build_section), phi's identities (phi_rho) and when the
extension splits (twist_certificate); tests/oracles.py checks each.

No product table is built.  Every product the certificate reads is
walked down W's BFS tree from the generator permutations of the
extension (as in Casselman, "Machine calculations in Weyl groups",
1994) and projected to W by the numbering.  The checks walk one length
level at a time, in rows of l or |T| entries.  No |W| x |W| table is
held either: phi is a source of rows (PhiRows), computed a chunk of
rows at a time by the same walk, one column per row.  certify_twist
reads the |T| rows at T.  phi_checksum streams every row: one thread
computes the next chunk, one builds the byte stream in blocks, and the
caller hashes each block while the next is built.  So the largest
tables held are a few int32 rows of |W| per length and two chunks of
phi rows.  The stream's length is known from |W| (checksum_bytes); below
1 MiB it is hashed by the interpreter's built-in sha256, so small
certificates do not load OpenSSL.

Certification failures here are never expected states: they would
falsify either the construction or the mathematics, so they raise with
a serialized counterexample instead of returning False.
"""

from __future__ import annotations

import json
import threading
from typing import NamedTuple

import numpy as np

from .coxeter import GroupTable, RootSystem
from .nichols import memory_limit_bytes
from .racks import (
    cohomologous_solve,
    q_minus,
    q_plus,
    q_plus_table,
    reflection_rack,
)


class CertificationError(RuntimeError):
    """A certified identity failed; carries a serialized counterexample."""

    def __init__(self, stage: str, witness):
        self.details = {"stage": stage, "witness": witness}
        super().__init__(f"certification failed at {stage}: {witness}")


# ---------------------------------------------------------------------------
# The coset table
# ---------------------------------------------------------------------------


def coset_enumeration(g: GroupTable) -> list[np.ndarray]:
    """The coset table of the trivial subgroup of the presented extension.

    Returns, per generator t_0..t_(l-1), z, its right-multiplication
    permutation of the 2|W| elements, (w, eps) numbered w + eps |W|.

    The table is read off W's Cayley graph instead of enumerated.  Let
    (w, 0) be the lift of w's ShortLex word.  Then t_i maps (w, eps) to
    (w s_i, eps + c[w, i]) and z flips eps, for bits c on the edges
    {w, w s_i}, so c[w, i] = c[w s_i, i].  ShortLex tree edges get c = 0.
    The relator (t_i t_j)^m z^-(m+1) closes around the 2m-gon w<s_i, s_j>
    exactly when the bits on its edges sum to m + 1 (mod 2).  An edge off
    the tree joins some v to v s_i one length level lower, where i and
    j, the last ShortLex letter of v, are both descents of v.  Then v is
    the top of its (i, j) coset, and every edge of that 2m-gon but
    (v, v s_i) is the tree edge (v s_j, v) or lies below v's level.  So,
    one length level at a time, c[v, i] is set to the bit that closes
    the 2m-gon.  A level's bits read only lower levels, so all its
    (v, i) are set in one pass: the walks run in step up to the level's
    largest m, each pair counting only its own 2m - 2 edges.

    Every relator is then checked at every point.  That makes this the
    regular representation of the presented group P, the table that
    coset enumeration returns up to numbering: P maps onto W with kernel
    <z> (z is central), so |P| <= 2|W|.  The permutations satisfy the
    relators, so P acts through them, and the action is transitive on
    the 2|W| points: ExtGroup checks that the tree edges reach every
    (w, 0) from the identity and that z maps (w, 0) to (w, 1).  A
    transitive action of a group of order at most 2|W| on 2|W| points
    is regular.
    """
    n, l = g.order, g.rank
    rmult, length = g.rmult, g.length_arr
    matrix = np.array(g.matrix.rows)
    # [v, i]: l(v s_i) < l(v) and s_i is not v's last letter
    off_tree = (length[rmult] < length[:, None]) & (
        np.arange(l) != g.last[:, None])
    c = np.zeros((n, l), dtype=np.uint8)
    bounds = np.searchsorted(length, np.arange(length[-1] + 2))
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        top, i = np.nonzero(off_tree[lo:hi])
        top += lo
        j = g.last[top]
        m = matrix[i, j]
        bit = ((m + 1) % 2).astype(np.uint8)
        steps = 2 * m - 2
        x = rmult[top, i]
        for k in range(steps.max(initial=0)):     # v s_i around to v s_j
            s = j if k % 2 == 0 else i
            bit ^= c[x, s] & (k < steps)
            x = rmult[x, s]
        c[top, i] = c[rmult[top, i], i] = bit

    perms = np.empty((l + 1, 2 * n), dtype=np.int32)
    for i in range(l):
        img = np.where(c[:, i], rmult[:, i] + n, rmult[:, i])
        perms[i] = np.concatenate([img, (img + n) % (2 * n)])
    perms[l] = np.roll(np.arange(2 * n, dtype=np.int32), -n)
    # z^2 first, so that z^-1 = z in the relators after it
    words = [(l, l)] + [(i, l, i, l) for i in range(l)] + [
        (i, j) * m + (l,) * (m + 1) for i in range(l) for j in range(i, l)
        for m in [g.matrix.entry(i, j)]]
    points = np.arange(2 * n)
    for word in words:
        x = points
        for h in word:
            x = perms[h][x]
        if not np.array_equal(x, points):
            raise AssertionError("relator does not close on the coset table")
    return list(perms)


# ---------------------------------------------------------------------------
# The extension group in its regular representation
# ---------------------------------------------------------------------------


class ExtGroup:
    """The extension as the right action of its generators on itself.

    gen_perms[h, c] is c times generator h, generators t_0..t_(l-1),
    then z.  The elements are numbered (w, eps) = w + eps |W| for w in
    W, eps in {0, 1}: element w is the lift of w's ShortLex word and
    w + |W| is w z.  The constructor checks that numbering: the order is
    2|W|, z adds |W| mod 2|W|, and every ShortLex tree edge u = v s_i
    of W maps v to u by t_i, with no z.  tconj[i, c] = t_i c t_i.
    """

    def __init__(self, gen_perms: list[list[int]], g: GroupTable):
        self.gen_perms = np.array(gen_perms, dtype=np.int32)
        self.ngens, self.order = self.gen_perms.shape
        self.nt = g.rank                   # number of t-generators
        n = g.order
        if self.order != 2 * n:
            raise AssertionError(
                f"extension has order {self.order}, expected {2 * n}")
        points = np.arange(2 * n)
        if not np.array_equal(self.gen_perms[self.nt], (points + n) % (2 * n)):
            raise AssertionError("z is not numbered (w, eps) -> (w, eps + 1)")
        if not np.array_equal(self.gen_perms[g.last[1:], g.parent[1:]],
                              points[1:n]):
            raise AssertionError("a ShortLex tree edge is not numbered (w, 0)")
        # left multiplication by each t_i: t_i (v s) = (t_i v) t_s and
        # t_i (w z) = (t_i w) z; then t_i c t_i = (t_i c) t_i
        walk = _tree_walk(g, self.gen_perms[:self.nt, 0], self.gen_perms)
        left = np.concatenate([block for _, _, block in walk]).T
        left = np.concatenate([left, self.gen_perms[self.nt][left]], axis=1)
        self.tconj = np.take_along_axis(self.gen_perms[:self.nt], left, axis=1)


def _tree_walk(g: GroupTable, start: np.ndarray, table: np.ndarray):
    """Carry a row of values down W's BFS tree, one length level at a time.

    Yields (lo, hi, block) per level, block[k] the row at element lo + k:
    `start` at the identity, then table[i] of the parent's row for the
    elements u = parent * s_i.  Only one level is held, and each level
    is a new array.
    """
    flat, width = table.ravel(), np.int32(table.shape[1])
    bounds = np.searchsorted(g.length_arr, np.arange(g.length_arr[-1] + 2))
    block = start[None]
    yield 0, 1, block
    for prev, lo, hi in zip(bounds[:-2], bounds[1:-1], bounds[2:]):
        block = np.take(block, g.parent[lo:hi] - prev, axis=0)
        block += g.last[lo:hi, None] * width    # into row i of table
        # the indices are in range; "clip" only keeps np.take from
        # buffering `out`, which is the index array, as "raise" does
        np.take(flat, block, out=block, mode="clip")
        yield lo, hi, block


def build_wtilde(g: GroupTable) -> ExtGroup:
    """The extension in its regular representation, numbered (w, eps).

    The relators and ExtGroup's numbering force the group laws, so
    nothing rechecks them.  z = |W| is not the identity (ExtGroup).
    z^2 = 1, and then (t_i t_i)^1 z^2 = 1 makes each t_i an involution,
    so (t_i z)^2 = 1 says t_i z = z t_i: z is central.  pi: w + eps |W|
    -> w is a homomorphism, t_i -> s_i and z -> 1, by construction: t_i
    maps (w, eps) to (w s_i, eps + c[w, i]) and z to (w, eps + 1), so
    pi(x h) = pi(x) pi(h) for a generator h, and for all h by induction
    on words.  Its kernel is {1, z}.
    """
    return ExtGroup(coset_enumeration(g), g)


# ---------------------------------------------------------------------------
# The section and its certificates
# ---------------------------------------------------------------------------


class GroupCocycle2(NamedTuple):
    """Group 2-cocycle on W with values in {1, z}, as z-exponents.

    `table` is a |W| x |W| source of rows: `shape`, `size`, `chunk` and
    rows(xs), the (len(xs), |W|) uint8 rows at xs.  phi_checksum reads
    it `chunk` rows at a time.
    """

    table: PhiRows


def build_section(g: GroupTable, ext: ExtGroup) -> np.ndarray:
    """The section along the first edge of the reflection conjugacy graph.

    An edge x --s_i--> y joins reflections with y = s_i > x and
    l(y) = l(x) - 2; row s_i of conj_refl_table holds s_i > x.
    rho(s_i) = t_i, and the first edge x --s_i--> y of a deeper
    reflection, smallest i first, gives rho(x) = t_i rho(y) t_i z.  Off
    the reflections rho lifts the ShortLex word with no z: it is element
    w (rho(1) = 1).

    Once check_vendramin passes, every path gives rho(x).  A path's value
    is t_j at its end s_j, and tconj[s, value of the rest] z one edge
    x --s--> y up.  By induction on l(x): t_j = rho(s_j) is element s_j
    (ExtGroup's numbering); one edge up, the value is tconj[s, rho(y)] z,
    and check_vendramin at (s, y) (s != y, as l(x) = l(y) + 2) says
    tconj[s, rho(y)] = rho(x) z.  The tests recompute every path.
    """
    zp = ext.gen_perms[ext.nt]
    elems = g.refl_elems
    length = g.length_arr[elems]
    conj = g.conj_refl_table()[g.rmult[0]]     # [i, x]: s_i > x
    down = length[conj] == length - 2
    rho = np.arange(g.order, dtype=np.int32)
    # reflections are numbered by element id, so y comes before x
    for x in np.flatnonzero(length > 1):
        if not down[:, x].any():
            raise AssertionError(
                "non-simple reflection with no length-decreasing edge")
        i = int(down[:, x].argmax())
        rho[elems[x]] = zp[ext.tconj[i, rho[elems[conj[i, x]]]]]
    if not np.array_equal(rho % g.order, np.arange(g.order)):
        raise AssertionError("rho is not a section of the projection")
    return rho


def check_vendramin(g: GroupTable, ext: ExtGroup, rho: np.ndarray):
    """Verify rho(s) > rho(y) = rho(s > y) z^[s != y] over S x T.

    rho(s_i) and t_i both project to s_i, so conjugating by either is
    the same (see check_global): one gather of tconj[i] per generator.
    Returns None on success, else the witness pair (s, y) as element ids.
    """
    zp = ext.gen_perms[ext.nt]
    refl_elems = g.refl_elems
    conj_refl = g.conj_refl_table()
    for i in range(g.rank):
        s = 1 + i                        # s_i's element id
        lhs = ext.tconj[i, rho[refl_elems]]
        rhs = rho[refl_elems[conj_refl[s]]]
        rhs = np.where(refl_elems != s, zp[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            t = int(np.nonzero(lhs != rhs)[0][0])
            return (s, int(refl_elems[t]))
    return None


def check_global(g: GroupTable, ext: ExtGroup, rho: np.ndarray):
    """Verify rho(w) > rho(y) = (q+/q-)(w, y) rho(w > y) over all W x T.

    Conjugation by e depends only on pi(e): the kernel is {1, z} and z
    is central (see build_wtilde).  The walk down W's BFS tree visits
    u = u' s_i, so w = u^-1 = s_i w' with w' = u'^-1, and t_i rho(w')
    projects to w: conjugation by rho(w) is tconj[i] of the parent's
    block, which starts from rho at the identity.  Element ids increase
    with length and w^-1 has w's length, so the level of length L holds
    exactly the w of length L.  Returns None on success, else the first
    witness (w, y) in row-major order: the levels come in order of the
    ids they hold, so it is the smallest mismatch of the first level
    that has one.

    A pass also makes e = q+ - q- W-equivariant on W x W x T,
    e(w1 w2, y) = e(w1, w2 > y) + e(w2, y): conjugation by rho(w1 w2) is
    conjugation by rho(w1) rho(w2), as the two differ by the central z,
    and the check turns both sides into z-exponents over rho(w1 w2 > y).
    q- = det is multiplicative, so q+ is equivariant as well.
    """
    zp = ext.gen_perms[ext.nt]
    refl_elems = g.refl_elems
    conj_refl = g.conj_refl_table()
    qp = q_plus_table(g)
    parity = (g.length_arr % 2).astype(np.uint8)
    for lo, hi, lhs in _tree_walk(g, rho[refl_elems], ext.tconj):
        xs = g.inv_arr[lo:hi]
        rhs = rho[refl_elems[conj_refl[xs]]]
        rhs = np.where(qp[xs] ^ parity[xs, None], zp[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            k, t = np.nonzero(lhs != rhs)
            w, t = min(zip(xs[k].tolist(), t.tolist()))
            return (w, int(refl_elems[t]))
    return None


PHI_LEVEL_BYTES = 1 << 18   # int32 bytes of the widest level of a phi chunk


class PhiRows:
    """phi(x, y) = rho(xy) rho(y)^-1 rho(x)^-1 as a |W| x |W| row source.

    No table of phi is held: rows(xs) computes the rows at xs by walking
    y down W's BFS tree (_tree_walk) with one column per x.  rho(y) =
    y z^f(y), y the lift of y's ShortLex word, f(y) = [rho(y) >= |W|],
    so the entry rho(x) y at y is gen_perms[last letter of y] of the
    parent's entry, starting from rho(x) at the identity.  It projects
    to xy, and rho(x) rho(y) = rho(xy) z^phi(x, y): phi(x, y) is f(y)
    plus whether rho(x) y differs from rho(xy), read from a table over
    the 2|W| elements.  A chunk of `chunk` rows keeps its widest level
    near PHI_LEVEL_BYTES of int32 entries: gathers from blocks of that
    size were the fastest on F4 and H4 (larger blocks leave the cache,
    smaller ones pay numpy's per-call cost).  It is also at most an
    eighth of W, so phi_checksum's threads overlap on small groups too.
    """

    def __init__(self, g: GroupTable, ext: ExtGroup, rho: np.ndarray):
        n = g.order
        self.g, self.gen_perms, self.rho = g, ext.gen_perms, rho
        elems = np.arange(2 * n)
        self.differ = (elems != rho[elems % n]).astype(np.uint8)
        self.flip = (rho >= n).astype(np.uint8)[:, None]
        self.shape, self.size = (n, n), n * n
        widest = int(np.bincount(g.length_arr).max())
        self.chunk = max(1, min(-(-n // 8), PHI_LEVEL_BYTES // (4 * widest)))

    def rows(self, xs) -> np.ndarray:
        """phi(x, y) for x in xs (rows) and every y (columns), uint8; a
        transposed view of the y-major array the walk fills."""
        out = np.empty((self.shape[0], len(xs)), dtype=np.uint8)
        for lo, hi, block in _tree_walk(self.g, self.rho[xs],
                                        self.gen_perms):
            np.take(self.differ, block, out=out[lo:hi], mode="clip")
            out[lo:hi] ^= self.flip[lo:hi]
        return out.T


def phi_rho(g: GroupTable, ext: ExtGroup, rho: np.ndarray) -> GroupCocycle2:
    """The z-exponent cocycle phi(x, y) = rho(xy) rho(y)^-1 rho(x)^-1, as
    rows computed on demand (PhiRows); nothing of |W|^2 is built here.

    phi needs no check of its own; what it rests on is checked in
    O(|W|).  The relators close at every point (coset_enumeration), so
    the extension is a group acting regularly on its 2|W| elements.  pi
    is a homomorphism with kernel {1, z} (ExtGroup, build_wtilde), z is
    central, and pi rho = id (build_section).  So rho(x) rho(y) and
    rho(xy) both project to xy and differ by an element of the kernel,
    which defines phi.  As z is central of order two, two identities
    then hold over all of W x W:
      - the group 2-cocycle identity
        phi(xy, w) + phi(x, y) = phi(x, yw) + phi(y, w): both sides are
        the z-exponent of (rho(x) rho(y)) rho(w) = rho(x) (rho(y) rho(w))
        over rho(xyw);
      - the conjugation identity
        rho(x) > rho(y) = rho(x > y) z^(phi(x, y) + phi(x > y, x)):
        (x > y) x = xy, so rho(xy) = rho(x > y) rho(x) z^phi(x > y, x),
        and rho(x) rho(y) rho(x)^-1 = rho(xy) z^phi(x, y) rho(x)^-1.
    The tests check both against the dense-table oracles.
    """
    return GroupCocycle2(table=PhiRows(g, ext, rho))


def certify_twist(g: GroupTable, phi: GroupCocycle2, qp, qm):
    """Verify q+(x,y) = phi(x,y) phi(x>y,x)^-1 q-(x,y) on T x T, qp and
    qm the |T| x |T| exponent tables of racks.q_plus and racks.q_minus.

    Reads only the |T| rows of phi at T: x > y is a reflection.  Returns
    None on success, else the first witness (x, y) in row-major order.
    """
    refl_elems = g.refl_elems
    conj_refl = g.conj_refl_table()[refl_elems]      # [a, b]: x_a > x_b
    rows = phi.table.rows(refl_elems)
    want = rows[:, refl_elems] ^ rows[conj_refl, refl_elems[:, None]] ^ qm
    bad = np.argwhere(qp != want)
    if len(bad):
        a, b = bad[0]
        return (int(refl_elems[a]), int(refl_elems[b]))
    return None


# ---------------------------------------------------------------------------
# Certificate orchestration
# ---------------------------------------------------------------------------


CHECKSUM_BLOCK_BYTES = 1 << 17   # bytes of whole rows per block in phi_checksum
CHECKSUM_BUFFERS = 3             # blocks built or hashed at once
# Streams shorter than this are hashed by the interpreter's built-in
# sha256, longer ones by OpenSSL's.  Loading OpenSSL (hashlib) costs
# about 3.5 MB of RSS and 2.5-5 ms, the built-in module 0.03 MB, and
# OpenSSL then hashes about 4 times faster.  Load included, in fresh
# processes on a 2-vCPU Xeon (medians of 9), built-in against OpenSSL:
# 0.52 MB 2.7 and 3.6 ms, 1 MiB 5.0 and 4.3 ms, 1.5 MB 9.9 and 5.7 ms,
# 13.4 MB (F4) 59 and 15 ms.  Time breaks even below 0.8 MB; up to 1 MiB
# the built-in costs under a millisecond more and saves the 3.5 MB.
OPENSSL_CHECKSUM_BYTES = 1 << 20


def phi_checksum(phi: GroupCocycle2) -> str:
    """Order-independent digest: sha256 over the sorted (x, y, bit) lines.

    The byte stream is the concatenation of f"{x},{y},{bit}\\n" over x,
    then y, checksum_bytes(|W|) bytes long.  A stream shorter than
    OPENSSL_CHECKSUM_BYTES is hashed by the interpreter's built-in
    sha256, a longer one by OpenSSL's (_sha256_for); both compute the
    same function.  Three threads share the work: one computes phi's
    rows a chunk ahead, one builds the stream from them in blocks
    (_checksum_blocks), and this one hashes each block while the next is
    built (_ahead).  OpenSSL's sha256 and numpy's gathers release the
    GIL.
    """
    h = _sha256_for(checksum_bytes(phi.table.shape[0]))
    blocks = _ahead(_checksum_blocks(phi.table), CHECKSUM_BUFFERS - 1,
                    "phi_checksum-text")
    try:
        for block in blocks:
            h.update(block)
    finally:
        blocks.close()
    return h.hexdigest()


def _sha256_for(nbytes: int):
    """A new sha256 for a stream of nbytes: the built-in one (_sha2 from
    Python 3.12, _sha256 before) below OPENSSL_CHECKSUM_BYTES, else, or
    when neither imports, hashlib's, which loads OpenSSL."""
    # imported here, as only certify hashes
    if nbytes < OPENSSL_CHECKSUM_BYTES:
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
    else:
        from hashlib import sha256
    return sha256()


def _digit_runs(n: int) -> list[tuple[int, int, int]]:
    """(lo, hi, d): the numbers lo <= v < hi below n have d digits."""
    return [(10 ** (d - 1) if d > 1 else 0, min(n, 10 ** d), d)
            for d in range(1, len(str(n - 1)) + 1)]


def checksum_bytes(n: int) -> int:
    """The length of phi_checksum's stream for |W| = n: each of the n^2
    lines "x,y,b\\n" has the digits of x and y and 4 more bytes, so
    2 n D + 4 n^2 with D the digits of 0 .. n - 1."""
    digits = sum((hi - lo) * d for lo, hi, d in _digit_runs(n))
    return 2 * n * digits + 4 * n * n


def _ascii_digits(v: np.ndarray, width: int) -> np.ndarray:
    """Rows of the `width` decimal digits of each v, as ASCII bytes."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    return (v[:, None] // powers % 10 + ord("0")).astype(np.uint8)


def _checksum_blocks(table):
    """Yield phi_checksum's byte stream in blocks of whole rows x.

    The rows come from table.rows, table.chunk consecutive rows at a
    time, the next chunk computed on a thread of its own while this one
    is used; a block ends where a chunk does.  Rows whose x has dx digits
    are laid out alike: for each digit count dy of y, a run of records
    "x,y,b\\n" of one record dtype, with fields for the dx digits of x,
    ",y,", the bit and the newline.  CHECKSUM_BUFFERS buffers of about
    CHECKSUM_BLOCK_BYTES, and at least four rows, take turns, so a block
    may be hashed while the next is built.  They start as copies of one
    template row, and a block only writes the x digits and the bits.
    """
    n = table.shape[0]
    runs = _digit_runs(n)
    chunks = _ahead(((c0, table.rows(np.arange(c0, min(n, c0 + table.chunk))))
                     for c0 in range(0, n, table.chunk)), 1, "phi_checksum-rows")
    c0 = c1 = k = 0             # the chunk holds rows c0 .. c1 - 1
    try:
        for x0, x1, dx in runs:
            recs = [np.dtype([("x", "u1", dx), ("y", "u1", dy + 2),
                              ("bit", "u1"), ("nl", "u1")])
                    for _, _, dy in runs]
            offsets = np.cumsum([0] + [(hi - lo) * rec.itemsize for
                                       (lo, hi, _), rec in zip(runs, recs)])
            template = np.empty(offsets[-1], dtype=np.uint8)
            for (lo, hi, dy), a, b, rec in zip(runs, offsets, offsets[1:],
                                               recs):
                view = template[a:b].view(rec)
                view["y"] = ord(",")
                view["y"][:, 1:-1] = _ascii_digits(np.arange(lo, hi), dy)
                view["nl"] = ord("\n")
            # at least four rows, as a block costs about 30 numpy calls,
            # and no more than a chunk, where a block ends anyway
            rows = min(x1 - x0, table.chunk,
                       max(4, CHECKSUM_BLOCK_BYTES // template.size))
            buffers = []
            for _ in range(CHECKSUM_BUFFERS):
                buf = np.broadcast_to(template, (rows, template.size)).copy()
                buffers.append((buf, [buf[:, a:b].view(rec) for a, b, rec
                                      in zip(offsets, offsets[1:], recs)]))
            del template
            r0 = x0
            while r0 < x1:
                if r0 == c1:
                    chunk = None        # not held while the next is taken
                    c0, chunk = next(chunks)
                    c1 = c0 + len(chunk)
                r1 = min(r0 + rows, x1, c1)
                buf, views = buffers[k % CHECKSUM_BUFFERS]
                k += 1
                xd = _ascii_digits(np.arange(r0, r1), dx)
                bits = chunk[r0 - c0:r1 - c0]
                for (lo, hi, _), view in zip(runs, views):
                    view = view[:r1 - r0]
                    for j in range(dx):     # one digit at a time: long loops
                        view["x"][..., j] = xd[:, j, None]
                    np.add(bits[:, lo:hi], ord("0"), out=view["bit"])
                yield buf[:r1 - r0]
                r0 = r1
    finally:
        chunks.close()


def _ahead(items, depth: int, name: str):
    """Yield what the generator `items` yields, produced on a thread
    named `name` up to `depth` items ahead of the caller.

    An item is held from when it is produced until the caller asks for
    the one after it, and at most `depth` are held, so `items` may build
    item k + depth + 1 in item k's storage.  An error `items` raises is
    raised here, in order.  On return, error or close the thread is
    stopped, after at most `depth` more items, and joined, and `items`
    is closed.
    """
    # only certify runs threads; the C class queue.SimpleQueue re-exports,
    # without the 0.6 ms and 120 KB of importing queue itself
    from _queue import SimpleQueue

    handed, room = SimpleQueue(), SimpleQueue()    # room: a token per item
    for _ in range(depth):
        room.put(True)

    def produce():
        try:
            for item in items:
                if not room.get():      # False: the caller has stopped
                    return
                handed.put((item, None))
            handed.put((None, None))
        except BaseException as exc:    # raised again on the caller's thread
            handed.put((None, exc))

    worker = threading.Thread(target=produce, name=name, daemon=True)
    worker.start()
    try:
        while True:
            item, error = handed.get()
            if error is not None:
                raise error
            if item is None:
                return
            yield item
            room.put(True)
    finally:
        room.put(False)
        worker.join()
        items.close()


def certified_section(g: GroupTable) -> tuple[ExtGroup, np.ndarray]:
    """The extension and its section, once check_vendramin and
    check_global pass; raises CertificationError otherwise.

    The checks certify the twist: on T x T, check_global says
    rho(x) > rho(y) = z^(q+(x, y) + q-(x, y)) rho(x > y) (exponents mod
    2), and phi_rho's conjugation identity gives the exponent
    phi(x, y) + phi(x > y, x), the identity certify_twist checks.  So
    S_n^+ = D_n S_n^- D_n, D_n(u) = (-1)^(sum_k phi(u_1 ... u_(k-1), u_k))
    on words u of length n, and the two symmetrizers have equal ranks
    over every field of characteristic not 2, on every subrack too.
    Proof: sigma_i maps (..., x, y, ...) to (..., x > y, x, ...), and
    (x > y) x = x y, so only the prefix products at the pair change.
    With g the product before x, D_n changes by phi(g, x) + phi(g x, y)
    + phi(g, x > y) + phi(g (x > y), x) = phi(x, y) + phi(x > y, x) by the
    2-cocycle identity (phi_rho): the sign by which sigma_i^+ and
    sigma_i^- differ.  This is the twisting of a Yetter-Drinfeld module
    by a group 2-cocycle (Majid-Oeckl, 1999; Andruskiewitsch-Fantino-
    Garcia-Vendramin, 2011), read in the word basis.
    """
    ext = build_wtilde(g)
    rho = build_section(g, ext)
    witness = check_vendramin(g, ext, rho)
    if witness is not None:
        raise CertificationError("vendramin", list(witness))
    witness = check_global(g, ext, rho)
    if witness is not None:
        raise CertificationError("global", list(witness))
    return ext, rho


def require_certify_memory(roots: RootSystem) -> int:
    """Raise MemoryError, before W is built, when twist_certificate's
    working set would not fit; return the bytes it counts.

    The stages hold a few int32 rows of |W| per length: the reflection
    conjugation table (the longest length is |T| = R), the checks' level
    blocks and the extension's generator arrays; 16 bytes per element of
    W and per length 0..R cover them.  phi is never held.  phi_checksum
    holds two chunks of m rows of it (one read, the next computed), m |W|
    bytes each, and the walk of a chunk two int32 level blocks of m
    times the widest level w.  m w is at most PHI_LEVEL_BYTES / 4 unless
    m = 1, and w >= |W| / (R + 1), so a chunk is at most |W| +
    PHI_LEVEL_BYTES (R + 1) / 4 bytes and a level block PHI_LEVEL_BYTES
    + 4 |W|.
    The text adds CHECKSUM_BUFFERS buffers and a template row, each of
    CHECKSUM_BLOCK_BYTES or four rows of at most |W| (2 d + 4) bytes,
    d the digits of |W| - 1."""
    n, R = roots.order, roots.nroots
    chunks = 2 * (n + PHI_LEVEL_BYTES * (R + 1) // 4)
    levels = 2 * (4 * n + PHI_LEVEL_BYTES)
    row = n * (2 * len(str(n - 1)) + 4)
    text = (CHECKSUM_BUFFERS + 1) * max(CHECKSUM_BLOCK_BYTES, 4 * row)
    need = 16 * n * (R + 1) + chunks + levels + text
    limit = memory_limit_bytes()
    if need > limit:
        raise MemoryError(f"certifying |W| = {n} needs about {need} bytes, "
                          f"memory limit {limit}")
    return need


def twist_certificate(g: GroupTable) -> dict:
    """Run the full pipeline and assemble the certificate dictionary.

    Raises CertificationError on mathematical falsification, never an
    expected state.  The memory it needs is checked beforehand, by
    require_certify_memory.

    The lifts s_i -> t_i z^eps_i split exactly when every bond order is
    odd: their braid relation reduces over GF(2) to m_ij + 1 +
    m_ij (eps_i + eps_j) = 0, unsatisfiable once one m_ij is even, and
    otherwise eps is constant on the components of the odd graph, so
    eps = 0, the split bits, is a witness.  It is checked by one
    comparison, no edge bit c[w, i] set: the t_i reach every (w, 0)
    along the tree edges, which carry bit 0 (ExtGroup), so with no bit
    set they generate |W| elements, not z.  A set bit c[w, i] puts
    (w, 0) t_i = (w s_i, 1) in that subgroup, and with (w s_i, 0) z.
    """
    matrix = g.matrix
    ext, rho = certified_section(g)
    phi = phi_rho(g, ext, rho)
    qp, qm = q_plus(g), q_minus(g)
    witness = certify_twist(g, phi, qp, qm)
    if witness is not None:
        raise CertificationError("twist", list(witness))

    rack = reflection_rack(g)
    gamma = cohomologous_solve(qp, qm, rack)
    all_odd = matrix.all_odd()
    split_bits = [0] * g.rank if all_odd else None
    if (gamma is not None) != all_odd:
        raise CertificationError(
            "split-cohomologous-consistency",
            {"all_odd": all_odd, "cohomologous": gamma is not None})
    if all_odd and not (ext.gen_perms[:g.rank, :g.order] < g.order).all():
        raise CertificationError("split-witness", split_bits)

    return {
        "schema": "twist_certificate.v1",
        "matrix": [list(r) for r in matrix.rows],
        "order_w": g.order,
        "order_wtilde": ext.order,
        "reflections": g.nroots,
        "all_odd": all_odd,
        "split": all_odd,
        "split_bits": split_bits,
        "cohomologous": gamma is not None,
        "gamma_bits": list(gamma) if gamma is not None else None,
        "vendramin": "pass",
        "global": "pass",
        "twist": "pass",
        "phi_checksum": phi_checksum(phi),
    }


def certificate_json(cert: dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"
