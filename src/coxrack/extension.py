"""The index-two central extension of W and its canonical section.

The extension is presented on generators t_1..t_l, z with relations
z^2 = (t_i z)^2 = 1 and (t_i t_j)^m_ij = z^(m_ij + 1).  Its regular
permutation representation, the coset table of the trivial subgroup, is
read off W's Cayley graph, one bit per edge, and checked against every
relator.  Its elements are numbered (w, eps) = w + eps |W|: element w
is the lift of w's ShortLex word (t_i for s_i, no z), and the
projection to W is the number mod |W|.  The section of the projection
is defined on reflections along the reflection conjugacy graph, and
check_vendramin certifies that every path gives the same value (see
build_section).  The resulting group 2-cocycle (the z-exponent of
rho(xy) rho(y)^-1 rho(x)^-1) is the machine certificate that the two
sign cocycles on reflections are twist equivalent.

No product table is built.  Every product the certificate reads is
walked down W's BFS tree from the generator permutations of the
extension (as in Casselman, "Machine calculations in Weyl groups",
1994) and projected to W by the numbering.  The checks walk one length
level at a time, in rows of l or |T| entries.  phi_rho walks depth
first, holding one row of |W| per element on the path to the root; it
writes phi transposed and transposes it in place, a pair of tiles at a
time.  phi_checksum builds its byte stream in blocks of about a
megabyte, and a second thread hashes each block while the next is
built.  So the largest table held is phi itself, |W|^2 bytes, and the
rest is a few int32 rows of |W| per length.  The identities phi
satisfies because the extension is a group (the 2-cocycle and
conjugation identities, see phi_rho) are not rechecked here; the tests
check them against dense-table oracles.

Certification failures here are never expected states: they would
falsify either the construction or the mathematics, so they raise with
a serialized counterexample instead of returning False.
"""

from __future__ import annotations

import json
import threading
import time
from typing import NamedTuple

import numpy as np

from .coxeter import CoxeterMatrix, GroupTable
from .nichols import _memory_limit_bytes
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
# Presentation and coset table
# ---------------------------------------------------------------------------


class Presentation(NamedTuple):
    """Generators t_0..t_(l-1) plus central z, with the lifted relations.

    Relator words are over a signed alphabet: letter 2g is generator g,
    letter 2g + 1 its inverse.
    """

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    @classmethod
    def wtilde(cls, matrix: CoxeterMatrix) -> "Presentation":
        l = matrix.rank
        z = l

        def gen(g):
            return 2 * g

        def inv(g):
            return 2 * g + 1

        relators = [(gen(z), gen(z))]
        for i in range(l):
            relators.append((gen(i), gen(z), gen(i), gen(z)))
        for i in range(l):
            for j in range(i, l):
                m = matrix.entry(i, j)
                word = (gen(i), gen(j)) * m + (inv(z),) * (m + 1)
                relators.append(word)
        return cls(ngens=l + 1, relators=tuple(relators))


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
    the 2m-gon.

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
    descent = length[rmult] < length[:, None]    # [v, i]: l(v s_i) < l(v)
    c = np.zeros((n, l), dtype=np.uint8)
    bounds = np.searchsorted(length, np.arange(length[-1] + 2))
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        tops = np.arange(lo, hi)
        for j in range(l):
            for i in range(l):
                if i == j:
                    continue
                top = tops[(g._last[lo:hi] == j) & descent[lo:hi, i]]
                m = g.matrix.entry(i, j)
                bit = np.full(top.size, (m + 1) % 2, dtype=np.uint8)
                x = rmult[top, i]
                for k in range(2 * m - 2):     # v s_i around to v s_j
                    s = (j, i)[k % 2]
                    bit ^= c[x, s]
                    x = rmult[x, s]
                c[top, i] = c[rmult[top, i], i] = bit

    perms = np.empty((l + 1, 2 * n), dtype=np.int32)
    for i in range(l):
        img = np.where(c[:, i], rmult[:, i] + n, rmult[:, i])
        perms[i] = np.concatenate([img, (img + n) % (2 * n)])
    perms[l] = np.roll(np.arange(2 * n, dtype=np.int32), -n)
    letter_act = [a for pm in perms for a in (pm, np.argsort(pm))]
    points = np.arange(2 * n)
    for word in Presentation.wtilde(g.matrix).relators:
        x = points
        for letter in word:
            x = letter_act[letter][x]
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
    build_wtilde adds `pi`, the projection to W.
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
        if not np.array_equal(self.gen_perms[g._last[1:], g._parent[1:]],
                              points[1:n]):
            raise AssertionError("a ShortLex tree edge is not numbered (w, 0)")
        self.z_elem = n
        # left multiplication by each t_i: t_i (v s) = (t_i v) t_s and
        # t_i (w z) = (t_i w) z; then t_i c t_i = (t_i c) t_i
        walk = _tree_walk(g, self.gen_perms[:self.nt, 0],
                          lambda c, s: self.gen_perms[s, c])
        left = np.concatenate([block for _, _, block in walk]).T
        left = np.concatenate([left, self.gen_perms[self.nt][left]], axis=1)
        self.tconj = np.take_along_axis(self.gen_perms[:self.nt], left, axis=1)


def _tree_walk(g: GroupTable, start: np.ndarray, step):
    """Carry a row of values down W's BFS tree, one length level at a time.

    Yields (lo, hi, block) per level, block[k] the row at element lo + k:
    `start` at the identity, then step(parent rows, last letters as a
    column) for the elements u = parent * s_i.  Only one level is held.
    """
    bounds = np.searchsorted(g.length_arr, np.arange(g.length_arr[-1] + 2))
    block = start[None]
    yield 0, 1, block
    for prev, lo, hi in zip(bounds[:-2], bounds[1:-1], bounds[2:]):
        block = step(block[g._parent[lo:hi] - prev], g._last[lo:hi, None])
        yield lo, hi, block


def build_wtilde(matrix: CoxeterMatrix, g: GroupTable) -> ExtGroup:
    """Enumerate the extension and verify its structural contract.

    ExtGroup checks the order 2|W| and the (w, eps) numbering, so
    z = |W| is not the identity and pi: w + eps |W| -> w is onto W with
    kernel {1, z}.  Asserts every generator an involution, z central,
    and that pi is a homomorphism: t_i -> s_i, z -> 1.
    """
    ext = ExtGroup(coset_enumeration(g), g)

    gp = ext.gen_perms
    if gp[np.arange(ext.ngens), gp[:, 0]].any():
        raise AssertionError("a generator is not an involution")
    zp = gp[ext.nt]
    for i in range(ext.nt):
        if not np.array_equal(gp[i][zp], zp[gp[i]]):
            raise AssertionError("z fails to commute with a generator")

    pi = np.arange(ext.order, dtype=np.int32) % g.order
    for gen in range(ext.ngens):
        want = g.rmult[pi, gen] if gen < ext.nt else pi
        if not np.array_equal(pi[gp[gen]], want):
            raise AssertionError("projection to W is not a homomorphism")
    ext.pi = pi
    return ext


def is_split(matrix: CoxeterMatrix):
    """Lift bits for s_i -> t_i z^eps_i, or None when no lift exists.

    The braid relation for the lifted generators reduces over GF(2) to
    m_ij + 1 + m_ij (eps_i + eps_j) = 0, which is unsatisfiable as soon
    as one m_ij is even and otherwise forces eps to be constant on the
    components of the odd graph; the all-zero vector is then a witness.
    """
    l = matrix.rank
    for i in range(l):
        for j in range(i + 1, l):
            if matrix.entry(i, j) % 2 == 0:
                return None
    return (0,) * l


# ---------------------------------------------------------------------------
# The section and its certificates
# ---------------------------------------------------------------------------


class Section(NamedTuple):
    """Table of the section rho: W -> extension, as element ids."""

    rho: np.ndarray


class GroupCocycle2(NamedTuple):
    """Group 2-cocycle on W with values in {1, z}, stored as z-exponents."""

    table: np.ndarray  # (|W|, |W|) uint8


def _conjugates(g: GroupTable, ext: ExtGroup, values: np.ndarray):
    """Yield (xs, block), block[k] = rho(x) values rho(x)^-1 for x = xs[k],
    one length level of x^-1 at a time, for any section rho.

    Conjugation by e depends only on pi(e): e' = e k with k in
    ker pi = {1, z}, and z is central, so e' c e'^-1 = e c e^-1.  The
    walk visits u = u' s_i, so x = u^-1 = s_i x' with x' = u'^-1, and
    t_i rho(x') projects to x: conjugation by rho(x) is t_i (conjugation
    by rho(x')) t_i^-1 = tconj[i] of the parent's block.  The kernel is
    {1, z} by ExtGroup's numbering, build_wtilde verifies that z is
    central and that t_i = t_i^-1, and build_section that rho is a
    section.  Element ids increase with length and x^-1 has x's length,
    so the level of length L yields exactly the x of length L.
    """
    for lo, hi, block in _tree_walk(g, values,
                                    lambda c, s: ext.tconj[s, c]):
        yield g.inv_arr[lo:hi], block


def build_section(g: GroupTable, ext: ExtGroup) -> Section:
    """Section along the first edge of the reflection conjugacy graph.

    rho(s_i) = t_i, and the first edge x --s_i--> y of a deeper
    reflection gives rho(x) = t_i rho(y) t_i z.  Off the reflections rho
    lifts the ShortLex word with no z: it is element w (rho(1) = 1).

    Once check_vendramin passes, every path gives rho(x).  A path's value
    is t_j at its end s_j, and tconj[s, value of the rest] z one edge
    x --s--> y up.  By induction on l(x): t_j = rho(s_j) is element s_j
    (ExtGroup's numbering); one edge up, the value is tconj[s, rho(y)] z,
    and check_vendramin at (s, y) (s != y, as l(x) = l(y) + 2) says
    tconj[s, rho(y)] = rho(x) z.  The tests recompute every path.
    """
    zp = ext.gen_perms[ext.nt]
    graph = g.conjugacy_graph()
    rho = np.arange(g.order, dtype=np.int32)
    for refl in sorted(g.reflections, key=lambda t: g.length(t.elem)):
        if g.length(refl.elem) > 1:
            gen, target = graph.out_edges(refl.index)[0]
            rho[refl.elem] = zp[ext.tconj[gen, rho[g.reflections[target].elem]]]
    if not np.array_equal(ext.pi[rho], np.arange(g.order)):
        raise AssertionError("rho is not a section of the projection")
    return Section(rho=rho)


def check_vendramin(g: GroupTable, ext: ExtGroup, sec: Section):
    """Verify rho(s) > rho(y) = rho(s > y) z^[s != y] over S x T.

    rho(s_i) and t_i both project to s_i, so conjugating by either is
    the same (see _conjugates): one gather of tconj[i] per generator.
    Returns None on success, else the witness pair (s, y) as element ids.
    """
    zp = ext.gen_perms[ext.nt]
    refl_elems = np.array([t.elem for t in g.reflections], dtype=np.int64)
    conj_refl = g.conj_refl_table()
    for i in range(g.rank):
        s = g.simple_reflection(i)
        lhs = ext.tconj[i, sec.rho[refl_elems]]
        rhs = sec.rho[refl_elems[conj_refl[s]]]
        rhs = np.where(refl_elems != s, zp[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            t = int(np.nonzero(lhs != rhs)[0][0])
            return (s, int(refl_elems[t]))
    return None


def check_global(g: GroupTable, ext: ExtGroup, sec: Section):
    """Verify rho(w) > rho(y) = (q+/q-)(w, y) rho(w > y) over all W x T.

    Compared one length level of w at a time, as _conjugates yields
    them.  Returns None on success, else the first witness (w, y) in
    row-major order: the levels come in order of the ids they hold, so
    it is the smallest mismatch of the first level that has one.

    A pass also makes e = q+ - q- W-equivariant on W x W x T,
    e(w1 w2, y) = e(w1, w2 > y) + e(w2, y): conjugation by rho(w1 w2) is
    conjugation by rho(w1) rho(w2), as the two differ by the central z,
    and the check turns both sides into z-exponents over rho(w1 w2 > y).
    q- = det is multiplicative, so q+ is equivariant as well.
    """
    zp = ext.gen_perms[ext.nt]
    refl_elems = np.array([t.elem for t in g.reflections], dtype=np.int64)
    rho = sec.rho
    conj_refl = g.conj_refl_table()
    qp = q_plus_table(g)
    parity = (g.length_arr % 2).astype(np.uint8)
    for xs, lhs in _conjugates(g, ext, rho[refl_elems]):
        rhs = rho[refl_elems[conj_refl[xs]]]
        rhs = np.where(qp[xs] ^ parity[xs, None], zp[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            k, t = np.nonzero(lhs != rhs)
            w, t = min(zip(xs[k].tolist(), t.tolist()))
            return (w, int(refl_elems[t]))
    return None


def _depth_first(g: GroupTable) -> list[int]:
    """W's elements in depth-first preorder of its BFS tree.

    Each element comes after its parent, and between an element and the
    next one no longer than it come only its descendants, so a walk that
    keeps one row per length holds the rows of the path to the root.
    """
    children = [[] for _ in range(g.order)]
    for u, v in enumerate(g._parent[1:].tolist(), 1):
        children[v].append(u)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    return order


def _transpose_in_place(a: np.ndarray):
    """Transpose the square array a in place, one pair of tiles at a time.

    Tiles of 128 x 128 were the fastest of sides 128 to 1024 on 1152^2
    and 14400^2 uint8 tables; a tile and its copy stay in cache.
    """
    n, t = a.shape[0], 128
    for i in range(0, n, t):
        diag = a[i:i + t, i:i + t]
        diag[...] = diag.T.copy()
        for j in range(i + t, n, t):
            upper, lower = a[i:i + t, j:j + t], a[j:j + t, i:i + t]
            tmp = upper.copy()
            upper[...] = lower.T
            lower[...] = tmp.T


def phi_rho(g: GroupTable, ext: ExtGroup, sec: Section) -> GroupCocycle2:
    """Extract the z-exponent cocycle phi(x, y) = rho(xy) rho(y)^-1 rho(x)^-1.

    phi is built one column y at a time, walking y down W's BFS tree
    depth first (_depth_first).  rho(y) = y z^f(y), y the lift of y's
    ShortLex word, f(y) = [rho(y) >= |W|], so the column rho(x) y over
    all x is the parent's column pushed through gen_perms[last letter of
    y], and only the columns on the path to the root are held.  It
    projects to xy, and rho(x) rho(y) = rho(xy) z^phi(x, y): phi(x, y)
    is f(y) plus whether rho(x) y differs from rho(xy), read from a
    table over the 2|W| elements.  Column y is written as row y of phi
    transposed, and one in-place tiled transpose gives the x-major table.

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
    n, rho = g.order, sec.rho
    elems = np.arange(2 * n)
    differ = (elems != rho[elems % n]).astype(np.uint8)
    bits = (differ, differ ^ 1)            # bits[f(y)][rho(x) y] = phi(x, y)
    flip = (rho >= n).tolist()
    length, last = g.length_arr.tolist(), g._last.tolist()
    table = np.empty((n, n), dtype=np.uint8)     # phi transposed, then phi
    path = np.empty((length[-1] + 1, n), dtype=np.int32)
    path[0] = rho
    # the indices are elements of the extension, all in range; "clip"
    # only keeps np.take from buffering `out`, as its default "raise" does
    for y in _depth_first(g):
        d = length[y]
        if d:
            np.take(ext.gen_perms[last[y]], path[d - 1], out=path[d],
                    mode="clip")
        np.take(bits[flip[y]], path[d], out=table[y], mode="clip")
    _transpose_in_place(table)
    return GroupCocycle2(table=table)


def certify_twist(g: GroupTable, phi: GroupCocycle2, qp, qm):
    """Verify q+(x,y) = phi(x,y) phi(x>y,x)^-1 q-(x,y) on T x T."""
    refl_elems = np.array([t.elem for t in g.reflections], dtype=np.int64)
    conj_refl = g.conj_refl_table()
    nt = len(refl_elems)
    qp_t = np.array(qp.table, dtype=np.uint8)
    qm_t = np.array(qm.table, dtype=np.uint8)
    phi_tt = phi.table[np.ix_(refl_elems, refl_elems)]
    for a in range(nt):
        x = refl_elems[a]
        xy = refl_elems[conj_refl[x]]
        want = phi_tt[a] ^ phi.table[xy, x] ^ qm_t[a]
        if not np.array_equal(qp_t[a], want):
            b = int(np.nonzero(qp_t[a] != want)[0][0])
            return (int(x), int(refl_elems[b]))
    return None


# ---------------------------------------------------------------------------
# Certificate orchestration
# ---------------------------------------------------------------------------


CHECKSUM_BLOCK_BYTES = 1 << 20   # bytes of whole rows per block in phi_checksum


def phi_checksum(phi: GroupCocycle2) -> str:
    """Order-independent digest: sha256 over the sorted (x, y, bit) lines.

    The byte stream is the concatenation of f"{x},{y},{bit}\\n" over x,
    then y, built in blocks by _checksum_blocks and hashed on a second
    thread by _sha256_behind.
    """
    return _sha256_behind(_checksum_blocks(phi.table))


def _ascii_digits(v: np.ndarray, width: int) -> np.ndarray:
    """Rows of the `width` decimal digits of each v, as ASCII bytes."""
    powers = 10 ** np.arange(width - 1, -1, -1)
    return (v[:, None] // powers % 10 + ord("0")).astype(np.uint8)


def _checksum_blocks(table: np.ndarray):
    """Yield phi_checksum's byte stream in blocks of whole rows x.

    Rows whose x has dx digits are laid out alike: for each digit count
    dy of y, a run of records "x,y,b\\n" of one record dtype, with fields
    for the dx digits of x, ",y,", the bit and the newline.  Two buffers
    of about CHECKSUM_BLOCK_BYTES alternate, so a block may be hashed
    while the next is built.  They start as copies of one template row,
    and a block only writes the x digits and the bits.
    """
    n = table.shape[0]
    runs = [(10 ** (d - 1) if d > 1 else 0, min(n, 10 ** d), d)
            for d in range(1, len(str(n - 1)) + 1)]   # [lo, hi) with d digits
    for x0, x1, dx in runs:
        recs = [np.dtype([("x", "u1", dx), ("y", "u1", dy + 2), ("bit", "u1"),
                          ("nl", "u1")]) for _, _, dy in runs]
        offsets = np.cumsum([0] + [(hi - lo) * rec.itemsize
                                   for (lo, hi, _), rec in zip(runs, recs)])
        template = np.empty(offsets[-1], dtype=np.uint8)
        for (lo, hi, dy), a, b, rec in zip(runs, offsets, offsets[1:], recs):
            view = template[a:b].view(rec)
            view["y"] = ord(",")
            view["y"][:, 1:-1] = _ascii_digits(np.arange(lo, hi), dy)
            view["nl"] = ord("\n")
        rows = min(x1 - x0, max(1, CHECKSUM_BLOCK_BYTES // template.size))
        buffers = []
        for _ in range(2):
            buf = np.broadcast_to(template, (rows, template.size)).copy()
            buffers.append((buf, [buf[:, a:b].view(rec) for a, b, rec
                                  in zip(offsets, offsets[1:], recs)]))
        for k, r0 in enumerate(range(x0, x1, rows)):
            r1 = min(r0 + rows, x1)
            buf, views = buffers[k % 2]
            xd = _ascii_digits(np.arange(r0, r1), dx)
            for (lo, hi, _), view in zip(runs, views):
                view = view[:r1 - r0]
                for j in range(dx):     # one digit at a time: long loops
                    view["x"][..., j] = xd[:, j, None]
                view["bit"] = table[r0:r1, lo:hi] + ord("0")
            yield buf[:r1 - r0]


def _sha256_behind(blocks) -> str:
    """The sha256 of the concatenated blocks, hashed on a second thread.

    hashlib releases the GIL while it hashes, so each block is hashed
    while `blocks` builds the next one.  A block is hashed before the
    one after it is handed over, so `blocks` may build block k + 2 in
    block k's buffer.  The worker is joined before this returns or
    raises, and an error it meets is raised here after the stream ends.
    """
    # only here: hashlib loads OpenSSL, about 3.6 MB and 5 ms, and only
    # certify hashes
    import hashlib

    h = hashlib.sha256()
    slot = [None]                  # the block handed over; None stops
    handed, idle = threading.Semaphore(0), threading.Semaphore(1)
    errors = []

    def hash_handed():
        handed.acquire()
        while (block := slot[0]) is not None:
            try:
                h.update(block)
            except Exception as exc:    # raised again on the caller's thread
                errors.append(exc)
            idle.release()
            handed.acquire()

    worker = threading.Thread(target=hash_handed, name="phi_checksum-sha256",
                              daemon=True)
    worker.start()
    try:
        for block in blocks:            # built while the last one hashes
            idle.acquire()
            slot[0] = block
            handed.release()
            time.sleep(0)   # the GIL to the worker now, not a switch later
        idle.acquire()                  # the last block is hashed
    finally:
        slot[0] = None
        handed.release()
        worker.join()
    if errors:
        raise errors[0]
    return h.hexdigest()


def certified_section(g: GroupTable) -> tuple[ExtGroup, Section]:
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
    ext = build_wtilde(g.matrix, g)
    sec = build_section(g, ext)
    witness = check_vendramin(g, ext, sec)
    if witness is not None:
        raise CertificationError("vendramin", list(witness))
    witness = check_global(g, ext, sec)
    if witness is not None:
        raise CertificationError("global", list(witness))
    return ext, sec


def twist_certificate(g: GroupTable) -> dict:
    """Run the full pipeline and assemble the certificate dictionary.

    Raises CertificationError on mathematical falsification, never an
    expected state.  Raises MemoryError before any work when phi and the
    working set of the stages would not fit in memory.
    """
    # phi is a |W|^2 uint8 table.  Besides it, the stages hold a few int32
    # rows of |W| per length: phi_rho's path to the root, the reflection
    # conjugation table (|T| is the longest length L) and the extension's
    # generator arrays; 16 bytes per element of W and per length 0..L
    # cover them (traced peaks, beyond phi: 771 |W| bytes on H4, where
    # this allows 976 |W|).  phi_checksum adds at most four buffers of
    # CHECKSUM_BLOCK_BYTES.
    n = g.order
    need = (n * n + 16 * n * (int(g.length_arr[-1]) + 1)
            + 4 * CHECKSUM_BLOCK_BYTES)
    limit = _memory_limit_bytes()
    if need > limit:
        raise MemoryError(
            f"certifying |W| = {n} needs about {need} bytes, {n * n} of "
            f"them for phi, memory limit {limit}")
    matrix = g.matrix
    ext, sec = certified_section(g)
    phi = phi_rho(g, ext, sec)
    qp, qm = q_plus(g), q_minus(g)
    witness = certify_twist(g, phi, qp, qm)
    if witness is not None:
        raise CertificationError("twist", list(witness))

    rack = reflection_rack(g)
    gamma = cohomologous_solve(qp, qm, rack)
    split_bits = is_split(matrix)
    all_odd = matrix.all_odd()
    if (split_bits is not None) != all_odd or (gamma is not None) != all_odd:
        raise CertificationError(
            "split-cohomologous-consistency",
            {"all_odd": all_odd, "split": split_bits is not None,
             "cohomologous": gamma is not None})
    if split_bits is not None:
        _verify_split_witness(g, ext, split_bits)

    return {
        "schema": "twist_certificate.v1",
        "matrix": [list(r) for r in matrix.rows],
        "order_w": g.order,
        "order_wtilde": ext.order,
        "reflections": len(g.reflections),
        "all_odd": all_odd,
        "split": split_bits is not None,
        "split_bits": list(split_bits) if split_bits is not None else None,
        "cohomologous": gamma is not None,
        "gamma_bits": list(gamma) if gamma is not None else None,
        "vendramin": "pass",
        "global": "pass",
        "twist": "pass",
        "phi_checksum": phi_checksum(phi),
    }


def _verify_split_witness(g: GroupTable, ext: ExtGroup, bits):
    """The lifted generators generate a complement of the kernel."""
    zp = ext.gen_perms[ext.nt]
    # right multiplication by the lifts t_i z^b_i
    gens = [zp[ext.gen_perms[i]] if b else ext.gen_perms[i]
            for i, b in enumerate(bits)]
    seen = np.zeros(ext.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        # sorted and deduplicated without np.unique, which imports numpy.ma
        reached = np.sort(np.concatenate([p[frontier] for p in gens]))
        first = np.ones(reached.size, dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        frontier = reached[first & ~seen[reached]]
        seen[frontier] = True
    if seen.sum() != g.order or seen[ext.z_elem]:
        raise CertificationError("split-witness", list(bits))


def certificate_json(cert: dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"
