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
extension, one length level at a time (as in Casselman, "Machine
calculations in Weyl groups", 1994), and projected to W by the
numbering: the largest table held is phi itself, |W|^2 bytes.  The
identities phi satisfies because the extension is a group (the
2-cocycle and conjugation identities, see phi_rho) are not rechecked
here; the tests check them against dense-table oracles.

Certification failures here are never expected states: they would
falsify either the construction or the mathematics, so they raise with
a serialized counterexample instead of returning False.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Presentation:
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
        self.t_elems = [int(e) for e in self.gen_perms[:self.nt, 0]]
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


@dataclass(frozen=True)
class Section:
    """Table of the section rho: W -> extension, as element ids."""

    rho: np.ndarray

    def __call__(self, w: int) -> int:
        return int(self.rho[w])


@dataclass(frozen=True)
class GroupCocycle2:
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


def phi_rho(g: GroupTable, ext: ExtGroup, sec: Section) -> GroupCocycle2:
    """Extract the z-exponent cocycle phi(x, y) = rho(xy) rho(y)^-1 rho(x)^-1.

    phi is built one column y at a time, walking y down W's BFS tree.
    rho(y) = y z^f(y), y the lift of y's ShortLex word, f(y) = [rho(y) >=
    |W|], so the column rho(x) y over all x is the parent's column
    pushed through gen_perms[last letter of y].  It projects to xy, and
    rho(x) rho(y) = rho(xy) z^phi(x, y): phi(x, y) is f(y) plus whether
    rho(x) y differs from rho(xy).

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
    flip = rho >= n
    table = np.empty((n, n), dtype=np.uint8)
    for lo, hi, prod in _tree_walk(g, rho, lambda c, s: ext.gen_perms[s, c]):
        # prod[k, x] = rho(x) y for y = lo + k
        differ = prod != rho[prod % n]
        table[:, lo:hi] = (differ ^ flip[lo:hi, None]).T
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


CHECKSUM_BLOCK_BYTES = 1 << 22   # bytes hashed per update in phi_checksum


def phi_checksum(phi: GroupCocycle2) -> str:
    """Order-independent digest: sha256 over the sorted (x, y, bit) lines.

    The byte stream is the concatenation of f"{x},{y},{bit}\\n" over x,
    then y.  It is built a block of rows at a time: rows whose x has the
    same number of digits share one template, in which only the digits
    of x and the bits change.
    """
    table = phi.table
    h = hashlib.sha256()
    n = table.shape[0]
    ylen = np.array([len(str(y)) for y in range(n)], dtype=np.int64)
    x0 = 0
    while x0 < n:
        dx = len(str(x0))
        x_end = min(n, 10 ** dx)
        template = np.frombuffer(
            "".join(f"{'0' * dx},{y},0\n" for y in range(n)).encode(),
            dtype=np.uint8)
        line_len = dx + ylen + 4           # "x,y,b\n"
        ends = np.cumsum(line_len)
        starts = ends - line_len
        rows = max(1, CHECKSUM_BLOCK_BYTES // len(template))
        for b0 in range(x0, x_end, rows):
            xs = np.arange(b0, min(b0 + rows, x_end))
            block = np.tile(template, (len(xs), 1))
            for k in range(dx):
                digit = xs // 10 ** (dx - 1 - k) % 10 + ord("0")
                block[:, starts + k] = digit[:, None]
            block[:, ends - 2] = table[xs] + ord("0")
            h.update(block)
        x0 = x_end
    return h.hexdigest()


def twist_certificate(g: GroupTable) -> dict:
    """Run the full pipeline and assemble the certificate dictionary.

    Raises CertificationError on mathematical falsification, never an
    expected state.  Raises MemoryError
    before any work when phi and the walk that fills it would not fit
    in memory.
    """
    # phi is a |W|^2 uint8 table; at their peak the walks hold about 32
    # bytes per pair of an element of W and one of its largest length
    # level (measured on H4 when phi_rho made a second, conjugation walk;
    # with one walk the estimate is conservative, and a lower constant
    # needs a new measurement)
    n = g.order
    need = n * n + 32 * n * int(np.bincount(g.length_arr).max())
    limit = _memory_limit_bytes()
    if need > limit:
        raise MemoryError(
            f"certifying |W| = {n} needs about {need} bytes, {n * n} of "
            f"them for phi, memory limit {limit}")
    matrix = g.matrix
    ext = build_wtilde(matrix, g)
    sec = build_section(g, ext)

    witness = check_vendramin(g, ext, sec)
    if witness is not None:
        raise CertificationError("vendramin", list(witness))
    witness = check_global(g, ext, sec)
    if witness is not None:
        raise CertificationError("global", list(witness))

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
