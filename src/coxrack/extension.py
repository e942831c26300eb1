"""The index-two central extension of W and its canonical section.

The extension is presented on generators t_1..t_l, z with relations
z^2 = (t_i z)^2 = 1 and (t_i t_j)^m_ij = z^(m_ij + 1); coset enumeration
over the trivial subgroup produces its regular permutation
representation.  The section of the projection to W is defined on
reflections by walking the reflection conjugacy graph and certified
well-defined by recomputing it along every path.  The resulting group
2-cocycle (the z-exponent of rho(xy) rho(y)^-1 rho(x)^-1) is the machine
certificate that the two sign cocycles on reflections are twist
equivalent.

Certification failures here are never expected states: they would
falsify either the construction or the mathematics, so they raise with
a serialized counterexample instead of returning False.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .coxeter import ConjGraph, CoxeterMatrix, GroupTable
from .racks import (
    cohomologous_solve,
    q_minus,
    q_plus,
    q_plus_table,
    reflection_rack,
)


class EnumerationOverflow(RuntimeError):
    """Coset enumeration exceeded its live-coset cap."""


class PresentationCollapse(RuntimeError):
    """The central generator z collapsed to the identity (a bug signal)."""


class PathMismatchError(RuntimeError):
    """Two graph paths produced different section values (fatal)."""

    def __init__(self, reflection, word_a, word_b):
        self.details = {"reflection": reflection, "word_a": list(word_a),
                        "word_b": list(word_b)}
        super().__init__(f"section value differs along paths: {self.details}")


class CertificationError(RuntimeError):
    """A certified identity failed; carries a serialized counterexample."""

    def __init__(self, stage: str, witness):
        self.details = {"stage": stage, "witness": witness}
        super().__init__(f"certification failed at {stage}: {witness}")


# ---------------------------------------------------------------------------
# Presentation and Todd-Coxeter enumeration
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


def coset_enumeration(pres: Presentation, live_cap: int) -> list[list[int]]:
    """HLT enumeration over the trivial subgroup.

    Returns, per generator, its right-multiplication permutation of the
    live cosets (renumbered 0..n-1 in discovery order).
    """
    nl = 2 * pres.ngens
    table: list[list[int | None]] = [[None] * nl]
    p = [0]
    live = 1

    def rep(k: int) -> int:
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def define(a: int, x: int):
        nonlocal live
        n = len(table)
        if live + 1 > live_cap:
            raise EnumerationOverflow(
                f"live coset count would exceed the cap {live_cap}")
        table.append([None] * nl)
        p.append(n)
        live += 1
        table[a][x] = n
        table[n][x ^ 1] = a

    def merge(k: int, l_: int, queue: list[int]):
        nonlocal live
        k, l_ = rep(k), rep(l_)
        if k != l_:
            if k > l_:
                k, l_ = l_, k
            p[l_] = k
            live -= 1
            queue.append(l_)

    def coincidence(a: int, b: int):
        queue: list[int] = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for x in range(nl):
                d = table[y][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(y), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(a: int, w: tuple[int, ...]):
        f, b = a, a
        i, j = 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] is not None:
                b = table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
                return
            define(f, w[i])

    # Sweep until a full pass neither defines nor merges anything; a
    # coincidence can clear entries of live cosets already swept, so one
    # pass is not enough in general.
    for _ in range(10_000):
        before = (len(table), live)
        a = 0
        while a < len(table):
            if rep(a) != a:
                a += 1
                continue
            for w in pres.relators:
                scan_and_fill(a, w)
                if rep(a) != a:
                    break
            if rep(a) == a:
                for x in range(nl):
                    if table[a][x] is None:
                        define(a, x)
            a += 1
        if (len(table), live) == before:
            break
    else:
        raise EnumerationOverflow("enumeration failed to stabilize")

    alive = [c for c in range(len(table)) if rep(c) == c]
    renum = {c: i for i, c in enumerate(alive)}
    perms = []
    for g in range(pres.ngens):
        perm = []
        for c in alive:
            img = table[c][2 * g]
            if img is None:
                raise AssertionError("incomplete coset table after enumeration")
            perm.append(renum[rep(img)])
        if sorted(perm) != list(range(len(alive))):
            raise AssertionError("generator action is not a permutation")
        perms.append(perm)
    # final verification: every relator closes at every live coset
    letter_act = []
    for g in range(pres.ngens):
        letter_act.append(perms[g])
        inv_perm = [0] * len(alive)
        for c, img in enumerate(perms[g]):
            inv_perm[img] = c
        letter_act.append(inv_perm)
    for c in range(len(alive)):
        for w in pres.relators:
            x = c
            for letter in w:
                x = letter_act[letter][x]
            if x != c:
                raise AssertionError("relator does not close on the coset table")
    return perms


# ---------------------------------------------------------------------------
# The extension group in its regular representation
# ---------------------------------------------------------------------------


class ExtGroup:
    """Regular permutation representation of the extension.

    Element 0 is the identity; generator ids follow t_0..t_(l-1), z.
    Immutable after construction.
    """

    def __init__(self, gen_perms: list[list[int]], nt: int):
        self.ngens = len(gen_perms)
        self.nt = nt                       # number of t-generators
        self.order = len(gen_perms[0])
        self.gen_perms = [np.array(pm, dtype=np.int32) for pm in gen_perms]
        self._bfs_words()
        self._mult = None
        self.z_elem = int(self.gen_perms[nt][0])
        self.t_elems = [int(self.gen_perms[i][0]) for i in range(nt)]

    def _bfs_words(self):
        order = self.order
        seen = [False] * order
        seen[0] = True
        queue = [0]
        words_by = {0: ()}
        parent = np.zeros(order, dtype=np.int64)
        last = np.zeros(order, dtype=np.int64)
        levels = []
        while queue:
            levels.append(np.array(queue, dtype=np.int64))
            nxt = []
            for c in queue:
                for g in range(self.ngens):
                    d = int(self.gen_perms[g][c])
                    if not seen[d]:
                        seen[d] = True
                        words_by[d] = words_by[c] + (g,)
                        parent[d], last[d] = c, g
                        nxt.append(d)
            queue = nxt
        if not all(seen):
            raise AssertionError("generators do not act transitively")
        self.words = [words_by[c] for c in range(order)]
        # BFS tree steps (gen, elems, parents) with elems = parents * gen,
        # level by level: a value set at the identity and extended along
        # the steps in order is its value along the BFS words
        self.tree = []
        for level in levels[1:]:
            for g in range(self.ngens):
                elems = level[last[level] == g]
                self.tree.append((g, elems, parent[elems]))

    def apply_word(self, c: int, word) -> int:
        for g in word:
            c = int(self.gen_perms[g][c])
        return c

    def mul(self, a: int, b: int) -> int:
        return self.apply_word(a, self.words[b])

    def mult_table(self) -> np.ndarray:
        if self._mult is None:
            # left multiplication by each generator, g (p h) = (g p) h,
            # then the table row by row: (p h) b = p (h b)
            n = self.order
            L = np.empty((self.ngens, n), dtype=np.int32)
            L[:, 0] = [int(pm[0]) for pm in self.gen_perms]
            for h, elems, parents in self.tree:
                L[:, elems] = self.gen_perms[h][L[:, parents]]
            M = np.empty((n, n), dtype=np.int32)
            M[0] = np.arange(n, dtype=np.int32)
            for h, elems, parents in self.tree:
                M[elems] = M[parents[:, None], L[h]]
            self._mult = M
        return self._mult

    def inv_table(self) -> np.ndarray:
        # every generator is an involution: (p h)^-1 = h p^-1
        M = self.mult_table()
        inv = np.zeros(self.order, dtype=np.int32)
        for h, elems, parents in self.tree:
            inv[elems] = M[self.gen_perms[h][0], inv[parents]]
        return inv

    def conj(self, a: int, b: int) -> int:
        """a > b = a b a^-1."""
        M = self.mult_table()
        inv = self._inv
        return int(M[M[a, b], inv[a]])

    def finalize(self):
        self._inv = self.inv_table()
        M = self.mult_table()
        if M[np.arange(self.order), self._inv].any():
            raise AssertionError("inverse table is wrong")
        return self


def build_wtilde(matrix: CoxeterMatrix, g: GroupTable) -> ExtGroup:
    """Enumerate the extension and verify its structural contract.

    Asserts order 2|W|, z central of order two, and that t_i -> s_i,
    z -> 1 is a well-defined surjection with kernel {1, z}.
    """
    pres = Presentation.wtilde(matrix)
    cap = 4 * g.order + 16
    perms = coset_enumeration(pres, cap)
    ext = ExtGroup(perms, nt=matrix.rank).finalize()

    if ext.order != 2 * g.order:
        raise AssertionError(
            f"extension has order {ext.order}, expected {2 * g.order}")
    z = ext.z_elem
    if z == 0:
        raise PresentationCollapse("z collapsed to the identity")
    zp = ext.gen_perms[ext.nt]
    if int(zp[z]) != 0:
        raise AssertionError("z is not an involution")
    for i in range(ext.nt):
        tp = ext.gen_perms[i]
        if not np.array_equal(tp[zp], zp[tp]):
            raise AssertionError("z fails to commute with a generator")

    # projection pi: t_i -> s_i, z -> identity, along BFS words
    pi = np.zeros(ext.order, dtype=np.int32)
    for gen, elems, parents in ext.tree:
        pi[elems] = g.rmult[pi[parents], gen] if gen < ext.nt else pi[parents]
    for gen in range(ext.ngens):
        want = g.rmult[pi, gen] if gen < ext.nt else pi
        if not np.array_equal(pi[ext.gen_perms[gen]], want):
            raise AssertionError("projection to W is not a homomorphism")
    kernel = np.nonzero(pi == 0)[0].tolist()
    if sorted(kernel) != sorted({0, z}):
        raise AssertionError(f"projection kernel is {kernel}, expected {{1, z}}")
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


def _lift_word(ext: ExtGroup, word) -> int:
    c = 0
    for i in word:
        c = int(ext.gen_perms[i][c])
    return c


def build_section(g: GroupTable, ext: ExtGroup,
                  graph: ConjGraph | None = None) -> Section:
    """Section along the conjugacy graph, certified over every path.

    rho(s_i) = t_i; for a deeper reflection the first graph edge gives
    rho(x) = t_i rho(y) t_i z; off the reflections rho lifts the ShortLex
    word with z-exponent zero (so rho(identity) = 1).
    """
    graph = graph or g.conjugacy_graph()
    z = ext.z_elem
    rho = np.empty(g.order, dtype=np.int32)
    for w in range(g.order):
        rho[w] = _lift_word(ext, g.words[w])

    refl_by_length = sorted(g.reflections, key=lambda t: g.length(t.elem))
    rho_refl: dict[int, int] = {}
    for refl in refl_by_length:
        if g.length(refl.elem) == 1:
            rho_refl[refl.index] = ext.t_elems[refl.elem - 1]
            continue
        gen, target = graph.out_edges(refl.index)[0]
        t_i = ext.t_elems[gen]
        val = ext.mul(ext.mul(t_i, rho_refl[target]), t_i)
        rho_refl[refl.index] = int(ext.gen_perms[ext.nt][val])  # append z
    for refl in g.reflections:
        rho[refl.elem] = rho_refl[refl.index]

    # certification: every path (equivalently every palindromic reduced
    # expression) must produce the same element
    for refl in g.reflections:
        words = graph.path_words(refl.index)
        values = []
        for word in words:
            r = len(word) // 2
            val = _lift_word(ext, word)
            for _ in range(r % 2):
                val = int(ext.gen_perms[ext.nt][val])
            values.append((val, word))
        baseline, base_word = values[0]
        if baseline != rho_refl[refl.index]:
            raise PathMismatchError(refl.elem, base_word, g.words[refl.elem])
        for val, word in values[1:]:
            if val != baseline:
                raise PathMismatchError(refl.elem, base_word, word)

    section = Section(rho=rho)
    pi = ext.pi
    if any(pi[rho[w]] != w for w in range(g.order)):
        raise AssertionError("rho is not a section of the projection")
    return section


def check_vendramin(g: GroupTable, ext: ExtGroup, sec: Section):
    """Verify rho(s) > rho(y) = rho(s > y) z^[s != y] over S x T.

    Returns None on success, else the witness pair (s, y) as element ids.
    """
    M = ext.mult_table()
    inv = ext._inv
    z = ext.z_elem
    for i in range(g.rank):
        s = g.simple_reflection(i)
        rs = sec(s)
        for refl in g.reflections:
            y = refl.elem
            lhs = int(M[M[rs, sec(y)], inv[rs]])
            rhs = sec(g.conj(s, y))
            if s != y:
                rhs = int(M[rhs, z])
            if lhs != rhs:
                return (s, y)
    return None


def check_global(g: GroupTable, ext: ExtGroup, sec: Section):
    """Verify rho(w) > rho(y) = (q+/q-)(w, y) rho(w > y) over all W x T."""
    M = ext.mult_table()
    inv = ext._inv
    z = ext.z_elem
    eplus = q_plus_table(g)
    parity = (g.length_arr % 2).astype(np.uint8)
    conj_refl = g.conj_refl_table()
    refl_elems = np.array([t.elem for t in g.reflections], dtype=np.int64)
    rho = sec.rho
    zmul = M[:, z]
    for w in range(g.order):
        rw = int(rho[w])
        lhs = M[M[rw, rho[refl_elems]], inv[rw]]
        rhs = rho[refl_elems[conj_refl[w]]]
        bits = eplus[w] ^ parity[w]
        rhs = np.where(bits, zmul[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            t = int(np.nonzero(lhs != rhs)[0][0])
            return (w, int(refl_elems[t]))
    return None


def cocycle_identity_witness(mult: np.ndarray, table: np.ndarray, middles):
    """First (x, y, w) with phi(xy,w) + phi(x,y) != phi(x,yw) + phi(y,w).

    Checks every x and w but only the middle elements y in `middles`,
    and returns None when all of those triples hold.  With middles the
    simple reflections this accepts exactly the tables that satisfy the
    identity on all of W x W x W, normalized or not (Light's
    associativity test):

    The identity at (x, y, w) is associativity of (x,a), (y,b), (w,c)
    under (x,a)(y,b) = (xy, a + b + phi(x,y)) on W x Z2, whatever the
    bits.  Let S be the set of g with (u g) v = u (g v) for all u, v.
    For g, h in S,
    (u (g h)) v = ((u g) h) v = (u g)(h v) = u (g (h v)) = u ((g h) v),
    so S is closed under the product.  As the bits do not matter, S is
    (the y that pass) x Z2, so the y that pass are closed under the
    product of W.  Every element of W is a product of simple
    reflections (the identity too: s s = 1), so once they pass, all
    of W passes.
    """
    for y in middles:
        lhs = table[mult[:, y]] ^ table[:, y][:, None]
        rhs = table[:, mult[y]] ^ table[y][None, :]
        if not np.array_equal(lhs, rhs):
            x, w = np.argwhere(lhs != rhs)[0]
            return (int(x), int(y), int(w))
    return None


def phi_rho(g: GroupTable, ext: ExtGroup, sec: Section) -> GroupCocycle2:
    """Extract the z-exponent cocycle phi(x, y) = rho(xy) rho(y)^-1 rho(x)^-1.

    Verifies that every value lies in the kernel, the group 2-cocycle
    identity, and the conjugation identity
    phi(x,y) (rho(x) > rho(y)) = phi(x>y, x) rho(x>y) over W x W.  The
    2-cocycle identity is checked with the middle element restricted to
    the simple reflections, which is equivalent to the full W x W x W
    check (see cocycle_identity_witness).
    """
    MW = g.mult_table()
    ME = ext.mult_table()
    inv = ext._inv
    z = ext.z_elem
    rho = sec.rho
    rho_inv = inv[rho]

    n = g.order
    vals = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        vals[x] = ME[ME[rho[MW[x]], rho_inv], rho_inv[x]]
    in_kernel = (vals == 0) | (vals == z)
    if not in_kernel.all():
        bad = np.argwhere(~in_kernel)[0]
        raise CertificationError("phi-kernel", [int(bad[0]), int(bad[1])])
    table = (vals == z).astype(np.uint8)

    # group 2-cocycle identity phi(xy, w) phi(x, y) = phi(x, yw) phi(y, w)
    simples = [g.simple_reflection(i) for i in range(g.rank)]
    witness = cocycle_identity_witness(MW, table, simples)
    if witness is not None:
        raise CertificationError("phi-cocycle-identity", list(witness))

    # conjugation identity, over all of W x W
    inv_w = g.inv_arr
    zmul = ME[:, z]
    for x in range(n):
        conj_x = MW[MW[x], inv_w[x]]  # x > y for all y
        lhs = ME[ME[rho[x], rho], rho_inv[x]]
        lhs = np.where(table[x], zmul[lhs], lhs)
        rhs = rho[conj_x]
        rhs = np.where(table[conj_x, x], zmul[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            y = int(np.nonzero(lhs != rhs)[0][0])
            raise CertificationError("phi-conjugation-identity", [int(x), y])

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

    Raises CertificationError / PathMismatchError on mathematical
    falsification; those are never expected states.
    """
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
    z = ext.z_elem
    gens = []
    for i, b in enumerate(bits):
        e = ext.t_elems[i]
        if b:
            e = int(ext.gen_perms[ext.nt][e])
        gens.append(e)
    seen = {0}
    frontier = [0]
    M = ext.mult_table()
    while frontier:
        nxt = []
        for c in frontier:
            for e in gens:
                d = int(M[c, e])
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    if len(seen) != g.order or z in seen:
        raise CertificationError("split-witness", list(bits))


def certificate_json(cert: dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"
