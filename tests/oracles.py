"""Code only the tests run: slow reference constructions for the checks
the program makes, and helpers the program itself does not need."""

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from coxrack.cyclo import euler_phi, mul, sign
from coxrack.dihedral import GradedModule, braided_from_graded, u_module
from coxrack.extension import (
    CertificationError,
    ExtGroup,
    GroupCocycle2,
    Presentation,
)
from coxrack.modlin import row_reduce_mod
from coxrack.nichols import (
    BraidedSpace,
    MonomialOp,
    symmetrizer_factorized_exact,
    word_operator,
)
from coxrack.racks import (
    Rack,
    RackCocycle,
    cohomologous_solve,
    q_plus_table,
    reflection_rack,
)


# -- Cosine enclosures in rational arithmetic -----------------------------------


def cos_enclosures_by_fractions(n: int) -> tuple[tuple[int, int], ...]:
    """cyclo._cos_enclosures(n) as first written, in Fractions: the Taylor
    sum S of cos x0 through x0^44/44!, x0 = 2 pi min(k, n - k) / n with pi
    cut after 37 decimals, and floor and ceil of 2^64 (S -+ 2^-72)."""
    pi_lo = Fraction(31415926535897932384626433832795028841, 10 ** 37)
    scale, err, out = 2 ** 64, Fraction(1, 2 ** 72), []
    for k in range(euler_phi(n)):
        x0 = Fraction(2 * min(k, n - k), n) * pi_lo
        p2, q2 = x0.numerator ** 2, x0.denominator ** 2
        num = den = 1
        for j in range(22, 0, -1):
            m = (2 * j - 1) * (2 * j) * q2
            num, den = den * m - p2 * num, den * m
        s = Fraction(num, den)
        out.append((math.floor((s - err) * scale),
                    math.ceil((s + err) * scale)))
    return tuple(out)


# -- Matsumoto section: braid lifts of permutations ----------------------------


def matsumoto_word(sigma) -> tuple[int, ...]:
    """A reduced word for a permutation (one-line form), deterministic.

    Letters are 1-based; the word multiplies left-to-right with the
    rightmost letter applied first, matching word_operator.
    """
    s = list(sigma)
    if sorted(s) != list(range(len(s))):
        raise ValueError("not a permutation of 0..n-1")
    picks = []
    while True:
        i = next((i for i in range(len(s) - 1) if s[i] > s[i + 1]), None)
        if i is None:
            break
        s[i], s[i + 1] = s[i + 1], s[i]
        picks.append(i + 1)
    return tuple(reversed(picks))


def all_reduced_words(sigma) -> set[tuple[int, ...]]:
    """Every reduced word of a permutation (small n only)."""
    s = tuple(sigma)
    if s == tuple(range(len(s))):
        return {()}
    out = set()
    for i in range(len(s) - 1):
        if s[i] > s[i + 1]:
            shorter = list(s)
            shorter[i], shorter[i + 1] = shorter[i + 1], shorter[i]
            for w in all_reduced_words(shorter):
                out.add(w + (i + 1,))
    return out


def perm_operator(V: BraidedSpace, n: int, sigma) -> MonomialOp:
    """Braid lift of a permutation through the length-additive section."""
    return word_operator(V, n, matsumoto_word(sigma))


def verify_matsumoto_invariance(V: BraidedSpace, n: int = 4) -> bool:
    """All reduced words of every permutation induce the same operator."""
    for sigma in itertools.permutations(range(n)):
        ops = [word_operator(V, n, w) for w in all_reduced_words(sigma)]
        if any(not op.equal(ops[0]) for op in ops[1:]):
            return False
    return True


def symmetrizer_literal_exact(V: BraidedSpace, n: int) -> np.ndarray:
    """Sum over all n! permutations, as integer counts per zeta power.

    Returns an (N, N, k) array over Z[x]/(x^k - 1); reduce with
    exact_matrix_as_cyclo for canonical comparisons.  O(n! N).
    """
    N = V.dim ** n
    acc = np.zeros((N, N, V.k), dtype=np.int64)
    cols = np.arange(N)
    for sigma in itertools.permutations(range(n)):
        op = perm_operator(V, n, sigma)
        np.add.at(acc, (op.perm, cols, op.expo), 1)
    return acc


def symmetrizer_mod(V: BraidedSpace, n: int, p: int, omega: int) -> np.ndarray:
    """The dense (d^n, d^n) symmetrizer over GF(p), zeta_k mapped to omega."""
    zpow = np.array([pow(omega, e, p) for e in range(V.k)], dtype=np.int64)
    return symmetrizer_factorized_exact(V, n) @ zpow % p


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of a dense integer matrix."""
    work = np.array(a, dtype=np.int64) % p
    _, pivots = row_reduce_mod(work, p)
    return len(pivots)


# -- reduced and palindromic words of reflections ------------------------------

REDEXPR_ORDER_CAP = 10_080  # reduced-word enumeration allowed up to |S6| * 2


def path_words(graph, refl_index: int) -> list[tuple[int, ...]]:
    """Palindromic words read off all maximal paths of the conjugacy
    graph from a reflection."""
    words: list[tuple[int, ...]] = []

    def walk(r, prefix):
        outs = graph.edges[r]
        if not outs:
            words.append(tuple(prefix) + (graph.simple_gen[r],)
                         + tuple(reversed(prefix)))
            return
        for gen, target in outs:
            prefix.append(gen)
            walk(target, prefix)
            prefix.pop()

    walk(refl_index, [])
    return words


def mirror(word) -> tuple[int, ...]:
    """Mirrored expression a_L s a_L^op of an odd-length word a_L s a_R."""
    word = tuple(word)
    if len(word) % 2 == 0:
        raise ValueError("mirror is defined for odd-length words")
    r = len(word) // 2
    return word[:r] + (word[r],) + word[r - 1::-1] if r else word


def reduced_expressions(g, e: int) -> set[tuple[int, ...]]:
    """All reduced words of an element (guarded for large groups)."""
    if g.order > REDEXPR_ORDER_CAP and g.refl_index_of_elem[e] < 0:
        raise ValueError(
            "reduced-word enumeration is exposed only for reflections "
            f"when |W| > {REDEXPR_ORDER_CAP}")
    memo: dict[int, set[tuple[int, ...]]] = {0: {()}}

    def rec(x: int) -> set[tuple[int, ...]]:
        got = memo.get(x)
        if got is not None:
            return got
        lx = g.length_arr[x]
        words = set()
        for i in range(g.rank):
            y = int(g.rmult[x][i])
            if g.length_arr[y] < lx:
                words.update(w + (i,) for w in rec(y))
        memo[x] = words
        return words

    return rec(e)


def palindromic_expressions(g, refl_index: int) -> set[tuple[int, ...]]:
    """P(x) computed as mirrors of R(x), cross-checked against graph paths."""
    refl = g.reflections[refl_index]
    mirrored = {mirror(w) for w in reduced_expressions(g, refl.elem)}
    paths = set(path_words(g.conjugacy_graph(), refl_index))
    if mirrored != paths:
        raise AssertionError(
            f"mirrored reduced words and graph paths disagree at {refl}")
    return mirrored


# -- the extension by Todd-Coxeter enumeration ---------------------------------


class EnumerationOverflow(RuntimeError):
    """Coset enumeration exceeded its live-coset cap."""


def hlt_coset_enumeration(pres: Presentation, live_cap: int) -> list[list[int]]:
    """HLT coset enumeration over the trivial subgroup (Holt, Eick and
    O'Brien, *Handbook of computational group theory*, 2005).

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
    letter_act = [a for pm in np.array(perms) for a in (pm, np.argsort(pm))]
    cosets = np.arange(len(alive))
    for w in pres.relators:
        x = cosets
        for letter in w:
            x = letter_act[letter][x]
        if not np.array_equal(x, cosets):
            raise AssertionError("relator does not close on the coset table")
    return perms


# -- the section along every path of the conjugacy graph ----------------------


def path_section_witness(g, ext, sec):
    """The section recomputed along every path of the conjugacy graph.

    A path x --s_1--> ... --s_k--> s_j reads the palindromic word
    s_1 ... s_k j s_k ... s_1; its value is the word's lift times z^k.
    Returns None when every value is rho(x), else (x, word) for the
    first path whose value is not.
    """
    zp = ext.gen_perms[ext.nt]
    graph = g.conjugacy_graph()
    for refl in g.reflections:
        for word in path_words(graph, refl.index):
            val = 0
            for letter in word:
                val = int(ext.gen_perms[letter, val])
            if len(word) // 2 % 2:
                val = int(zp[val])
            if val != sec.rho[refl.elem]:
                return (refl.elem, list(word))
    return None


# -- dense product tables of the extension and the checks that read them ------


def ext_bfs_tree(ext: ExtGroup) -> list:
    """The BFS steps (gen, elems, parents), elems = parents * gen, level by
    level over all of the extension: a value set at the identity and
    extended along the steps in order is its value along the BFS words."""
    seen = np.zeros(ext.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    tree = []
    while frontier.size:
        level = []
        for h in range(ext.ngens):
            elems, first = np.unique(ext.gen_perms[h, frontier],
                                     return_index=True)
            new = ~seen[elems]
            elems, parents = elems[new], frontier[first[new]]
            seen[elems] = True
            tree.append((h, elems, parents))
            level.append(elems)
        frontier = np.concatenate(level)
    if not seen.all():
        raise AssertionError("generators do not act transitively")
    return tree


def ext_mult_table(ext: ExtGroup) -> np.ndarray:
    """Dense (2|W|)^2 product table of the extension.

    Left multiplication by each generator, g (p h) = (g p) h, then the
    table row by row: (p h) b = p (h b).
    """
    n = ext.order
    tree = ext_bfs_tree(ext)
    L = np.empty((ext.ngens, n), dtype=np.int32)
    L[:, 0] = ext.gen_perms[:, 0]
    for h, elems, parents in tree:
        L[:, elems] = ext.gen_perms[h][L[:, parents]]
    M = np.empty((n, n), dtype=np.int32)
    M[0] = np.arange(n, dtype=np.int32)
    for h, elems, parents in tree:
        M[elems] = M[parents[:, None], L[h]]
    return M


def ext_inv_table(ext: ExtGroup, M: np.ndarray) -> np.ndarray:
    """Inverses from M; every generator is an involution: (p h)^-1 = h p^-1."""
    inv = np.zeros(ext.order, dtype=np.int32)
    for h, elems, parents in ext_bfs_tree(ext):
        inv[elems] = M[ext.gen_perms[h][0], inv[parents]]
    if M[np.arange(ext.order), inv].any():
        raise AssertionError("inverse table is wrong")
    return inv


def dense_check_vendramin(g, ext, sec):
    """check_vendramin, conjugating by rho(s) through the dense tables."""
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
    z = ext.z_elem
    for i in range(g.rank):
        s = g.simple_reflection(i)
        rs = sec.rho[s]
        for refl in g.reflections:
            y = refl.elem
            lhs = int(M[M[rs, sec.rho[y]], inv[rs]])
            rhs = sec.rho[g.conj(s, y)]
            if s != y:
                rhs = int(M[rhs, z])
            if lhs != rhs:
                return (s, y)
    return None


def dense_check_global(g, ext, sec):
    """check_global, conjugating by rho(w) through the dense tables."""
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
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


def dense_cocycle_identity_witness(mult, table, middles):
    """First (x, y, w) with phi(xy,w) + phi(x,y) != phi(x,yw) + phi(y,w).

    Checks every x and w but only the middle elements y in `middles`,
    reading x y and y w from the dense mult, and returns None when all
    of those triples hold.  With middles the simple reflections this
    accepts exactly the tables that satisfy the identity on all of
    W x W x W, normalized or not (Light's associativity test):

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


def dense_phi_rho(g, ext, sec) -> GroupCocycle2:
    """phi_rho from the dense tables: a |W|^2 array of
    rho(xy) rho(y)^-1 rho(x)^-1, checked to lie in {1, z}, then
    dense_phi_identities."""
    MW = g.mult_table()
    ME = ext_mult_table(ext)
    inv = ext_inv_table(ext, ME)
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
    dense_phi_identities(g, ext, sec, table)
    return GroupCocycle2(table=table)


def dense_phi_identities(g, ext, sec, table):
    """Raise CertificationError unless the table satisfies the group
    2-cocycle identity and the conjugation identity
    phi(x,y) (rho(x) > rho(y)) = phi(x>y, x) rho(x>y) over W x W."""
    MW = g.mult_table()
    ME = ext_mult_table(ext)
    inv = ext_inv_table(ext, ME)
    z = ext.z_elem
    rho = sec.rho
    rho_inv = inv[rho]

    simples = [g.simple_reflection(i) for i in range(g.rank)]
    witness = dense_cocycle_identity_witness(MW, table, simples)
    if witness is not None:
        raise CertificationError("phi-cocycle-identity", list(witness))

    inv_w = g.inv_arr
    zmul = ME[:, z]
    for x in range(g.order):
        conj_x = MW[MW[x], inv_w[x]]  # x > y for all y
        lhs = ME[ME[rho[x], rho], rho_inv[x]]
        lhs = np.where(table[x], zmul[lhs], lhs)
        rhs = rho[conj_x]
        rhs = np.where(table[conj_x, x], zmul[rhs], rhs)
        if not np.array_equal(lhs, rhs):
            y = int(np.nonzero(lhs != rhs)[0][0])
            raise CertificationError("phi-conjugation-identity", [int(x), y])


def dense_check_equivariance(g, table) -> bool:
    """Whether q(w1 w2, x) = q(w1, w2 > x) + q(w2, x) on W x W x T, for an
    exponent table of q on W x T, w1 w2 read from the dense mult."""
    M = g.mult_table()
    C = g.conj_refl_table()
    for w2 in range(g.order):
        lhs = table[M[:, w2], :]
        rhs = table[:, C[w2]] ^ table[w2][None, :]
        if not np.array_equal(lhs, rhs):
            return False
    return True


# -- sign cocycles ------------------------------------------------------------


def q_plus_table_by_length(g) -> np.ndarray:
    """The length-drop criterion l(w y) < l(w) on W x T, the products w y
    formed for all w at once by walking y's word through rmult.  It equals
    the root criterion of racks.q_plus_table (Humphreys 5.7)."""
    out = np.empty((g.order, len(g.reflections)), dtype=np.uint8)
    for k, t in enumerate(g.reflections):
        wy = np.arange(g.order)
        for i in g.word(t.elem):
            wy = g.rmult[wy, i]
        out[:, k] = g.length_arr[wy] < g.length_arr
    return out


def cohomologous_solve_by_elimination(q1, q2, X):
    """Gaussian elimination over GF(2) on bit masks: each equation
    bit(x>y) + bit(y) = log(q1/q2)(x, y) reduced by the pivots so far,
    the highest set bit of each reduced row its pivot, free unknowns 0.
    Returns the bits, or None when the system is inconsistent."""
    n = X.size
    pivots = {}
    for x in range(n):
        for y in range(n):
            mask = (1 << X.act[x][y]) ^ (1 << y)  # XOR handles x>y = y
            b = (q1.table[x][y] - q2.table[x][y]) % 2
            for col in sorted(pivots, reverse=True):
                if mask >> col & 1:
                    pmask, pb = pivots[col]
                    mask ^= pmask
                    b ^= pb
            if mask == 0:
                if b:
                    return None
                continue
            pivots[mask.bit_length() - 1] = (mask, b)
    bits = [0] * n
    for col in sorted(pivots):  # lower bits resolve before higher pivots
        mask, b = pivots[col]
        acc = b
        m = mask & ~(1 << col)
        while m:
            low = m & -m
            acc ^= bits[low.bit_length() - 1]
            m ^= low
        bits[col] = acc
    return tuple(bits)


# -- words, the length trichotomy and Chebyshev root sequences ----------------


def elem_of_word(g, word) -> int:
    """The element of a word, its letters applied left to right."""
    x = 0
    for i in word:
        x = int(g.rmult[x][i])
    return x


def reflect_simple(g, i: int, v: np.ndarray) -> np.ndarray:
    """s_i(v) = v - 2(alpha_i, v) alpha_i; only coordinate i moves."""
    out = v.copy()
    out[i] -= g.pairings(v)[i]
    return out


class Trichotomy(Enum):
    UP = "up"
    DOWN = "down"
    COMMUTE = "commute"


def length_trichotomy(g, beta_root: int, alpha_gen: int) -> Trichotomy:
    """Classify l(s_a s_b s_a) - l(s_b) by the exact sign of (alpha, beta),
    checked against the actual length change."""
    s = sign(g.pairings(g.pos_roots[beta_root])[alpha_gen], g.level)
    if beta_root == alpha_gen or s == 0:
        tag = Trichotomy.COMMUTE
    else:
        tag = Trichotomy.UP if s < 0 else Trichotomy.DOWN
    sb = g.reflections[g.refl_of_root[beta_root]].elem
    sa = g.simple_reflection(alpha_gen)
    diff = g.length(g.conj(sa, sb)) - g.length(sb)
    want = {Trichotomy.UP: 2, Trichotomy.DOWN: -2, Trichotomy.COMMUTE: 0}[tag]
    if diff != want:
        raise AssertionError(
            f"trichotomy tag {tag} does not match length change {diff}")
    if tag is Trichotomy.COMMUTE and g.mul(sa, sb) != g.mul(sb, sa):
        raise AssertionError("commute tag but the reflections do not commute")
    return tag


class PreconditionFailed(ValueError):
    """An operation's stated hypotheses do not hold for the arguments."""


def chebyshev_U(n: int, y: np.ndarray, level: int) -> np.ndarray:
    """U_n(y / 2), which is integral in y = 2 cos t: U_0 = 1, U_1 = y,
    U_(n+1) = y U_n - U_(n-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u_prev = np.zeros_like(y)
    u_prev[0] = 1
    if n == 0:
        return u_prev
    u = y
    for _ in range(n - 1):
        u_prev, u = u, mul(y, u, level) - u_prev
    return u


@dataclass(frozen=True)
class ChebyshevReport:
    """Outcome of one root sequence beta_0, beta_1 = s_(1) beta_0, ..."""

    beta: int                   # starting positive-root index
    i: int                      # generator with (alpha_i, beta) = 0
    j: int                      # generator with (alpha_j, beta) > 0
    m: int                      # bond order m_ij
    scalars: tuple[tuple[int, ...], ...]  # 2(beta_p, alpha_(p+1)), p < m
    tag: str                    # "length-drop" | "even-shortcut"
    stall: int | None           # q with beta_q = alpha_(q+1), shortcut only
    start_length: int
    end_length: int | None      # length of s_beta_(m-1), drop case only


def chebyshev_sequence(g, beta_root: int, i: int, j: int) -> ChebyshevReport:
    """Root sequence of the alternating conjugations, exactly verified.

    Hypotheses: beta positive non-simple, (alpha_i, beta) = 0 and
    (alpha_j, beta) > 0.  With delta = 2(alpha_j, beta) and
    y = 2 cos(pi/m_ij), the scalar 2(beta_p, alpha_(p+1)) must equal
    delta * U_p(y / 2) for every p; positivity holds through
    p = m_ij - 2 and the scalar vanishes at p = m_ij - 1.
    """
    l, lev = g.rank, g.level
    if not (0 <= i < l and 0 <= j < l) or i == j:
        raise PreconditionFailed("need two distinct generator indices")
    if beta_root < l:
        raise PreconditionFailed("beta must be a non-simple positive root")
    beta = g.pos_roots[beta_root]
    pair = g.pairings(beta)
    delta = pair[j]
    if sign(delta, lev) <= 0:
        raise PreconditionFailed("(alpha_j, beta) must be positive")
    if pair[i].any():
        raise PreconditionFailed("(alpha_i, beta) must vanish")
    m = g.matrix.entry(i, j)
    y = -g.matrix.gram()[i, j]
    simple_vec = g.pos_roots[:l]

    def alpha_gen(p: int) -> int:
        return i if p % 2 == 0 else j

    vec = beta
    scalars = []
    stall = None
    for p in range(m):
        a_next = alpha_gen(p + 1)
        scal = g.pairings(vec)[a_next]
        scalars.append(tuple(scal.tolist()))
        if not np.array_equal(scal, mul(delta, chebyshev_U(p, y, lev), lev)):
            raise AssertionError("scalar sequence leaves the Chebyshev line")
        want_sign = 1 if p <= m - 2 else 0
        if sign(scal, lev) != want_sign:
            raise AssertionError("scalar sign violates the sequence lemma")
        if (stall is None and p <= m - 2
                and np.array_equal(vec, simple_vec[a_next])):
            stall = p
        if p < m - 1:
            vec = reflect_simple(g, a_next, vec)

    start_len = g.length(g.reflections[g.refl_of_root[beta_root]].elem)
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

    root_index = {v.tobytes(): r for r, v in enumerate(g.pos_roots)}
    r_last = root_index.get(vec.tobytes())  # beta_(m-1)
    if r_last is None:
        raise AssertionError("drop sequence left the positive roots")
    s_last = g.reflections[g.refl_of_root[r_last]].elem
    end_len = g.length(s_last)
    if end_len != start_len - 2 * m + 2:
        raise AssertionError("drop case length bookkeeping failed")
    s_m = g.simple_reflection(alpha_gen(m))
    if g.mul(s_m, s_last) != g.mul(s_last, s_m):
        raise AssertionError("final reflections fail to commute")
    if np.array_equal(vec, simple_vec[alpha_gen(m)]):
        raise AssertionError("drop case ended on alpha_(m)")
    return ChebyshevReport(beta=beta_root, i=i, j=j, m=m,
                           scalars=tuple(scalars), tag="length-drop",
                           stall=None, start_length=start_len,
                           end_length=end_len)


def chebyshev_sweep(g) -> list[ChebyshevReport]:
    """Reports for every (beta, i, j) satisfying the hypotheses."""
    out = []
    for r in range(g.rank, g.nroots):
        signs = [sign(c, g.level) for c in g.pairings(g.pos_roots[r])]
        for i in range(g.rank):
            if signs[i] != 0:
                continue
            for j in range(g.rank):
                if j != i and signs[j] > 0:
                    out.append(chebyshev_sequence(g, r, i, j))
    return out


# -- dihedral subracks ----------------------------------------------------------


class NotDihedralError(ValueError):
    pass


class NotDivisorError(ValueError):
    pass


def dihedral_reflection_ids(g) -> list[int]:
    """Element ids of s (s's)^j for j = 0..m-1 in a rank-2 group."""
    if g.rank != 2:
        raise NotDihedralError("group is not dihedral (rank != 2)")
    m = g.matrix.entry(0, 1)
    step = g.mul(g.simple_reflection(1), g.simple_reflection(0))
    ids = [g.simple_reflection(0)]
    for _ in range(m - 1):
        ids.append(g.mul(ids[-1], step))
    return ids


def dihedral_subrack(g, n: int) -> Rack:
    """Subrack {s (s's)^j : n | j} of the reflections of an odd dihedral group."""
    if g.rank != 2:
        raise NotDihedralError("group is not dihedral (rank != 2)")
    m = g.matrix.entry(0, 1)
    if m % 2 == 0:
        raise NotDihedralError("dihedral subracks are defined for odd m")
    if n <= 0 or m % n != 0:
        raise NotDivisorError(f"{n} does not divide {m}")
    ids = dihedral_reflection_ids(g)
    js = [j for j in range(m) if j % n == 0]
    rack = reflection_rack(g).subrack(
        int(g.refl_index_of_elem[ids[j]]) for j in js)
    # closure law: s(s's)^j > s(s's)^l = s(s's)^(2j - l)
    for a, j in enumerate(js):
        for b, l in enumerate(js):
            assert rack.labels[rack.act[a][b]] == ids[(2 * j - l) % m]
    return rack


def rack_isomorphic(X: Rack, Y: Rack) -> bool:
    """Whether some bijection carries X's action onto Y's (small racks)."""
    n = X.size
    return n == Y.size and any(
        all(f[X.act[a][b]] == Y.act[f[a]][f[b]]
            for a in range(n) for b in range(n))
        for f in itertools.permutations(range(n)))


# -- the order-12 dihedral group: modules against the sign cocycles ------------


def v0_module(g, j: int) -> GradedModule:
    """One-dimensional module of I2(6) in the central degree c^3, c = s s':
    s acts by (-1)^j and c by -1."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    c = g.mul(g.simple_reflection(0), g.simple_reflection(1))
    one = np.zeros(1, dtype=np.int64)
    s_act, sp_act = (MonomialOp(6, one, one + 3 * j % 6),
                     MonomialOp(6, one, one + 3 * (j + 1) % 6))  # s' = s c
    return GradedModule(g=g, k=6, labels=(f"v0[{j}]",),
                        degrees=(g.mul(c, g.mul(c, c)),),
                        gen_actions=(s_act, sp_act))


def u_module_cocycle(g, j: int, primed: bool = False):
    """The rack cocycle of a three-dimensional module's braiding.

    Returns (class reflection indices, RackCocycle) with rows/columns in
    class order, so it is directly comparable to the restrictions of the
    two sign cocycles.
    """
    mod = u_module(g, j, primed)
    space = braided_from_graded(mod)
    refl_of_elem = {t.elem: t.index for t in g.reflections}
    class_of = next(c for c in g.reflection_classes()
                    if refl_of_elem[mod.degrees[0]] in c)
    order = {refl_of_elem[mod.degrees[b]]: b for b in range(mod.dim)}
    if set(order) != set(class_of):
        raise AssertionError("module support is not one reflection class")
    # the basis in class order; every scalar must be a sign, zeta_6^(0 or 3)
    basis = [order[t] for t in class_of]
    expo = np.array(space.expo)[np.ix_(basis, basis)]
    if (expo % 3).any():
        raise AssertionError("braiding scalar is not a sign")
    return class_of, RackCocycle(2, tuple(map(tuple, (expo // 3).tolist())))


def identify_u_modules(g, qp: RackCocycle, qm: RackCocycle, rack: Rack) -> dict:
    """Compare each three-dimensional module with the sign cocycles.

    For every module the braiding is a rack braiding on one reflection
    class; the record lists which restricted cocycle it literally equals
    and which it is cohomologous to (basis rescalings change the cocycle
    by a coboundary, so cohomology is the right invariant).
    """
    out = {}
    for primed in (False, True):
        for j in (0, 1):
            class_of, qu = u_module_cocycle(g, j, primed)
            sub = rack.subrack(class_of)
            rec = {}
            for name, q in (("q+", qp), ("q-", qm)):
                qr = q.restrict(class_of)
                rec[name] = {
                    "equal": qr.table == qu.table,
                    "cohomologous":
                        cohomologous_solve(qu, qr, sub) is not None,
                }
            out[("U'" if primed else "U") + str(j)] = rec
    return out
