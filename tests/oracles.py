"""Slow reference constructions shared by the tests."""

import itertools

import numpy as np

from coxrack.extension import (
    CertificationError,
    ExtGroup,
    GroupCocycle2,
    Presentation,
)
from coxrack.modlin import row_reduce_mod
from coxrack.nichols import BraidedSpace, MonomialOp, word_operator
from coxrack.racks import q_plus_table


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
    reduce_zeta_array for canonical comparisons.  O(n! N).
    """
    N = V.dim ** n
    acc = np.zeros((N, N, V.k), dtype=np.int64)
    cols = np.arange(N)
    for sigma in itertools.permutations(range(n)):
        op = perm_operator(V, n, sigma)
        np.add.at(acc, (op.perm, cols, op.expo), 1)
    return acc


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
            if val != sec(refl.elem):
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
    """check_equivariance over every w2, reading w1 w2 from the dense mult."""
    M = g.mult_table()
    C = g.conj_refl_table()
    for w2 in range(g.order):
        lhs = table[M[:, w2], :]
        rhs = table[:, C[w2]] ^ table[w2][None, :]
        if not np.array_equal(lhs, rhs):
            return False
    return True
