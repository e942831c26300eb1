"""Code only the tests run: slow reference constructions for the checks
the program makes, and helpers the program itself does not need."""

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple
from fractions import Fraction

import numpy as np

from coxrack.coxeter import CoxeterMatrix, RootSystem
from coxrack.cyclo import _machin_pi, euler_phi, mul, reduction_matrix, sign
from coxrack.dihedral import GradedModule, braided_from_graded, u_module
from coxrack.extension import CertificationError, ExtGroup, GroupCocycle2
from coxrack.modlin import primes_one_mod, root_of_unity_mod, row_reduce_mod
from coxrack.nichols import (
    PRIME_COUNT,
    BraidedSpace,
    ladder_ranks_iter,
    symmetrizer_factorized_exact,
    word_operator,
)
from coxrack.racks import (
    Rack,
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


def cos_enclosures_exact(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """cyclo._cos_enclosures(n, bits) before it summed in fixed point: the
    same Taylor sum S of cos x0, x0 = 2 pi min(k, n - k) / n with pi from
    _machin_pi(bits + 40), as one exact fraction num / den by Horner's
    rule, and floor and ceil of 2^bits (S -+ 2^-(bits+8))."""
    pi, pi_den = _machin_pi(bits + 40)
    terms = 1
    while 16 ** (terms + 1) << (bits + 40) >= math.factorial(2 * terms + 2):
        terms += 1
    out = []
    for k in range(euler_phi(n)):
        p2, q2 = (2 * min(k, n - k) * pi) ** 2, (n * pi_den) ** 2
        num = den = 1
        for j in range(terms, 0, -1):
            m = (2 * j - 1) * (2 * j) * q2
            num, den = den * m - p2 * num, den * m
        top, scale = num << (bits + 8), den << 8
        out.append(((top - den) // scale, -((-top - den) // scale)))
    return tuple(out)


def galois_by_scatter(a: np.ndarray, n: int, j: int) -> np.ndarray:
    """cyclo.galois as first written: the coefficients scattered to the
    powers jk mod n of an n-wide count array, then reduced."""
    raw = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    raw[..., (j * np.arange(a.shape[-1])) % n] = a
    return raw @ reduction_matrix(n)


def regular_matrix_by_mul(arr: np.ndarray, n: int) -> np.ndarray:
    """cyclo.regular_matrix as first written: column k of block (i, j)
    is the product arr[i, j] z^k, by mul with each basis vector."""
    r, c, phi = arr.shape
    cols = mul(arr[..., None, :], np.eye(phi, dtype=np.int64), n)
    return cols.transpose(0, 3, 1, 2).reshape(r * phi, c * phi)


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


def perm_operator(V: BraidedSpace, n: int, sigma
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Braid lift of a permutation through the length-additive section."""
    return word_operator(V, n, matsumoto_word(sigma))


def verify_matsumoto_invariance(V: BraidedSpace, n: int = 4) -> bool:
    """All reduced words of every permutation induce the same operator."""
    for sigma in itertools.permutations(range(n)):
        (perm, expo), *rest = [word_operator(V, n, w)
                               for w in all_reduced_words(sigma)]
        if any(not (np.array_equal(p, perm) and np.array_equal(e, expo))
               for p, e in rest):
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
        perm, expo = perm_operator(V, n, sigma)
        np.add.at(acc, (perm, cols, expo), 1)
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


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    m, n = a.shape
    work = np.array(a, dtype=np.int64) % p
    work, pivots = row_reduce_mod(work, p)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for r, pc in enumerate(pivots):
            basis[bi, pc] = (-work[r, fc]) % p
    return basis


# -- the quadraticity probe ----------------------------------------------------


def ideal_degree_rank(V: BraidedSpace, n: int, p: int,
                      kernel: np.ndarray) -> int:
    """Rank of the degree-n slice of the two-sided ideal on the kernel.

    The slice is spanned by the rows e_a (x) v (x) e_b, v in the kernel,
    over every position t of v: eye(d^t) (x) kernel (x) eye(d^(n-2-t)).
    """
    d = V.dim
    return rank_mod(np.concatenate([
        np.kron(np.kron(np.eye(d ** t, dtype=np.int64), kernel),
                np.eye(d ** (n - 2 - t), dtype=np.int64))
        for t in range(n - 1)]), p)


def is_quadratic_through(V: BraidedSpace, n: int) -> bool:
    """Whether relations up to degree n are generated in degree two.

    Compares, at each of the PRIME_COUNT primes of a modular run, in each
    degree 3..n, the symmetrizer nullity with the dimension of the degree
    slice of the ideal generated by the degree-2 kernel; the slice can
    never exceed the nullity.
    """
    if n < 3:
        raise ValueError("the probe starts at degree 3")
    verdicts = []
    for p in primes_one_mod(V.k, count=PRIME_COUNT):
        omega = root_of_unity_mod(p, V.k)
        ranks = [rank for _, rank in itertools.islice(
            ladder_ranks_iter(V, p, omega), n + 1)]
        ranks += [0] * (n + 1 - len(ranks))
        kernel = nullspace_mod(symmetrizer_mod(V, 2, p, omega), p)
        # nullity minus the dimension of the ideal slice, per degree
        slack = [V.dim ** deg - ranks[deg]
                 - ideal_degree_rank(V, deg, p, kernel)
                 for deg in range(3, n + 1)]
        if min(slack) < 0:
            raise AssertionError("ideal slice exceeds the relation space")
        verdicts.append(not any(slack))
    if len(set(verdicts)) != 1:
        raise AssertionError("quadraticity verdict disagrees across primes")
    return verdicts[0]


# -- reflection classes and the conjugacy graph --------------------------------


def reflection_classes_by_orbits(g) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of reflections (indices) by orbit closure under
    the simple reflections, s_i s_beta s_i = s_(s_i beta), on the
    positive roots; ordered by smallest index, as GroupTable.classes."""
    orbits, seen = [], set()
    for index, root in enumerate(g.refl_roots.tolist()):
        if index in seen:
            continue
        orbit, frontier = {root}, [root]
        while frontier:
            r = frontier.pop()
            for perm in g.gen_root_perm:
                q = perm[r] % g.nroots
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        ids = tuple(sorted(int(g.refl_of_root[r]) for r in orbit))
        orbits.append(ids)
        seen.update(ids)
    return tuple(sorted(orbits, key=min))


def conjugacy_graph(g) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Out-edges (i, y) of each reflection x, by multiplying along words:
    x --s_i--> y iff y = s_i > x and l(x) = l(y) + 2."""
    edges, index = [], refl_index_of_elem(g)
    for x in g.refl_elems.tolist():
        lx = g.length_arr[x]
        outs = []
        for i in range(g.rank):
            y = g.element((i,) + g.word(x) + (i,))
            if g.length_arr[y] == lx - 2:
                outs.append((i, int(index[y])))
        if lx > 1 and not outs:
            raise AssertionError(
                "non-simple reflection with no length-decreasing edge")
        edges.append(tuple(outs))
    return tuple(edges)


# -- reduced and palindromic words of reflections ------------------------------

REDEXPR_ORDER_CAP = 10_080  # reduced-word enumeration allowed up to |S6| * 2


def path_words(g, graph, refl_index: int) -> list[tuple[int, ...]]:
    """Palindromic words read off all maximal paths of the conjugacy
    graph from a reflection; a path ends at a simple reflection s_j,
    element 1 + j."""
    words: list[tuple[int, ...]] = []

    def walk(r, prefix):
        outs = graph[r]
        if not outs:
            words.append(tuple(prefix) + (int(g.refl_elems[r]) - 1,)
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
    if g.order > REDEXPR_ORDER_CAP and refl_index_of_elem(g)[e] < 0:
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
    x = int(g.refl_elems[refl_index])
    mirrored = {mirror(w) for w in reduced_expressions(g, x)}
    paths = set(path_words(g, conjugacy_graph(g), refl_index))
    if mirrored != paths:
        raise AssertionError(
            f"mirrored reduced words and graph paths disagree at {x}")
    return mirrored


# -- what the group build proves, checked on its tables -----------------------


def orbit_chain_order_by_parabolics(matrix: CoxeterMatrix) -> int:
    """|W| by the orbit chain as first written: |W delta| for delta the
    last root of the closure, times |W_J| from a new RootSystem on J's
    submatrix, J = {j : (alpha_j, delta) = 0} (1 for J empty)."""
    roots = RootSystem(matrix)
    R = roots.nroots
    pair = roots.pairings(roots.pos_roots[R - 1])
    if any(sign(p, roots.level) < 0 for p in pair):
        raise AssertionError("the last root is not in the closed chamber")
    orbit = [R - 1]
    for r in orbit:
        orbit += {p[r] for p in roots.gen_root_perm}.difference(orbit)
    J = [j for j in range(roots.rank) if not pair[j].any()]
    if not J:
        return len(orbit)
    sub = CoxeterMatrix(tuple(tuple(matrix.rows[a][b] for b in J) for a in J))
    return len(orbit) * orbit_chain_order_by_parabolics(sub)


def check_root_norms(roots):
    """(beta, beta) = 1 for every positive root, with the form doubled:
    sum_i beta_i 2(alpha_i, beta) = 2.  Raises AssertionError."""
    norms = mul(roots.pos_roots, roots.pairings(roots.pos_roots),
                roots.level).sum(axis=1)
    if (norms[:, 0] != 2).any() or norms[:, 1:].any():
        raise AssertionError("root does not have unit norm")


def act_on_signed(g, w, x):
    """w(x) on signed root indices, read from w's positive-root images:
    w(-beta) = -w(beta).  Broadcasts over w and x."""
    R = g.nroots
    img = g.perms[w, x % R].astype(np.intp)
    return np.where(x >= R, (img + R) % (2 * R), img)


def check_right_multiples(g):
    """Every entry of rmult is an element, and (w s_i)(beta) =
    w(s_i beta) on every positive root: an element is fixed by its root
    images, so this pins all of rmult.  Raises AssertionError."""
    R, rmult = g.nroots, g.rmult
    if rmult.min() < 0 or rmult.max() >= g.order:
        raise AssertionError("a right multiple is not an up- or down-move")
    w = np.arange(g.order)[:, None]
    for i, perm in enumerate(g.gen_root_perm):
        want = act_on_signed(g, w, np.array(perm[:R]))
        if not np.array_equal(g.perms[rmult[:, i]], want):
            raise AssertionError("a right multiple has the wrong root images")


def check_lengths(g):
    """l(w), the BFS level, is the number of positive roots w sends to
    negative roots (Humphreys 5.6).  Raises AssertionError."""
    if not np.array_equal((g.perms >= g.nroots).sum(axis=1), g.length_arr):
        raise AssertionError("root-counting length disagrees with BFS length")


def check_inverses(g):
    """w^-1(w(alpha_j)) = alpha_j for every w and simple root: an element
    fixing every simple root is the identity.  Raises AssertionError."""
    back = act_on_signed(g, g.inv_arr[:, None], g.perms[:, :g.rank])
    if (back != np.arange(g.rank)).any():
        raise AssertionError("inverse table fails on the simple roots")


def check_reflections(g):
    """The reflections: refl_elems ascending, so the map from roots is
    injective, refl_of_root the inverse of refl_roots, and each element
    of odd length, an involution and negating its root.  Raises
    AssertionError."""
    R, elems, roots = g.nroots, g.refl_elems, g.refl_roots
    if not (np.diff(elems) > 0).all():
        raise AssertionError("reflection/positive-root map is not injective")
    if not np.array_equal(g.refl_of_root[roots], np.arange(R)):
        raise AssertionError("refl_of_root does not invert refl_roots")
    if not (g.length_arr[elems] % 2).all():
        raise AssertionError("reflection of even length")
    if not np.array_equal(act_on_signed(g, elems[:, None], g.perms[elems]),
                          np.broadcast_to(np.arange(R), (R, R))):
        raise AssertionError("reflection is not an involution")
    if not np.array_equal(g.perms[elems, roots], roots + R):
        raise AssertionError("reflection does not negate its root")


# -- the extension by Todd-Coxeter enumeration ---------------------------------


class Presentation(NamedTuple):
    """Generators t_0..t_(l-1) plus central z, with the lifted relations.

    Relator words are over a signed alphabet: letter 2g is generator g,
    letter 2g + 1 its inverse.
    """

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    @classmethod
    def wtilde(cls, matrix) -> "Presentation":
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


def relator_witness(pres: Presentation, perms) -> tuple[int, ...] | None:
    """The first relator that does not close at every point of the
    permutations `perms` (one per generator), or None; inverse letters
    act by the inverse permutations."""
    letter_act = [a for pm in np.asarray(perms)
                  for a in (pm, np.argsort(pm))]
    points = np.arange(len(letter_act[0]))
    for word in pres.relators:
        x = points
        for letter in word:
            x = letter_act[letter][x]
        if not np.array_equal(x, points):
            return word
    return None


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
    if relator_witness(pres, perms) is not None:
        raise AssertionError("relator does not close on the coset table")
    return perms


def edge_bits_by_pair(g) -> np.ndarray:
    """extension.coset_enumeration's edge bits c[w, i] as first written:
    per length level, one pass per ordered pair (j, i), j the last
    ShortLex letter of the tops v and i another descent of v, walking
    the 2m-gon of v<s_i, s_j> from v s_i around to v s_j."""
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
                top = tops[(g.last[lo:hi] == j) & descent[lo:hi, i]]
                m = g.matrix.entry(i, j)
                bit = np.full(top.size, (m + 1) % 2, dtype=np.uint8)
                x = rmult[top, i]
                for k in range(2 * m - 2):
                    s = (j, i)[k % 2]
                    bit ^= c[x, s]
                    x = rmult[x, s]
                c[top, i] = c[rmult[top, i], i] = bit
    return c


# -- the section along every path of the conjugacy graph ----------------------


def path_section_witness(g, ext, rho):
    """The section recomputed along every path of the conjugacy graph.

    A path x --s_1--> ... --s_k--> s_j reads the palindromic word
    s_1 ... s_k j s_k ... s_1; its value is the word's lift times z^k.
    Returns None when every value is rho(x), else (x, word) for the
    first path whose value is not.
    """
    zp = ext.gen_perms[ext.nt]
    graph = conjugacy_graph(g)
    for index, x in enumerate(g.refl_elems.tolist()):
        for word in path_words(g, graph, index):
            val = 0
            for letter in word:
                val = int(ext.gen_perms[letter, val])
            if len(word) // 2 % 2:
                val = int(zp[val])
            if val != rho[x]:
                return (x, list(word))
    return None


# -- the group laws and the split witness, checked on the table ---------------


def check_extension_laws(g, ext: ExtGroup):
    """What build_wtilde proves from the relators, checked on the table:
    every generator an involution, z central, and pi: w + eps |W| -> w a
    homomorphism, t_i -> s_i and z -> 1.  Raises AssertionError."""
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


def verify_split_witness(g, ext: ExtGroup, bits):
    """The lifts t_i z^b_i generate a complement of {1, z}: a BFS over
    the extension from the identity reaches |W| elements and not z.
    Raises CertificationError at stage split-witness otherwise."""
    zp = ext.gen_perms[ext.nt]
    gens = [zp[ext.gen_perms[i]] if b else ext.gen_perms[i]
            for i, b in enumerate(bits)]
    seen = np.zeros(ext.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.unique(np.concatenate([p[frontier] for p in gens]))
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    if seen.sum() != g.order or seen[g.order]:
        raise CertificationError("split-witness", list(bits))


def split_lifts(g, ext: ExtGroup) -> list[tuple[int, ...]]:
    """Every bit vector b, of all 2^l, whose lifts t_i z^b_i pass
    verify_split_witness."""
    out = []
    for bits in itertools.product((0, 1), repeat=g.rank):
        try:
            verify_split_witness(g, ext, bits)
        except CertificationError:
            continue
        out.append(bits)
    return out


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


def dense_check_vendramin(g, ext, rho):
    """check_vendramin, conjugating by rho(s) through the dense tables."""
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
    z = g.order
    for i in range(g.rank):
        s = 1 + i
        rs = rho[s]
        for y in g.refl_elems.tolist():
            lhs = int(M[M[rs, rho[y]], inv[rs]])
            rhs = rho[product(g, s, y, s)]
            if s != y:
                rhs = int(M[rhs, z])
            if lhs != rhs:
                return (s, y)
    return None


def dense_check_global(g, ext, rho):
    """check_global, conjugating by rho(w) through the dense tables."""
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
    z = g.order
    eplus = q_plus_table(g)
    parity = (g.length_arr % 2).astype(np.uint8)
    conj_refl = g.conj_refl_table()
    refl_elems = g.refl_elems
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


def dense_phi_rho(g, ext, rho) -> GroupCocycle2:
    """phi_rho from the dense tables: a |W|^2 array of
    rho(xy) rho(y)^-1 rho(x)^-1, checked to lie in {1, z}, then
    dense_phi_identities."""
    MW = g.mult_table()
    ME = ext_mult_table(ext)
    inv = ext_inv_table(ext, ME)
    z = g.order
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
    dense_phi_identities(g, ext, rho, table)
    return GroupCocycle2(table=DenseRows(table))


class DenseRows:
    """A dense |W| x |W| table as the row source that phi_checksum and
    certify_twist read, `chunk` rows at a time (all of them by default)."""

    def __init__(self, table: np.ndarray, chunk: int | None = None):
        self.table = table
        self.shape, self.size = table.shape, table.size
        self.chunk = chunk or table.shape[0]

    def rows(self, xs) -> np.ndarray:
        return self.table[xs]


def dense_table(phi: GroupCocycle2) -> np.ndarray:
    """Every row of phi's row source, as one |W| x |W| array."""
    return np.asarray(phi.table.rows(np.arange(phi.table.shape[0])))


def dense_phi_identities(g, ext, rho, table):
    """Raise CertificationError unless the table satisfies the group
    2-cocycle identity and the conjugation identity
    phi(x,y) (rho(x) > rho(y)) = phi(x>y, x) rho(x>y) over W x W."""
    MW = g.mult_table()
    ME = ext_mult_table(ext)
    inv = ext_inv_table(ext, ME)
    z = g.order
    rho_inv = inv[rho]

    simples = range(1, g.rank + 1)
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


def refl_index_of_elem(g) -> np.ndarray:
    """(|W|,) reflection index of each element, -1 off the reflections."""
    out = np.full(g.order, -1, dtype=np.int64)
    out[g.refl_elems] = np.arange(g.nroots)
    return out


def q_minus_table(g) -> np.ndarray:
    """(|W|, |T|) exponent table of the determinant function on W x T:
    the parity of l(w) in every column."""
    col = (g.length_arr % 2).astype(np.uint8)
    return np.repeat(col[:, None], g.nroots, axis=1)


def q_plus_table_by_length(g) -> np.ndarray:
    """The length-drop criterion l(w y) < l(w) on W x T, the products w y
    formed for all w at once by walking y's word through rmult.  It equals
    the root criterion of racks.q_plus_table (Humphreys 5.7)."""
    out = np.empty((g.order, g.nroots), dtype=np.uint8)
    for k, y in enumerate(g.refl_elems.tolist()):
        wy = np.arange(g.order)
        for i in g.word(y):
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
            mask = (1 << int(X.act[x, y])) ^ (1 << y)  # XOR handles x>y = y
            b = int(q1[x, y] ^ q2[x, y]) & 1
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


def product(g, *elems) -> int:
    """The product of elements of W, their ShortLex words concatenated."""
    return g.element(sum((g.word(e) for e in elems), ()))


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
    sb = int(g.refl_elems[g.refl_of_root[beta_root]])
    sa = 1 + alpha_gen
    diff = g.length_arr[product(g, sa, sb, sa)] - g.length_arr[sb]
    want = {Trichotomy.UP: 2, Trichotomy.DOWN: -2, Trichotomy.COMMUTE: 0}[tag]
    if diff != want:
        raise AssertionError(
            f"trichotomy tag {tag} does not match length change {diff}")
    if tag is Trichotomy.COMMUTE and product(g, sa, sb) != product(g, sb, sa):
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

    start_len = int(g.length_arr[g.refl_elems[g.refl_of_root[beta_root]]])
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
    s_last = int(g.refl_elems[g.refl_of_root[r_last]])
    end_len = int(g.length_arr[s_last])
    if end_len != start_len - 2 * m + 2:
        raise AssertionError("drop case length bookkeeping failed")
    s_m = 1 + alpha_gen(m)
    if product(g, s_m, s_last) != product(g, s_last, s_m):
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
    return [g.element((0,) + (1, 0) * j) for j in range(m)]


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
        refl_index_of_elem(g)[[ids[j] for j in js]])
    # closure law: s(s's)^j > s(s's)^l = s(s's)^(2j - l)
    for a, j in enumerate(js):
        for b, l in enumerate(js):
            assert rack.labels[rack.act[a, b]] == ids[(2 * j - l) % m]
    return rack


def rack_isomorphic(X: Rack, Y: Rack) -> bool:
    """Whether some bijection carries X's action onto Y's (small racks)."""
    return X.size == Y.size and any(
        np.array_equal(f[X.act], Y.act[np.ix_(f, f)])
        for f in map(np.array, itertools.permutations(range(X.size))))


def rack_axioms_hold(act: np.ndarray) -> bool:
    """Whether each row of the action table is a permutation and
    x > (y > z) = (x > y) > (x > z) on every triple."""
    rows = np.tile(np.arange(len(act)), (len(act), 1))
    return (np.array_equal(np.sort(act, axis=1), rows)
            and np.array_equal(act[:, act],
                               act[act[:, :, None], act[:, None]]))


# -- the order-12 dihedral group: modules against the sign cocycles ------------


def v0_module(g, j: int) -> GradedModule:
    """One-dimensional module of I2(6) in the central degree c^3, c = s s':
    s acts by (-1)^j and c by -1."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    one = np.zeros(1, dtype=np.int64)
    s_act, sp_act = ((one, one + 3 * j % 6),
                     (one, one + 3 * (j + 1) % 6))  # s' = s c
    return GradedModule(g=g, k=6, degrees=(g.element((0, 1) * 3),),
                        gen_actions=(s_act, sp_act))


def u_module_cocycle(g, j: int, primed: bool = False):
    """The rack cocycle of a three-dimensional module's braiding.

    Returns (class reflection indices, exponent table mod 2) with rows
    and columns in class order, so it is directly comparable to the
    restrictions of the two sign cocycles.
    """
    mod = u_module(g, j, primed)
    space = braided_from_graded(mod)
    refl_of_elem = refl_index_of_elem(g).tolist()
    class_of = next(c for c in g.classes
                    if refl_of_elem[mod.degrees[0]] in c)
    order = {refl_of_elem[mod.degrees[b]]: b for b in range(mod.dim)}
    if set(order) != set(class_of):
        raise AssertionError("module support is not one reflection class")
    # the basis in class order; every scalar must be a sign, zeta_6^(0 or 3)
    basis = [order[t] for t in class_of]
    expo = space.expo[np.ix_(basis, basis)]
    if (expo % 3).any():
        raise AssertionError("braiding scalar is not a sign")
    return class_of, (expo // 3).astype(np.uint8)


def identify_u_modules(g, qp, qm, rack: Rack) -> dict:
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
                qr = q[np.ix_(class_of, class_of)]
                rec[name] = {
                    "equal": np.array_equal(qr, qu),
                    "cohomologous":
                        cohomologous_solve(qu, qr, sub) is not None,
                }
            out[("U'" if primed else "U") + str(j)] = rec
    return out
