"""Group tables: enumeration, lengths, reflections, graphs, Chebyshev runs.

Derived expected values come from two oracles that share no code with
the builder: classical order formulas, and closure of floating-point
reflection matrices.
"""

import math

import mpmath
import numpy as np
import pytest

from coxrack import coxeter
from coxrack.cyclo import CycloNumber
from coxrack.coxeter import (
    CoxeterMatrix,
    GroupTable,
    InvalidMatrixError,
    NotFiniteError,
    PreconditionFailed,
    Reflection,
    Trichotomy,
    build_group,
    chebyshev_U,
    parse_matrix_file,
    preset_matrix,
    require_finite,
)
from oracles import (
    mirror,
    palindromic_expressions,
    path_words,
    reduced_expressions,
)

# classical orders (independent of the enumeration code)
KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192,
    "H3": 120,
    "F4": 1152, "H4": 14400, "E6": 51840,
    "I2(4)": 8, "I2(5)": 10, "I2(6)": 12, "I2(7)": 14, "I2(15)": 30,
}


def float_closure_order(matrix: CoxeterMatrix, cap: int = 3000) -> int:
    """Brute-force order oracle: close float reflection matrices."""
    l = matrix.rank
    B = np.array([[-math.cos(math.pi / matrix.entry(i, j)) for j in range(l)]
                  for i in range(l)])
    gens = []
    for i in range(l):
        g = np.eye(l)
        g[i, :] -= 2 * B[i, :]
        gens.append(g)

    def key(m):
        return tuple(np.round(m, 6).ravel())

    seen = {key(np.eye(l)): np.eye(l)}
    frontier = [np.eye(l)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                cand = g @ m
                k = key(cand)
                if k not in seen:
                    seen[k] = cand
                    nxt.append(cand)
                    if len(seen) > cap:
                        raise RuntimeError("float closure oracle cap hit")
        frontier = nxt
    return len(seen)


@pytest.fixture(scope="module")
def groups():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_group(preset_matrix(name))
        return cache[name]

    return get


def test_matrix_validation():
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix.from_rows([[2]])
    with pytest.raises(InvalidMatrixError):
        CoxeterMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(InvalidMatrixError):
        preset_matrix("Q7")


def test_matrix_file_round_trip(tmp_path):
    m = preset_matrix("B3")
    path = tmp_path / "b3.txt"
    path.write_text("3\n" + "\n".join(" ".join(str(v) for v in row)
                                      for row in m.rows) + "\n")
    assert parse_matrix_file(path) == m


@pytest.mark.parametrize("name", ["A2", "I2(5)", "B3", "A3", "D4", "H3"])
def test_orders_against_both_oracles(groups, name):
    g = groups(name)
    assert g.order == KNOWN_ORDERS[name]
    assert g.order == float_closure_order(g.matrix)
    assert g.nroots == len(g.reflections)
    assert g.order % 2 == 0


def test_basic_counts(groups):
    a2 = groups("A2")
    assert (a2.order, a2.nroots) == (6, 3)
    i25 = groups("I2(5)")
    assert (i25.order, i25.nroots) == (10, 5)
    b3 = groups("B3")
    assert b3.nroots == 9
    assert sorted(len(c) for c in b3.classes) == [3, 6]


def chain_matrix(*bonds):
    """Coxeter matrix of the chain with consecutive bond orders `bonds`."""
    n = len(bonds) + 1
    rows = [[1 if a == b else 2 for b in range(n)] for a in range(n)]
    for a, m in enumerate(bonds):
        rows[a][a + 1] = rows[a + 1][a] = m
    return CoxeterMatrix.from_rows(rows)


# affine A~2, B~2 and G~2, the hyperbolic (2, 3, 7) triangle group, and
# the hyperbolic chain 5-3-3-3 (one node past H4)
INFINITE_MATRICES = [
    CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]]),
    chain_matrix(4, 4),
    chain_matrix(6, 3),
    chain_matrix(7, 3),
    chain_matrix(5, 3, 3, 3),
]


def test_infinite_matrices_refused_up_front(monkeypatch):
    # refused from the form alone: no root is ever enumerated
    def no_roots(self):
        raise AssertionError("root closure started on an infinite group")

    monkeypatch.setattr(GroupTable, "_build_roots", no_roots)
    for matrix in INFINITE_MATRICES:
        with pytest.raises(NotFiniteError, match="not positive definite"):
            build_group(matrix)


@pytest.mark.parametrize("name", ["A1", "A8", "B8", "D5", "D8", "E6", "E7",
                                  "E8", "F4", "H3", "H4", "I2(200)"])
def test_finite_forms_are_positive_definite(name):
    require_finite(preset_matrix(name).gram())


def test_element_bfs_hits_cap(monkeypatch):
    # E6 is finite, so it passes the form test and the element
    # enumeration is the one that stops
    monkeypatch.setattr(coxeter, "DEFAULT_ELEMENT_CAP", 1000)
    with pytest.raises(NotFiniteError,
                       match="finite but larger than the cap"):
        build_group(preset_matrix("E6"))


def test_e6_order_reflections_and_classes(groups):
    g = groups("E6")
    assert g.order == KNOWN_ORDERS["E6"]
    assert len(g.reflections) == g.nroots == 36
    assert [len(c) for c in g.reflection_classes()] == [36]


class LegacyGroupTable(GroupTable):
    """Oracle: the per-element builder.  Roots are reflected twice (closure,
    then each generator's permutation), elements are 2R-entry tuples found
    through a perm -> id dict, inverses by inverting each permutation."""

    def _build_roots(self):
        l = self.rank
        zero, one = CycloNumber.zero(self.level), CycloNumber.one(self.level)
        simples = [tuple(one if k == i else zero for k in range(l))
                   for i in range(l)]

        def key(vec):
            return tuple(c.coeffs for c in vec)

        def inner(u, v):
            acc = CycloNumber.zero(self.level)
            for i, ci in enumerate(u):
                if not ci.is_zero():
                    acc = acc + ci * self.inner_simple(i, v)
            return acc

        pos = list(simples)
        index = {key(v): i for i, v in enumerate(pos)}
        parent = [None] * l
        base_simple = list(range(l))
        head = 0
        while head < len(pos):
            beta = pos[head]
            for i in range(l):
                image = self._reflect_simple(i, beta)
                k = key(image)
                if k in index or key(tuple(-c for c in image)) in index:
                    continue
                index[k] = len(pos)
                pos.append(image)
                parent.append((i, head))
                base_simple.append(base_simple[head])
            head += 1
        for beta in pos:
            signs = [c.sign() for c in beta]
            assert not any(s < 0 for s in signs)
            assert not all(s == 0 for s in signs)
            assert inner(beta, beta) == 1
        self.pos_roots = pos
        self.nroots = R = len(pos)
        self._root_index = index
        self._root_parent = parent
        self._root_base_simple = base_simple
        perms = []
        for i in range(l):
            perm = [0] * (2 * R)
            for r in range(R):
                image = self._reflect_simple(i, pos[r])
                k = key(image)
                if k in index:
                    perm[r], perm[r + R] = index[k], index[k] + R
                else:
                    nk = key(tuple(-c for c in image))
                    perm[r], perm[r + R] = index[nk] + R, index[nk]
            perms.append(tuple(perm))
        self.gen_root_perm = tuple(perms)

    def _build_elements(self):
        R = self.nroots
        ident = tuple(range(2 * R))
        perms, words, index = [ident], [()], {ident: 0}
        rmult_rows = [[0] * self.rank]
        head = 0
        while head < len(perms):
            perm = perms[head]
            for i in range(self.rank):
                gen = self.gen_root_perm[i]
                new = tuple(perm[gen[r]] for r in range(2 * R))
                eid = index.get(new)
                if eid is None:
                    eid = index[new] = len(perms)
                    perms.append(new)
                    words.append(words[head] + (i,))
                    rmult_rows.append([0] * self.rank)
                rmult_rows[head][i] = eid
            head += 1
        self.order = len(perms)
        self.words = words
        self.perms = np.array(perms, dtype=np.int32)
        self.rmult = np.array(rmult_rows, dtype=np.int32)
        self.length_arr = np.array([len(w) for w in words], dtype=np.int32)
        self._perm_index = index
        inv = np.empty(self.order, dtype=np.int32)
        for e in range(self.order):
            q = [0] * (2 * R)
            for r in range(2 * R):
                q[perms[e][r]] = r
            inv[e] = index[tuple(q)]
        self.inv_arr = inv
        self._parent = self._last = None  # mult_table is not an oracle here

    def _build_reflections(self):
        R = self.nroots
        refl_elem_of_root = [0] * R
        for r in range(R):
            par = self._root_parent[r]
            if par is None:
                refl_elem_of_root[r] = 1 + r
            else:
                i, pr = par
                gen = self.gen_root_perm[i]
                base = self.perms[refl_elem_of_root[pr]]
                conj = tuple(int(gen[base[gen[k]]]) for k in range(2 * R))
                refl_elem_of_root[r] = self._perm_index[conj]
        order = sorted(range(R), key=lambda r: refl_elem_of_root[r])
        self.reflections = tuple(
            Reflection(index=k, elem=refl_elem_of_root[r], root=r)
            for k, r in enumerate(order))
        self.refl_of_root = [0] * R
        for refl in self.reflections:
            self.refl_of_root[refl.root] = refl.index


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4", "H4"])
def test_tables_match_legacy_builder(groups, name):
    g = groups(name)
    old = LegacyGroupTable(g.matrix)
    assert g.gen_root_perm == old.gen_root_perm
    for attr in ("perms", "rmult", "length_arr", "inv_arr"):
        new_arr, old_arr = getattr(g, attr), getattr(old, attr)
        assert new_arr.dtype == old_arr.dtype, attr
        assert np.array_equal(new_arr, old_arr), attr
    assert [g.word(w) for w in range(g.order)] == old.words
    assert g.reflections == old.reflections
    assert g.refl_of_root == old.refl_of_root
    assert g.classes == old.classes


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "H4"])
def test_word_reads_the_shortlex_tree(groups, name):
    g = groups(name)
    for w in range(g.order):
        word = g.word(w)
        assert g.elem_of_word(word) == w
        assert len(word) == g.length(w)


def test_lengths_and_det(groups):
    a2 = groups("A2")
    assert a2.length(0) == 0 and a2.det(0) == 1
    for i in range(a2.rank):
        s = a2.simple_reflection(i)
        assert a2.length(s) == 1 and a2.det(s) == -1
    w0 = max(range(a2.order), key=a2.length)
    assert a2.length(w0) == 3 and a2.det(w0) == -1
    # length is a BFS distance: |l(ws) - l(w)| = 1 everywhere
    for w in range(a2.order):
        for i in range(a2.rank):
            assert abs(a2.length(int(a2.rmult[w][i])) - a2.length(w)) == 1


def test_group_axioms_small(groups):
    g = groups("A2")
    for a in range(g.order):
        assert g.mul(0, a) == a == g.mul(a, 0)
        assert g.mul(a, g.inv(a)) == 0
        for b in range(g.order):
            for c in range(g.order):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_mult_table_matches_mul(groups):
    g = groups("B3")
    M = g.mult_table()
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.integers(0, g.order, 2)
        assert M[a, b] == g.mul(int(a), int(b))


def mult_table_by_columns(g):
    """Oracle: column b of the table is column parent(b) moved by the last
    letter of b's word, the parent found by walking the word."""
    n = g.order
    M = np.empty((n, n), dtype=np.int32)
    M[:, 0] = np.arange(n, dtype=np.int32)
    for b in range(1, n):
        w = g.word(b)
        M[:, b] = g.rmult[M[:, g.elem_of_word(w[:-1])], w[-1]]
    return M


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4"])
def test_mult_table_matches_column_oracle(groups, name):
    g = groups(name)
    M = g.mult_table()
    assert M.dtype == np.int32
    assert np.array_equal(M, mult_table_by_columns(g))


def conj_refl_table_by_mult(g):
    """Oracle: w > y = w y w^-1 read off the |W| x |W| table."""
    M = g.mult_table()
    refl_elems = np.array([t.elem for t in g.reflections])
    out = g.refl_index_of_elem[M[M[:, refl_elems], g.inv_arr[:, None]]]
    assert (out >= 0).all(), "conjugate of a reflection is not a reflection"
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4"])
def test_conj_refl_table_matches_mult_oracle(groups, name):
    g = groups(name)
    C = g.conj_refl_table()
    assert C.dtype == np.int32
    assert np.array_equal(C, conj_refl_table_by_mult(g))


def test_acts_negatively_examples_and_agreement(groups):
    a2 = groups("A2")
    # w = y = simple reflection: s(alpha_s) = -alpha_s
    for i in range(2):
        s = a2.simple_reflection(i)
        y = int(a2.refl_index_of_elem[s])
        assert a2.acts_negatively(s, y)
    # commuting generators fix each other's root
    a13 = build_group(CoxeterMatrix.from_rows([[1, 2], [2, 1]]))
    s0 = a13.simple_reflection(0)
    y1 = int(a13.refl_index_of_elem[a13.simple_reflection(1)])
    assert not a13.acts_negatively(s0, y1)
    # A2: w = s1 s2, y = s2; exhaustive agreement is asserted internally
    w = a2.elem_of_word((0, 1))
    y = int(a2.refl_index_of_elem[a2.simple_reflection(1)])
    assert a2.acts_negatively(w, y)
    for g in (a2, groups("B3")):
        for w in range(g.order):
            for t in range(len(g.reflections)):
                g.acts_negatively(w, t)  # raises on disagreement


def test_reflection_classes(groups):
    assert len(groups("A2").reflection_classes()) == 1
    assert len(groups("A3").reflection_classes()) == 1
    i24 = groups("I2(4)")
    assert [len(c) for c in i24.reflection_classes()] == [2, 2]
    b3 = groups("B3")
    assert sorted(len(c) for c in b3.reflection_classes()) == [3, 6]
    # B_l sizes: l^2 - l and l
    assert {len(c) for c in b3.reflection_classes()} == {6, 3}


def test_reflection_root_bijection(groups):
    for name in ("A2", "B3", "I2(5)"):
        g = groups(name)
        assert len(g.reflections) == g.nroots
        for refl in g.reflections:
            assert g.refl_of_root[refl.root] == refl.index
            assert g.act_root(refl.elem, refl.root) == refl.root + g.nroots


def test_reduced_and_palindromic_expressions(groups):
    a2 = groups("A2")
    s0 = a2.simple_reflection(0)
    assert reduced_expressions(a2, s0) == {(0,)}
    assert palindromic_expressions(a2, int(a2.refl_index_of_elem[s0])) == {(0,)}
    x = a2.elem_of_word((0, 1, 0))
    assert reduced_expressions(a2, x) == {(0, 1, 0), (1, 0, 1)}
    assert palindromic_expressions(a2, int(a2.refl_index_of_elem[x])) == \
        {(0, 1, 0), (1, 0, 1)}
    # longest element of A3 has 16 reduced words (classical count)
    a3 = groups("A3")
    w0 = max(range(a3.order), key=a3.length)
    assert len(reduced_expressions(a3, w0)) == 16


def test_palindromic_cross_route_battery(groups):
    for name in ("B2", "A3", "B3", "I2(7)"):
        g = groups(name)
        for refl in g.reflections:
            words = palindromic_expressions(g, refl.index)
            for w in words:
                assert w == tuple(reversed(w))
                assert g.elem_of_word(w) == refl.elem
                assert len(w) == g.length(refl.elem)


def test_mirror():
    assert mirror((1,)) == (1,)
    assert mirror((0, 1, 2)) == (0, 1, 0)
    pal = (0, 1, 2, 1, 0)
    assert mirror(pal) == pal
    with pytest.raises(ValueError):
        mirror((0, 1))


def test_conjugacy_graph(groups):
    a1 = build_group(preset_matrix("A1"))
    assert a1.conjugacy_graph().edges == ((),)
    a2 = groups("A2")
    graph = a2.conjugacy_graph()
    long_refl = next(t for t in a2.reflections if a2.length(t.elem) == 3)
    outs = dict(graph.out_edges(long_refl.index))
    # s1 s2 s1 drops to s2 via conjugation by s1, and to s1 via s2
    assert set(outs) == {0, 1}
    for t in a2.reflections:
        if a2.length(t.elem) == 1:
            assert graph.out_edges(t.index) == ()
    # I2(4): each length-3 reflection has exactly one outgoing edge
    i24 = groups("I2(4)")
    gr = i24.conjugacy_graph()
    for t in i24.reflections:
        if i24.length(t.elem) == 3:
            assert len(gr.out_edges(t.index)) == 1


def test_graph_paths_have_uniform_length(groups):
    for name in ("A3", "B3", "H3"):
        g = groups(name)
        graph = g.conjugacy_graph()
        for refl in g.reflections:
            words = path_words(graph, refl.index)
            lens = {len(w) for w in words}
            assert lens == {g.length(refl.elem)}


def test_length_trichotomy(groups):
    a2 = groups("A2")
    # beta = alpha: commute
    assert a2.length_trichotomy(0, 0) is Trichotomy.COMMUTE
    # A2: beta = alpha_2, alpha = alpha_1 -> up (lengths 1 -> 3)
    assert a2.length_trichotomy(1, 0) is Trichotomy.UP
    # beta = alpha_1 + alpha_2 (the non-simple root), alpha = alpha_1 -> down
    nonsimple = next(r for r in range(a2.nroots) if r > 1)
    assert a2.length_trichotomy(nonsimple, 0) is Trichotomy.DOWN
    # exhaustive internal consistency on a battery
    for name in ("A3", "B3", "I2(6)"):
        g = groups(name)
        for r in range(g.nroots):
            for i in range(g.rank):
                g.length_trichotomy(r, i)


def test_chebyshev_polynomials():
    # integer-coefficient oracle for U_n
    def upoly(n):
        a, b = [1], [0, 2]
        if n == 0:
            return a
        for _ in range(n - 1):
            nxt = [0] + [2 * c for c in b]
            for k, c in enumerate(a):
                nxt[k] -= c
            a, b = b, nxt
        return b

    assert upoly(2) == [-1, 0, 4]  # U_2 = 4x^2 - 1
    from coxrack.cyclo import CycloNumber, cos_of_pi_over

    for n in range(7):
        coeffs = upoly(n)
        for x in (cos_of_pi_over(5), cos_of_pi_over(7),
                  CycloNumber.from_rational(2, 1)):
            poly_val = CycloNumber.zero(x.level)
            for k in reversed(range(len(coeffs))):
                poly_val = poly_val * x + coeffs[k]
            assert chebyshev_U(n, x) == poly_val


def test_chebyshev_sin_relation():
    # sin(t) U_n(cos t) = sin((n+1) t), numerically at t = pi/5
    from coxrack.cyclo import cos_of_pi_over

    c5 = cos_of_pi_over(5)
    with mpmath.workdps(40):
        t = mpmath.pi / 5
        for n in range(7):
            u = chebyshev_U(n, c5)
            val = sum(mpmath.mpf(c.numerator) / c.denominator *
                      mpmath.cos(2 * mpmath.pi * k / u.level)
                      for k, c in enumerate(u.coeffs))
            want = mpmath.sin((n + 1) * t) / mpmath.sin(t)
            assert abs(val - want) < mpmath.mpf(10) ** -30


def test_chebyshev_sequences(groups):
    b2 = groups("B2")
    reports = b2.chebyshev_sweep()
    assert reports, "B2 admits at least one admissible (beta, i, j)"
    assert any(r.tag == "even-shortcut" for r in reports)
    for rep in reports:
        assert len(rep.scalars) == rep.m
        if rep.tag == "even-shortcut":
            assert rep.m % 2 == 0
            assert rep.stall == rep.m // 2 - 1
            assert rep.start_length == rep.m - 1
        else:
            assert rep.end_length == rep.start_length - 2 * rep.m + 2

    b3 = groups("B3")
    reports = b3.chebyshev_sweep()
    tags = {r.tag for r in reports}
    assert "even-shortcut" in tags and "length-drop" in tags

    # hypotheses rejected cleanly
    with pytest.raises(PreconditionFailed):
        b2.chebyshev_sequence(0, 0, 1)  # beta simple
    a2 = groups("A2")
    with pytest.raises(PreconditionFailed):
        a2.chebyshev_sequence(2, 0, 1)  # no orthogonal simple root in A2


def test_odd_components():
    assert preset_matrix("A3").odd_components() == [[0, 1, 2]]
    assert preset_matrix("B3").odd_components() == [[0, 1], [2]]
    assert preset_matrix("I2(6)").odd_components() == [[0], [1]]
    assert preset_matrix("H3").odd_components() == [[0, 1, 2]]
    assert preset_matrix("A2").all_odd()
    assert not preset_matrix("A3").all_odd()  # m13 = 2
