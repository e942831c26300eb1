"""Group tables: enumeration, lengths, reflections, graphs, Chebyshev runs.

Derived expected values come from two oracles that share no code with
the builder: classical order formulas, and closure of floating-point
reflection matrices.
"""

import math

import mpmath
import numpy as np
import pytest

from coxrack.coxeter import (
    CoxeterMatrix,
    InvalidMatrixError,
    NotFiniteError,
    PreconditionFailed,
    Trichotomy,
    build_group,
    chebyshev_U,
    mirror,
    parse_matrix_file,
    preset_matrix,
)

# classical orders (independent of the enumeration code)
KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192,
    "H3": 120,
    "F4": 1152,
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


def test_infinite_matrix_hits_cap():
    # affine A~1: the (2,2) matrix with m12 large is finite, but m12 = infinity
    # is excluded by the matrix type; instead use the affine triangle (3,3,3)
    rows = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    with pytest.raises(NotFiniteError):
        build_group(CoxeterMatrix.from_rows(rows), element_cap=500)


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
        w = g.words[b]
        M[:, b] = g.rmult[M[:, g.elem_of_word(w[:-1])], w[-1]]
    return M


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4"])
def test_mult_table_matches_column_oracle(groups, name):
    g = groups(name)
    M = g.mult_table()
    assert M.dtype == np.int32
    assert np.array_equal(M, mult_table_by_columns(g))


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
    assert a2.reduced_expressions(s0) == {(0,)}
    assert a2.palindromic_expressions(int(a2.refl_index_of_elem[s0])) == {(0,)}
    x = a2.elem_of_word((0, 1, 0))
    assert a2.reduced_expressions(x) == {(0, 1, 0), (1, 0, 1)}
    assert a2.palindromic_expressions(int(a2.refl_index_of_elem[x])) == \
        {(0, 1, 0), (1, 0, 1)}
    # longest element of A3 has 16 reduced words (classical count)
    a3 = groups("A3")
    w0 = max(range(a3.order), key=a3.length)
    assert len(a3.reduced_expressions(w0)) == 16


def test_palindromic_cross_route_battery(groups):
    for name in ("B2", "A3", "B3", "I2(7)"):
        g = groups(name)
        for refl in g.reflections:
            words = g.palindromic_expressions(refl.index)
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
            words = graph.path_words(refl.index)
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
