"""Group tables: enumeration, lengths, reflections, graphs, Chebyshev runs.

Derived expected values come from two oracles that share no code with
the builder: classical order formulas, and closure of floating-point
reflection matrices.
"""

import copy
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from coxrack import coxeter
from coxrack.cyclo import mul, reduction_matrix, sign
from coxrack.coxeter import (
    CoxeterMatrix,
    GroupTable,
    InvalidMatrixError,
    NotFiniteError,
    RootSystem,
    build_group,
    parse_matrix_file,
    preset_matrix,
    require_finite,
)
from oracles import (
    PreconditionFailed,
    Trichotomy,
    chebyshev_sequence,
    chebyshev_sweep,
    chebyshev_U,
    check_inverses,
    check_lengths,
    check_reflections,
    check_right_multiples,
    check_root_norms,
    conjugacy_graph,
    length_trichotomy,
    mirror,
    palindromic_expressions,
    product,
    q_minus_table,
    q_plus_table_by_length,
    path_words,
    reduced_expressions,
    reflect_simple,
    reflection_classes_by_orbits,
    refl_index_of_elem,
)

# classical orders (independent of the enumeration code)
KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192,
    "H3": 120,
    "F4": 1152, "H4": 14400, "E6": 51840,
    "I2(4)": 8, "I2(5)": 10, "I2(6)": 12, "I2(7)": 14, "I2(15)": 30,
    "A6": 5040, "B5": 3840, "D5": 1920, "D6": 23040, "E7": 2903040,
    "E8": 696729600, "I2(60)": 120, "I2(129)": 258,
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


def block_diagonal(*names) -> CoxeterMatrix:
    """The Coxeter matrix of the product of the named groups."""
    blocks = [preset_matrix(n).rows for n in names]
    l = sum(len(b) for b in blocks)
    rows = [[1 if i == j else 2 for j in range(l)] for i in range(l)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return CoxeterMatrix.from_rows(rows)


# inputs no preset names: nine commuting A1's, |W| = 512, whose element
# keys (9 uint8 root images) are one byte wider than a uint64; and the
# reducible products the orbit chain is checked on
EXTRA_MATRICES = {
    "9A1": block_diagonal(*["A1"] * 9),
    "A1xA1": block_diagonal("A1", "A1"),
    "A1xA1xA1": block_diagonal("A1", "A1", "A1"),
    "A2xA1": block_diagonal("A2", "A1"),
    "B2xI2(5)": block_diagonal("B2", "I2(5)"),
}
KNOWN_ORDERS.update({"9A1": 512, "A1xA1": 4, "A1xA1xA1": 8, "A2xA1": 12,
                     "B2xI2(5)": 80})


def matrix_of(name):
    return EXTRA_MATRICES.get(name) or preset_matrix(name)


@pytest.fixture(scope="module")
def groups():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_group(matrix_of(name))
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
    assert g.nroots == len(g.refl_elems)
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
    require_finite(preset_matrix(name))


# every irreducible finite type through rank 8 with its |Phi+|
CLASSIFICATION = ([(f"A{n}", n * (n + 1) // 2) for n in range(1, 9)]
                  + [(f"B{n}", n * n) for n in range(2, 9)]
                  + [(f"D{n}", n * (n - 1)) for n in range(4, 9)]
                  + [("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24),
                     ("H3", 15), ("H4", 60)]
                  + [(f"I2({m})", m) for m in range(2, 13)])


def classical_order(name: str) -> int:
    family, n = name[0], int(name[1])
    if family == "I":
        return 2 * int(name[3:-1])
    if family in "BD":
        return 2 ** (n - (family == "D")) * math.factorial(n)
    if family == "A":
        return math.factorial(n + 1)
    return KNOWN_ORDERS[name]    # the exceptional types


@pytest.mark.parametrize("name,count", CLASSIFICATION)
def test_root_closure_across_the_classification(name, count):
    # the closure alone, W is not enumerated
    roots = RootSystem(preset_matrix(name))
    R = roots.nroots
    assert R == count == len(roots.pos_roots)
    assert roots.order == classical_order(name)  # by the orbit chain
    for i, perm in enumerate(roots.gen_root_perm):
        perm = np.array(perm)
        assert np.array_equal(perm[perm], np.arange(2 * R))  # an involution
        assert perm[i] == i + R                     # s_i(alpha_i) = -alpha_i
        assert (np.delete(perm[:R], i) < R).all()   # and no other root
    # float oracle: unit norm under -cos(pi / m_ij), coordinates >= 0
    n = roots.level
    cos = np.cos(2 * np.pi * np.arange(roots.pos_roots.shape[-1]) / n)
    coords = roots.pos_roots @ cos
    form = -np.cos(np.pi / np.array(roots.matrix.rows))
    assert np.allclose(np.einsum("ri,ij,rj->r", coords, form, coords), 1)
    assert (coords > -1e-9).all()


def test_element_bfs_hits_cap(monkeypatch):
    # E6 is finite, so it passes the form test; its orbit-chain order is
    # then refused before any element is enumerated
    def no_work(self):
        raise AssertionError("elements enumerated past the cap")

    monkeypatch.setattr(coxeter, "DEFAULT_ELEMENT_CAP", 1000)
    monkeypatch.setattr(GroupTable, "_build_elements", no_work)
    with pytest.raises(NotFiniteError,
                       match="finite but larger than the cap"):
        build_group(preset_matrix("E6"))


# every preset and product the suite builds, and a few more of each family
CHAIN_CASES = sorted(KNOWN_ORDERS.keys() - {"E7", "E8"})


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_orbit_chain_order_is_the_enumerated_order(groups, name):
    # the chain reads the roots alone; the builder enumerates W
    roots = RootSystem(matrix_of(name))
    g = groups(name)
    assert roots.order == len(g.perms) == g.order == KNOWN_ORDERS[name]


def test_e6_order_reflections_and_classes(groups):
    g = groups("E6")
    assert g.order == KNOWN_ORDERS["E6"]
    assert len(g.refl_elems) == g.nroots == 36
    assert [len(c) for c in g.classes] == [36]


class LegacyGroupTable(GroupTable):
    """Oracle: the per-element builder.  Roots are reflected twice (closure,
    then each generator's permutation), elements are 2R-entry permutations
    found through a dict on their bytes, inverses by inverting each
    permutation."""

    def _build_roots(self):
        l, lev = self.rank, self.level
        simples = [np.zeros((l, self._gram.shape[-1]), dtype=np.int64)
                   for _ in range(l)]
        for i, v in enumerate(simples):
            v[i, 0] = 1

        def key(vec):
            return vec.tobytes()

        pos = list(simples)
        index = {key(v): i for i, v in enumerate(pos)}
        parent = [None] * l
        base_simple = list(range(l))
        head = 0
        while head < len(pos):
            beta = pos[head]
            for i in range(l):
                image = reflect_simple(self, i, beta)
                k = key(image)
                if k in index or key(-image) in index:
                    continue
                index[k] = len(pos)
                pos.append(image)
                parent.append((i, head))
                base_simple.append(base_simple[head])
            head += 1
        for beta in pos:
            signs = [sign(c, lev) for c in beta]
            assert not any(s < 0 for s in signs)
            assert not all(s == 0 for s in signs)
            # (beta, beta) = 1, with the form doubled
            norm = sum(mul(c, s, lev) for c, s in zip(beta, self.pairings(beta)))
            assert norm[0] == 2 and not norm[1:].any()
        self.pos_roots = np.array(pos)
        self.nroots = R = len(pos)
        self._root_parent = parent
        self._root_base_simple = base_simple
        perms = []
        for i in range(l):
            perm = [0] * (2 * R)
            for r in range(R):
                image = reflect_simple(self, i, pos[r])
                k = key(image)
                if k in index:
                    perm[r], perm[r + R] = index[k], index[k] + R
                else:
                    nk = key(-image)
                    perm[r], perm[r + R] = index[nk] + R, index[nk]
            perms.append(tuple(perm))
        self.gen_root_perm = tuple(perms)

    def _build_elements(self):
        # breadth first; each level is composed with every generator by one
        # gather, row (e, i) being perm_e o gen_i, and its rows are numbered
        # in that order through a bytes -> id dict
        gens = np.array(self.gen_root_perm, dtype=np.intp)
        perms = [np.arange(gens.shape[1], dtype=np.int32)]
        index = {perms[0].tobytes(): 0}
        words, ids = [()], []
        level, start = perms[0][None], 0
        while len(level):
            found = len(perms)
            for n, row in enumerate(level[:, gens].reshape(-1, gens.shape[1])):
                eid = index.setdefault(row.tobytes(), len(perms))
                if eid == len(perms):
                    perms.append(row)
                    words.append(words[start + n // self.rank]
                                 + (n % self.rank,))
                ids.append(eid)
            level, start = np.array(perms[found:]), found
        self.order = len(perms)
        self.words = words
        self.perms = np.array(perms, dtype=np.int32)
        self.rmult = np.array(ids, dtype=np.int32).reshape(self.order, -1)
        self.length_arr = np.array([len(w) for w in words], dtype=np.int32)
        self._perm_index = index
        inverses = np.argsort(self.perms, axis=1).astype(np.int32)
        self.inv_arr = np.array([index[q.tobytes()] for q in inverses],
                                dtype=np.int32)
        self.parent = self.last = None  # mult_table is not an oracle here

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
                conj = np.array([gen[base[gen[k]]] for k in range(2 * R)],
                                dtype=np.int32)
                refl_elem_of_root[r] = self._perm_index[conj.tobytes()]
        order = sorted(range(R), key=lambda r: refl_elem_of_root[r])
        self.refl_roots = np.array(order, dtype=np.intp)
        self.refl_elems = np.array([refl_elem_of_root[r] for r in order],
                                   dtype=np.intp)
        self.refl_of_root = np.empty(R, dtype=np.intp)
        self.refl_of_root[order] = np.arange(R)


# I2(129) has 2R - 1 = 257 signed roots, one more than uint8 holds.
# _build_elements keys an element on one uint64 up to 8 key bytes and on a
# void view beyond: E6 has 6, 9A1 has 9.
LEGACY_PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)",
                  "I2(7)", "H3", "D4", "F4", "H4", "I2(129)", "E6", "9A1"]


@pytest.fixture(scope="module")
def legacy():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = LegacyGroupTable(matrix_of(name))
        return cache[name]

    return get


@pytest.mark.parametrize("name", LEGACY_PRESETS)
def test_tables_match_legacy_builder(groups, legacy, name):
    g = groups(name)
    old = legacy(name)
    assert g.gen_root_perm == old.gen_root_perm
    # perms keeps the positive-root columns at the narrowest width
    R = g.nroots
    assert g.perms.dtype == (np.uint8 if 2 * R <= 256 else np.uint16)
    assert np.array_equal(g.perms, old.perms[:, :R])
    for attr in ("rmult", "length_arr", "inv_arr"):
        new_arr, old_arr = getattr(g, attr), getattr(old, attr)
        assert new_arr.dtype == old_arr.dtype, attr
        assert np.array_equal(new_arr, old_arr), attr
    assert [g.word(w) for w in range(g.order)] == old.words
    for attr in ("refl_elems", "refl_roots", "refl_of_root"):
        new_arr, old_arr = getattr(g, attr), getattr(old, attr)
        assert new_arr.dtype == old_arr.dtype == np.intp, attr
        assert np.array_equal(new_arr, old_arr), attr
    assert g.classes == old.classes


@pytest.mark.parametrize("name", LEGACY_PRESETS)
def test_classes_are_the_orbits(groups, name):
    g = groups(name)
    assert g.classes == reflection_classes_by_orbits(g)


@pytest.mark.parametrize("name", LEGACY_PRESETS)
def test_conj_refl_table_matches_legacy_perms(groups, legacy, name):
    # the reflection of w(beta), read from the legacy 2R-column int32 table
    g, old = groups(name), legacy(name)
    want = old.refl_of_root[old.perms[:, old.refl_roots] % old.nroots]
    C = g.conj_refl_table()
    assert C.dtype == np.min_scalar_type(g.nroots - 1)
    assert np.array_equal(C, want)


def test_build_group_e6_holds_narrow_tables():
    # the uint8 table of positive-root images is 1.9 MB; the int32 table of
    # all 2R signed roots was 14.9 MB, and its build peaked at 44.5 MB
    tracemalloc.start()
    try:
        g = build_group(preset_matrix("E6"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == KNOWN_ORDERS["E6"] and g.perms.dtype == np.uint8
    assert peak <= 8 * 2 ** 20, peak


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "H4"])
def test_word_reads_the_shortlex_tree(groups, name):
    g = groups(name)
    for w in range(g.order):
        word = g.word(w)
        assert g.element(word) == w
        assert len(word) == g.length_arr[w]
    for i in range(g.rank):     # s_i is element 1 + i
        assert g.word(1 + i) == (i,)


def test_lengths_and_det(groups):
    # q- reads the determinant (-1)^l(w) as the exponent l(w) mod 2
    a2 = groups("A2")
    det = q_minus_table(a2)[:, 0]
    assert a2.length_arr[0] == 0 and det[0] == 0
    for s in (1, 2):
        assert a2.length_arr[s] == 1 and det[s] == 1
    w0 = int(np.argmax(a2.length_arr))
    assert a2.length_arr[w0] == 3 and det[w0] == 1
    # length is a BFS distance: |l(ws) - l(w)| = 1 everywhere
    for w in range(a2.order):
        for i in range(a2.rank):
            assert abs(a2.length_arr[a2.rmult[w][i]] - a2.length_arr[w]) == 1


def test_group_axioms_small(groups):
    g = groups("A2")
    for a in range(g.order):
        assert product(g, 0, a) == a == product(g, a, 0)
        assert product(g, a, g.inv_arr[a]) == 0
        for b in range(g.order):
            for c in range(g.order):
                assert (product(g, product(g, a, b), c)
                        == product(g, a, product(g, b, c)))


def test_mult_table_matches_mul(groups):
    g = groups("B3")
    M = g.mult_table()
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.integers(0, g.order, 2)
        assert M[a, b] == product(g, a, b)


def mult_table_by_columns(g):
    """Oracle: column b of the table is column parent(b) moved by the last
    letter of b's word, the parent found by walking the word."""
    n = g.order
    M = np.empty((n, n), dtype=np.int32)
    M[:, 0] = np.arange(n, dtype=np.int32)
    for b in range(1, n):
        w = g.word(b)
        M[:, b] = g.rmult[M[:, g.element(w[:-1])], w[-1]]
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
    out = refl_index_of_elem(g)[M[M[:, g.refl_elems], g.inv_arr[:, None]]]
    assert (out >= 0).all(), "conjugate of a reflection is not a reflection"
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4"])
def test_conj_refl_table_matches_mult_oracle(groups, name):
    g = groups(name)
    C = g.conj_refl_table()
    assert C.dtype == np.uint8
    assert np.array_equal(C, conj_refl_table_by_mult(g))


def test_acts_negatively_examples_and_agreement(groups):
    def acts_negatively(g, w, t):
        # w sends the positive root of reflection t into the negative roots
        return g.perms[w][g.refl_roots[t]] >= g.nroots

    a2 = groups("A2")
    # w = y = simple reflection: s(alpha_s) = -alpha_s
    for s in (1, 2):
        assert acts_negatively(a2, s, int(refl_index_of_elem(a2)[s]))
    # commuting generators fix each other's root
    a11 = build_group(CoxeterMatrix.from_rows([[1, 2], [2, 1]]))
    y1 = int(refl_index_of_elem(a11)[2])
    assert not acts_negatively(a11, 1, y1)
    # A2: s1 s2 sends alpha_2 to -(alpha_1 + alpha_2)
    w = a2.element((0, 1))
    y = int(refl_index_of_elem(a2)[2])
    assert acts_negatively(a2, w, y)
    # the root criterion agrees with the length drop l(w y) < l(w)
    for g in (a2, groups("B3")):
        by_root = np.array([[acts_negatively(g, w, t)
                             for t in range(g.nroots)]
                            for w in range(g.order)], dtype=np.uint8)
        assert np.array_equal(by_root, q_plus_table_by_length(g))


def test_reflection_classes(groups):
    assert len(groups("A2").classes) == 1
    assert len(groups("A3").classes) == 1
    i24 = groups("I2(4)")
    assert [len(c) for c in i24.classes] == [2, 2]
    b3 = groups("B3")
    assert sorted(len(c) for c in b3.classes) == [3, 6]
    # B_l sizes: l^2 - l and l
    assert {len(c) for c in b3.classes} == {6, 3}


def test_reflection_root_bijection(groups):
    for name in ("A2", "B3", "I2(5)"):
        g = groups(name)
        assert len(g.refl_elems) == len(g.refl_roots) == g.nroots
        for index, (x, root) in enumerate(zip(g.refl_elems, g.refl_roots)):
            assert g.refl_of_root[root] == index
            assert g.perms[x][root] == root + g.nroots


# what the build proves rather than checks (see the coxeter docstring)
PROOF_PRESETS = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
                 "H3", "D4", "F4", "H4", "E6"]


@pytest.mark.parametrize("name", PROOF_PRESETS + ["E7", "E8"])
def test_roots_have_unit_norm(name):
    check_root_norms(RootSystem(preset_matrix(name)))


@pytest.mark.parametrize("name", PROOF_PRESETS)
def test_group_tables_hold_what_the_build_proves(groups, name):
    g = groups(name)
    check_right_multiples(g)
    check_lengths(g)
    check_inverses(g)
    check_reflections(g)


def planted(g, attr, fault):
    """A shallow copy of g whose array `attr` is a copy with `fault`
    applied to it."""
    bad = copy.copy(g)
    arr = getattr(g, attr).copy()
    fault(arr)
    setattr(bad, attr, arr)
    return bad


def test_build_oracles_catch_planted_faults(groups):
    g = groups("B3")
    w = int(np.argmax(g.length_arr == 4))

    def flip(arr):              # w s_0 read as w s_1
        arr[w, 0] = arr[w, 1]

    def wrong(arr):
        arr[w] = arr[w + 1]

    def swap(arr):
        arr[[2, 5]] = arr[[5, 2]]

    def bump(arr):
        arr[w] += 1

    def unwritten(arr):         # -1, as the BFS leaves an unwritten entry
        arr[w, 0] = -1

    for check, attr, fault, match in (
            (check_right_multiples, "rmult", flip, "wrong root images"),
            (check_right_multiples, "rmult", unwritten, "up- or down-move"),
            (check_inverses, "inv_arr", wrong, "simple roots"),
            (check_reflections, "refl_elems", swap, "not injective"),
            (check_lengths, "length_arr", bump, "BFS length")):
        check(g)
        with pytest.raises(AssertionError, match=match):
            check(planted(g, attr, fault))
    # the deepest root delta is in the closed chamber, so delta + alpha_0
    # has norm 1 + 2 (alpha_0, delta) + 1 >= 2
    roots = RootSystem(preset_matrix("B3"))
    check_root_norms(roots)

    def perturb(arr):
        arr[-1, 0, 0] += 1

    with pytest.raises(AssertionError, match="unit norm"):
        check_root_norms(planted(roots, "pos_roots", perturb))


@pytest.mark.parametrize("name,distinct", [("E6", 4), ("H4", 12)])
def test_positivity_signs_each_distinct_coordinate_once(monkeypatch, name,
                                                         distinct):
    # E6 has 216 root coordinates and H4 240, of 4 and 12 values
    roots = RootSystem(preset_matrix(name))
    calls = []
    real = coxeter.sign

    def spy(a, n):
        calls.append(a.tobytes())
        return real(a, n)

    monkeypatch.setattr(coxeter, "sign", spy)
    roots._build_roots()
    assert len(calls) == len(set(calls)) == distinct


def test_reduced_and_palindromic_expressions(groups):
    a2 = groups("A2")
    assert reduced_expressions(a2, 1) == {(0,)}
    index = refl_index_of_elem(a2)
    assert palindromic_expressions(a2, int(index[1])) == {(0,)}
    x = a2.element((0, 1, 0))
    assert reduced_expressions(a2, x) == {(0, 1, 0), (1, 0, 1)}
    assert palindromic_expressions(a2, int(index[x])) == \
        {(0, 1, 0), (1, 0, 1)}
    # longest element of A3 has 16 reduced words (classical count)
    a3 = groups("A3")
    w0 = int(np.argmax(a3.length_arr))
    assert len(reduced_expressions(a3, w0)) == 16


def test_palindromic_cross_route_battery(groups):
    for name in ("B2", "A3", "B3", "I2(7)"):
        g = groups(name)
        for index, x in enumerate(g.refl_elems):
            words = palindromic_expressions(g, index)
            for w in words:
                assert w == tuple(reversed(w))
                assert g.element(w) == x
                assert len(w) == g.length_arr[x]


def test_mirror():
    assert mirror((1,)) == (1,)
    assert mirror((0, 1, 2)) == (0, 1, 0)
    pal = (0, 1, 2, 1, 0)
    assert mirror(pal) == pal
    with pytest.raises(ValueError):
        mirror((0, 1))


def test_conjugacy_graph(groups):
    a1 = build_group(preset_matrix("A1"))
    assert conjugacy_graph(a1) == ((),)
    a2 = groups("A2")
    graph = conjugacy_graph(a2)
    lengths = a2.length_arr[a2.refl_elems]
    outs = dict(graph[int(np.argmax(lengths == 3))])
    # s1 s2 s1 drops to s2 via conjugation by s1, and to s1 via s2
    assert set(outs) == {0, 1}
    for index in np.flatnonzero(lengths == 1):
        assert graph[index] == ()
    # I2(4): each length-3 reflection has exactly one outgoing edge
    i24 = groups("I2(4)")
    gr = conjugacy_graph(i24)
    for index in np.flatnonzero(i24.length_arr[i24.refl_elems] == 3):
        assert len(gr[index]) == 1


def test_graph_paths_have_uniform_length(groups):
    for name in ("A3", "B3", "H3"):
        g = groups(name)
        graph = conjugacy_graph(g)
        for index, x in enumerate(g.refl_elems):
            words = path_words(g, graph, index)
            lens = {len(w) for w in words}
            assert lens == {g.length_arr[x]}


def test_length_trichotomy(groups):
    a2 = groups("A2")
    # beta = alpha: commute
    assert length_trichotomy(a2, 0, 0) is Trichotomy.COMMUTE
    # A2: beta = alpha_2, alpha = alpha_1 -> up (lengths 1 -> 3)
    assert length_trichotomy(a2, 1, 0) is Trichotomy.UP
    # beta = alpha_1 + alpha_2 (the non-simple root), alpha = alpha_1 -> down
    nonsimple = next(r for r in range(a2.nroots) if r > 1)
    assert length_trichotomy(a2, nonsimple, 0) is Trichotomy.DOWN
    # exhaustive internal consistency on a battery
    for name in ("A3", "B3", "I2(6)"):
        g = groups(name)
        for r in range(g.nroots):
            for i in range(g.rank):
                length_trichotomy(g, r, i)


def test_chebyshev_polynomials():
    # closed-form oracle for U_n(y / 2) in y = 2 cos t:
    # sum_k (-1)^k C(n - k, k) y^(n - 2k)
    def upoly(n):
        coeffs = [0] * (n + 1)
        for k in range(n // 2 + 1):
            coeffs[n - 2 * k] = (-1) ** k * math.comb(n - k, k)
        return coeffs

    assert upoly(2) == [-1, 0, 1]  # U_2 = 4x^2 - 1 = y^2 - 1
    y5 = -preset_matrix("I2(5)").gram()[0, 1]   # 2 cos(pi/5), level 10
    y7 = -preset_matrix("I2(7)").gram()[0, 1]   # 2 cos(pi/7), level 14
    four = 4 * reduction_matrix(10)[0]          # the rational point x = 2
    for n in range(7):
        for y, lev in ((y5, 10), (y7, 14), (four, 10)):
            poly_val = 0 * y
            for c in reversed(upoly(n)):
                poly_val = mul(poly_val, y, lev)
                poly_val[0] += c
            assert np.array_equal(chebyshev_U(n, y, lev), poly_val)


def test_chebyshev_sin_relation():
    # sin(t) U_n(cos t) = sin((n+1) t), numerically at t = pi/5
    y = -preset_matrix("I2(5)").gram()[0, 1]    # 2 cos(pi/5) at level 10
    with mpmath.workdps(40):
        t = mpmath.pi / 5
        for n in range(7):
            u = chebyshev_U(n, y, 10)
            val = sum(int(c) * mpmath.cos(2 * mpmath.pi * k / 10)
                      for k, c in enumerate(u))
            want = mpmath.sin((n + 1) * t) / mpmath.sin(t)
            assert abs(val - want) < mpmath.mpf(10) ** -30


def test_chebyshev_sequences(groups):
    b2 = groups("B2")
    reports = chebyshev_sweep(b2)
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
    reports = chebyshev_sweep(b3)
    tags = {r.tag for r in reports}
    assert "even-shortcut" in tags and "length-drop" in tags

    # hypotheses rejected cleanly
    with pytest.raises(PreconditionFailed):
        chebyshev_sequence(b2, 0, 0, 1)  # beta simple
    a2 = groups("A2")
    with pytest.raises(PreconditionFailed):
        chebyshev_sequence(a2, 2, 0, 1)  # no orthogonal simple root in A2


def test_odd_components():
    assert preset_matrix("A3").odd_components() == [[0, 1, 2]]
    assert preset_matrix("B3").odd_components() == [[0, 1], [2]]
    assert preset_matrix("I2(6)").odd_components() == [[0], [1]]
    assert preset_matrix("H3").odd_components() == [[0, 1, 2]]
    assert preset_matrix("A2").all_odd()
    assert not preset_matrix("A3").all_odd()  # m13 = 2
