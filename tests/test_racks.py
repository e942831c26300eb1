"""Racks, sign cocycles, equivariance, the GF(2) cohomology solver."""

import numpy as np
import pytest

from coxrack.coxeter import build_group, preset_matrix
from coxrack.nichols import BraidEquationError, braiding_from_rack
from coxrack.racks import (
    Rack,
    cohomologous_solve,
    q_minus,
    q_plus,
    q_plus_table,
    reflection_rack,
)
from oracles import (
    NotDihedralError,
    NotDivisorError,
    cohomologous_solve_by_elimination,
    dense_check_equivariance,
    dihedral_subrack,
    q_minus_table,
    product,
    q_plus_table_by_length,
    rack_axioms_hold,
    rack_isomorphic,
    refl_index_of_elem,
)

BATTERY = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
           "H3", "D4"]


@pytest.fixture(scope="module")
def groups():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_group(preset_matrix(name))
        return cache[name]

    return get


def conj_table_oracle(g, elems):
    """Direct conjugation-table oracle, bypassing the Rack constructor."""
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[product(g, x, y, g.inv_arr[x])] for y in elems]
            for x in elems]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4", "H4"])
def test_reflection_rack_matches_conj_oracle(groups, name):
    g = groups(name)
    rack = reflection_rack(g)
    elems = g.refl_elems.tolist()
    oracle = conj_table_oracle(g, elems)
    assert rack.labels.tolist() == elems
    assert rack.act.tolist() == oracle
    # the reflection classes are the orbits of the conjugation action
    orbits, seen = [], set()
    for y in range(len(elems)):
        if y not in seen:
            orbit, frontier = {y}, [y]
            while frontier:
                z = frontier.pop()
                new = {row[z] for row in oracle} - orbit
                orbit |= new
                frontier.extend(new)
            orbits.append(tuple(sorted(orbit)))
            seen |= orbit
    assert tuple(orbits) == g.classes


def test_reflection_subrack_examples(groups):
    a2 = groups("A2")
    rack = reflection_rack(a2)
    assert rack.size == 3
    assert [rack.act[i][i] for i in range(3)] == [0, 1, 2]  # x > x = x

    b3 = groups("B3")
    small = min(b3.classes, key=len)
    t2 = reflection_rack(b3).subrack(small)
    assert t2.size == 3 and t2.act.tolist() == [[0, 1, 2]] * 3  # trivial
    assert t2.act.tolist() == \
        conj_table_oracle(b3, b3.refl_elems[list(small)].tolist())

    single = rack.subrack([0])
    assert single.size == 1 and single.labels.tolist() == [
        a2.refl_elems[0]]

    # s1 > s2 is the third reflection; without the check its position,
    # -1, would wrap round to the last one
    simple = refl_index_of_elem(a2)[[1, 2]]
    with pytest.raises(ValueError, match="not closed"):
        rack.subrack(simple)


def test_rack_axioms_battery(groups):
    # nothing in src/ checks the axioms on T: hilbert's braid equation
    # implies them, and certify's check_global proves the table is
    # conjugation (the proof is in the racks docstring)
    for name in BATTERY + ["I2(4)", "F4", "H4"]:
        act = reflection_rack(groups(name)).act
        assert rack_axioms_hold(act), name
        if len(act) > 1:    # the oracle sees two entries of a row swapped
            bad = act.copy()
            bad[1, [0, 1]] = bad[1, [1, 0]]
            assert not rack_axioms_hold(bad), name


def test_q_cocycle_values(groups):
    a2 = groups("A2")
    qp, qm = q_plus_table(a2), q_minus_table(a2)
    refl = refl_index_of_elem(a2)
    # q-minus is constantly -1 on reflections
    assert qm[a2.refl_elems].all()
    # q-plus is -1 at (s, s): s(alpha_s) = -alpha_s
    for s in (1, 2):
        assert qp[s, refl[s]] == 1
    # s1 s2 sends alpha_2 to -(alpha_1 + alpha_2)
    assert qp[a2.element((0, 1)), refl[2]] == 1
    # commuting generators fix each other's root: +1
    a11 = groups("I2(2)")
    t1 = int(refl_index_of_elem(a11)[2])
    assert q_plus_table(a11)[1, t1] == 0


def constant_cocycle(n):
    return np.ones((n, n), dtype=np.uint8)


def cocycle_violations(table, rack):
    """[x, y, z]: whether q(x, y > z) + q(y, z) != q(x > y, x > z) + q(x, z)."""
    t, act = np.array(table), np.array(rack.act)
    x = np.arange(rack.size)[:, None, None]
    lhs = t[x, act[None]] + t[None]
    rhs = t[act[:, :, None], act[:, None, :]] + t[:, None, :]
    return (lhs - rhs) % 2 != 0


def test_is_cocycle(groups):
    # braiding_from_rack checks the braid equation on every basis triple,
    # which on a rack is the cocycle identity (proof in its docstring)
    for name in BATTERY:
        g = groups(name)
        rack = reflection_rack(g)
        for q in (q_plus(g), q_minus(g), constant_cocycle(rack.size)):
            braiding_from_rack(rack, q)
    # one flipped entry of q-plus breaks the identity; the witness is the
    # lexicographically first triple that violates it
    for name in ("A2", "A3", "B3", "I2(5)"):
        g = groups(name)
        rack = reflection_rack(g)
        table = q_plus(g).astype(np.int64)
        x, y = np.random.default_rng(g.order).integers(rack.size, size=2)
        table[x, y] ^= 1
        with pytest.raises(BraidEquationError) as exc:
            braiding_from_rack(rack, table)
        x, y, z = exc.value.witness
        lhs = table[x][rack.act[y][z]] + table[y][z]
        rhs = table[rack.act[x][y]][rack.act[x][z]] + table[x][z]
        assert (lhs - rhs) % 2 != 0
        assert tuple(np.argwhere(cocycle_violations(table, rack))[0]) == (x, y, z)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(4)",
                                  "I2(5)", "I2(6)", "I2(7)", "H3", "D4"])
def test_equivariance_agrees_with_dense_oracle(groups, name):
    # q(w1 w2, x) = q(w1, w2 > x) q(w2, x) over W x W x T, for q+ and q-;
    # certify's check_global implies it (proof in its docstring)
    g = groups(name)
    rng = np.random.default_rng(len(name) + g.order)
    for table in (q_plus_table(g), q_minus_table(g)):
        assert dense_check_equivariance(g, table)
        # one bit flipped at (w, x), w != 1: with rank >= 2 some s_j != w,
        # and the identity at (w1, w2, x) = (w s_j, s_j, x) fails
        bad = table.copy()
        bad[rng.integers(1, g.order), rng.integers(g.nroots)] ^= 1
        assert dense_check_equivariance(g, bad) == (g.rank == 1)


def test_cohomologous_solver(groups):
    a2 = groups("A2")
    rack = reflection_rack(a2)
    qp = q_plus(a2)
    gamma = cohomologous_solve(qp, qp, rack)
    assert gamma == (0,) * rack.size  # q vs itself: gamma = 1

    i25 = groups("I2(5)")
    r5 = reflection_rack(i25)
    assert cohomologous_solve(q_plus(i25), q_minus(i25), r5) is not None

    a3 = groups("A3")
    r3 = reflection_rack(a3)
    assert cohomologous_solve(q_plus(a3), q_minus(a3), r3) is None


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4"])
def test_cohomologous_solve_matches_elimination_oracle(groups, name):
    # q+ against q-, and q+ against a coboundary twist of itself by a
    # random gamma (always solvable); the orbit propagation must return
    # the eliminator's bits, or None where it does
    g = groups(name)
    rack = reflection_rack(g)
    qp, qm = q_plus(g), q_minus(g)
    rng = np.random.default_rng(g.order)
    gamma = rng.integers(0, 2, rack.size)
    twisted = (qp + gamma[rack.act] + gamma[None, :]) % 2
    for q in (qm, twisted):
        want = cohomologous_solve_by_elimination(qp, q, rack)
        assert cohomologous_solve(qp, q, rack) == want
    assert (cohomologous_solve(qp, qm, rack) is not None) == g.matrix.all_odd()
    got = cohomologous_solve(qp, twisted, rack)
    assert got is not None
    # the solution is gamma up to a constant per orbit: it differs from
    # gamma by gamma's bit at the orbit's smallest index
    for cls in g.classes:
        diff = {(got[t] - gamma[t]) % 2 for t in cls}
        assert diff == {int(gamma[min(cls)])}


def test_cohomologous_iff_all_odd(groups):
    for name in ("A1", "A2", "A3", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "B3"):
        g = groups(name)
        rack = reflection_rack(g)
        got = cohomologous_solve(q_plus(g), q_minus(g), rack)
        assert (got is not None) == g.matrix.all_odd()


def test_subrack_restriction_is_cocycle(groups):
    b3 = groups("B3")
    rack = reflection_rack(b3)
    for cls in b3.classes:
        sub = rack.subrack(cls)
        for q in (q_plus(b3), q_minus(b3), constant_cocycle(rack.size)):
            braiding_from_rack(sub, q[np.ix_(cls, cls)])  # braid equation


def test_dihedral_subracks():
    i215 = build_group(preset_matrix("I2(15)"))
    t5 = dihedral_subrack(i215, 5)
    assert t5.size == 3
    t15 = dihedral_subrack(i215, 15)
    assert t15.size == 1
    t1 = dihedral_subrack(i215, 1)
    assert t1.size == 15

    i29 = build_group(preset_matrix("I2(9)"))
    t3 = dihedral_subrack(i29, 3)
    assert t3.size == 3
    i23 = build_group(preset_matrix("I2(3)"))
    whole = reflection_rack(i23)
    assert rack_isomorphic(t3, whole)

    with pytest.raises(NotDivisorError):
        dihedral_subrack(i215, 4)
    with pytest.raises(NotDihedralError):
        dihedral_subrack(build_group(preset_matrix("A3")), 3)
    with pytest.raises(NotDihedralError):
        dihedral_subrack(build_group(preset_matrix("I2(4)")), 2)


def test_rack_isomorphic_negative():
    i25 = build_group(preset_matrix("I2(5)"))
    r5 = reflection_rack(i25)
    trivial5 = Rack(np.arange(5), np.tile(np.arange(5), (5, 1)))
    assert not rack_isomorphic(r5, trivial5)
    assert rack_isomorphic(r5, r5)


def q_plus_table_by_mult(g):
    """Oracle: the length-drop criterion l(w y) < l(w) with the products
    w y read off the |W| x |W| table."""
    M = g.mult_table()
    return (g.length_arr[M[:, g.refl_elems]]
            < g.length_arr[:, None]).astype(np.uint8)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4", "F4", "H4"])
def test_q_plus_root_criterion_matches_length_drop(groups, name):
    g = groups(name)
    assert np.array_equal(q_plus_table(g), q_plus_table_by_length(g))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)",
                                  "I2(6)", "I2(7)", "H3", "D4"])
def test_q_plus_table_matches_mult_oracle(groups, name):
    g = groups(name)
    assert np.array_equal(q_plus_table(g), q_plus_table_by_mult(g))
