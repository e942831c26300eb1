"""Diagonal dihedral braidings and the order-12 graded modules."""

import numpy as np
import pytest

from coxrack.coxeter import build_group, preset_matrix
from coxrack.dihedral import (
    GradedModule,
    InvalidSummandError,
    admissible_pairs,
    braided_from_graded,
    compatible,
    dihedral_yd,
    direct_sum,
    dynkin_diagram,
    exterior_coefficients,
    u_module,
    v31_module,
)
from coxrack.nichols import hilbert_coeffs, total_dimension
from coxrack.racks import q_minus, q_plus, reflection_rack
from oracles import identify_u_modules, u_module_cocycle, v0_module


@pytest.fixture(scope="module")
def i26():
    return build_group(preset_matrix("I2(6)"))


# -- admissible summands ------------------------------------------------------


def brute_admissible(r):
    out = []
    for h in range(1, r + 1):
        for j in range(1, r - 1):
            if h % 2 == 1 and j % 2 == 1 and (h * j) % r == 0:
                out.append((h, j))
    return out


@pytest.mark.parametrize("r", [5, 7, 9, 15])
def test_admissible_pairs_match_brute_force(r):
    assert admissible_pairs(r) == brute_admissible(r)


def test_admissible_r5():
    assert admissible_pairs(5) == [(5, 1), (5, 3)]


def test_invalid_summands():
    with pytest.raises(InvalidSummandError):
        dihedral_yd(5, [(4, 1)])          # even h
    with pytest.raises(InvalidSummandError):
        dihedral_yd(5, [(3, 1)])          # 5 does not divide 3
    with pytest.raises(InvalidSummandError):
        dihedral_yd(5, [(5, 5)])          # j out of range
    with pytest.raises(InvalidSummandError):
        dihedral_yd(6, [(5, 1)])          # r even
    with pytest.raises(InvalidSummandError):
        dihedral_yd(5, [])                # empty sum


def test_negative_copies_refused():
    with pytest.raises(InvalidSummandError, match="v0 copies"):
        dihedral_yd(5, [(5, 1)], v0_copies=-2)
    assert dihedral_yd(5, [(5, 1)], v0_copies=0).dim == 2


# -- diagonal braidings -------------------------------------------------------


def test_single_summand_is_exterior():
    V = dihedral_yd(5, [(5, 1)])
    assert V.dim == 2
    # both diagonal entries are -1 and the off-diagonal product is 1
    assert V.expo[0, 0] == V.expo[1, 1] == 5  # zeta_10^5 = -1
    assert (V.expo[0, 1] + V.expo[1, 0]) % 10 == 0
    total, reports = total_dimension(V)
    assert total == 4
    assert [r.rank for r in reports] == exterior_coefficients(2)


def test_v0_alone():
    V = dihedral_yd(5, [], v0_copies=1)
    total, reports = total_dimension(V)
    assert total == 2
    assert [r.rank for r in reports] == [1, 1, 0]


def test_compatibility_and_prediction():
    assert compatible(5, [(5, 1), (5, 3)])      # 5 | 5*3 + 5*1 = 20
    V = dihedral_yd(5, [(5, 1), (5, 3)])
    total, reports = total_dimension(V)
    assert total == 16 == 2 ** V.dim
    assert [r.rank for r in reports] == exterior_coefficients(4)
    # adding V0 keeps the exterior shape (V0 is compatible with everything)
    V5 = dihedral_yd(5, [(5, 1), (5, 3)], v0_copies=1)
    total5, reports5 = total_dimension(V5)
    assert total5 == 32 == 2 ** V5.dim
    assert [r.rank for r in reports5] == exterior_coefficients(5)


def test_incompatible_pair_diagram():
    assert not compatible(9, [(3, 3), (9, 1)])  # 9 does not divide 3 + 27 = 30
    V = dihedral_yd(9, [(3, 3), (9, 1)])
    dd = dynkin_diagram(V)
    # the four-cycle of the even-dihedral analysis: all vertices -1, edge
    # labels xi and xi^-1 with xi != 1
    assert dd.vertices == (9, 9, 9, 9)          # zeta_18^9 = -1
    assert len(dd.edges) == 4
    labels = set(dd.edges.values())
    assert len(labels) == 2
    a, b = sorted(labels)
    assert (a + b) % 18 == 0 and a % 18 != 0    # inverse pair, both != 1
    # the edges form a single 4-cycle
    deg = {}
    for (i, j) in dd.edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert all(v == 2 for v in deg.values()) and len(deg) == 4


def test_compatible_pairs_r7():
    pairs = admissible_pairs(7)
    assert pairs == [(7, 1), (7, 3), (7, 5)]
    assert compatible(7, pairs)
    V = dihedral_yd(7, pairs[:2])
    total, _ = total_dimension(V)
    assert total == 16


def test_single_vertex_diagram():
    V = dihedral_yd(5, [], v0_copies=1)
    dd = dynkin_diagram(V)
    assert dd.vertices == (5,) and dd.edges == {}


# -- the order-12 dihedral group ---------------------------------------------


def test_u_modules_are_fk3(i26):
    for primed in (False, True):
        for j in (0, 1):
            V = braided_from_graded(u_module(i26, j, primed))
            total, reports = total_dimension(V)
            assert total == 12
            assert [r.rank for r in reports] == [1, 3, 4, 3, 1, 0]


def test_v31_and_v0(i26):
    V = braided_from_graded(v31_module(i26))
    total, reports = total_dimension(V)
    assert total == 4
    assert [r.rank for r in reports] == [1, 2, 1, 0]
    for j in (0, 1):
        V0 = braided_from_graded(v0_module(i26, j))
        total0, _ = total_dimension(V0)
        assert total0 == 2


def test_u_identification_record(i26):
    """Which sign cocycle each three-dimensional module realizes.

    Pinned from the first computation: the j = 1 unprimed module gives
    the root-sign cocycle on its class literally; j = 0 gives the
    constant cocycle; all four are cohomologous to both restrictions
    (the class is a single odd-bond dihedral rack).
    """
    rec = identify_u_modules(i26, q_plus(i26), q_minus(i26),
                             reflection_rack(i26))
    assert rec["U0"]["q-"]["equal"] and not rec["U0"]["q+"]["equal"]
    assert rec["U1"]["q+"]["equal"] and not rec["U1"]["q-"]["equal"]
    assert rec["U'0"]["q-"]["equal"] and not rec["U'0"]["q+"]["equal"]
    assert not rec["U'1"]["q+"]["equal"] and not rec["U'1"]["q-"]["equal"]
    for key in ("U0", "U1", "U'0", "U'1"):
        assert rec[key]["q+"]["cohomologous"]
        assert rec[key]["q-"]["cohomologous"]


def test_u_modules_support_classes(i26):
    refl_elems = set(i26.refl_elems.tolist())
    for primed in (False, True):
        mod = u_module(i26, 0, primed)
        assert set(mod.degrees) <= refl_elems
        class_of, _ = u_module_cocycle(i26, 0, primed)
        assert len(class_of) == 3


def test_direct_sum_probe_for_the_large_algebra(i26):
    """Low-degree coefficients of the two twist-related five-dimensional sums.

    Degrees 0..3 pinned from the first computation; the two sums agree
    degree by degree.
    """
    spaces = [braided_from_graded(direct_sum(u_module(i26, j), v31_module(i26)))
              for j in (0, 1)]
    ranks = [[r.rank for r in hilbert_coeffs(V, 3)] for V in spaces]
    assert ranks[0] == ranks[1] == [1, 5, 14, 31]


def test_v0_u_mixed_sum(i26):
    # matching labels give a sum whose degree-2 coefficient follows the
    # twisted tensor shape; the mismatched pair differs
    m_match = direct_sum(u_module(i26, 0), v0_module(i26, 0))
    m_clash = direct_sum(u_module(i26, 0), v0_module(i26, 1))
    r_match = [r.rank for r in hilbert_coeffs(braided_from_graded(m_match), 2)]
    r_clash = [r.rank for r in hilbert_coeffs(braided_from_graded(m_clash), 2)]
    assert r_match[1] == r_clash[1] == 4
    assert r_match != r_clash


def test_graded_module_validation(i26):
    good = u_module(i26, 0)
    # breaking an exponent violates the involution/braid relations
    perm, expo = good.gen_actions[0]
    bad_s = (perm.copy(), (expo + np.array([1, 0, 0])) % 6)
    with pytest.raises(ValueError):
        GradedModule(g=i26, k=6, degrees=good.degrees,
                     gen_actions=(bad_s, good.gen_actions[1]))
    # degrees in another order break the grading rule on the generators,
    # the only place it is checked (see braided_from_graded)
    with pytest.raises(ValueError, match="grading rule"):
        GradedModule(g=i26, k=6, degrees=good.degrees[::-1],
                     gen_actions=good.gen_actions)
    # one degree fewer than the actions' size
    with pytest.raises(ValueError, match="wrong shape"):
        GradedModule(g=i26, k=6, degrees=good.degrees[:2],
                     gen_actions=good.gen_actions)


def test_act_of_the_empty_word_is_the_identity_pair(i26):
    assert i26.word(0) == ()
    for mod in (u_module(i26, 0), u_module(i26, 1, primed=True),
                v31_module(i26), direct_sum(u_module(i26, 0), v31_module(i26))):
        perm, expo = mod.act(0)
        assert perm.tolist() == list(range(mod.dim))
        assert expo.tolist() == [0] * mod.dim

