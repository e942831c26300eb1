"""Braidings, Matsumoto section, symmetrizer ranks, quadraticity."""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coxrack import nichols
from coxrack.coxeter import build_group, preset_matrix
from coxrack.dihedral import (
    braided_from_graded,
    dihedral_yd,
    direct_sum,
    u_module,
    v31_module,
)
from coxrack.modlin import (
    nullspace_mod,
    primes_one_mod,
    rank_exact_cyclo,
    root_of_unity_mod,
    row_reduce_mod,
    solve_in_span_mod,
)
from coxrack.nichols import (
    BraidEquationError,
    BraidedSpace,
    DegreeTooLargeError,
    MonomialOp,
    braiding_from_rack,
    coset_ops,
    exact_matrix_as_cyclo,
    hilbert_coeffs,
    is_quadratic_through,
    ladder_ranks_iter,
    reduce_zeta_array,
    symmetrizer_dense_mod,
    symmetrizer_factorized_exact,
    total_dimension,
    word_operator,
)
from coxrack.racks import (
    RackCocycle,
    q_minus,
    q_plus,
    reflection_rack,
)
from oracles import (
    all_reduced_words,
    matsumoto_word,
    perm_operator,
    rank_mod,
    symmetrizer_literal_exact,
    verify_matsumoto_invariance,
)


@pytest.fixture(scope="module")
def spaces():
    cache = {}

    def get(name, which="plus"):
        key = (name, which)
        if key not in cache:
            g = build_group(preset_matrix(name))
            rack = reflection_rack(g)
            q = q_plus(g) if which == "plus" else q_minus(g)
            cache[key] = braiding_from_rack(rack, q)
        return cache[key]

    return get


def one_point_space():
    return BraidedSpace(k=2, target=[[0]], expo=[[1]], labels=["x"])


# -- Matsumoto section -------------------------------------------------------


def perm_of_word(word, n):
    """Oracle: evaluate a word of adjacent swaps (rightmost first)."""
    perm = list(range(n))
    for letter in reversed(word):
        i = letter - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]  # compose s_i first
    return tuple(perm)


def test_matsumoto_words():
    assert matsumoto_word((0, 1, 2)) == ()
    assert matsumoto_word((1, 0)) == (1,)
    assert matsumoto_word((0, 2, 1)) == (2,)
    w0 = matsumoto_word((2, 1, 0))
    assert w0 in {(1, 2, 1), (2, 1, 2)}
    # every word evaluates back to its permutation, at reduced length
    for n in (3, 4):
        for sigma in itertools.permutations(range(n)):
            w = matsumoto_word(sigma)
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if sigma[a] > sigma[b])
            assert len(w) == inversions
            # check all reduced words evaluate to sigma too
            for word in all_reduced_words(sigma):
                assert len(word) == inversions


def test_all_reduced_words_consistent_with_matsumoto():
    for sigma in itertools.permutations(range(4)):
        words = all_reduced_words(sigma)
        assert matsumoto_word(sigma) in words
    assert all_reduced_words((2, 1, 0)) == {(1, 2, 1), (2, 1, 2)}


def test_longest_s3_words_give_equal_operators(spaces):
    V = spaces("A2")
    a = word_operator(V, 3, (1, 2, 1))
    b = word_operator(V, 3, (2, 1, 2))
    assert a.equal(b)


def test_matsumoto_invariance_battery(spaces):
    for name in ("A2", "I2(4)", "I2(5)"):
        for which in ("plus", "minus"):
            assert verify_matsumoto_invariance(spaces(name, which), 4)
    assert verify_matsumoto_invariance(one_point_space(), 4)


def test_word_operator_refuses_out_of_range_letters(spaces):
    V = spaces("A2")
    for letter in (0, -1, 3):
        with pytest.raises(ValueError, match="out of range for 3 strands"):
            word_operator(V, 3, (1, letter))


def test_identity_and_adjacent_transposition(spaces):
    V = spaces("A2")
    ident = perm_operator(V, 3, (0, 1, 2))
    assert ident.equal(MonomialOp.identity(27, V.k))
    swap = perm_operator(V, 3, (1, 0, 2))
    assert swap.equal(V.braid_letter(3, 1))


# -- braided spaces ----------------------------------------------------------


def test_one_point_rack_braiding():
    V = one_point_space()
    assert V.dim == 1 and V.expo == ((1,),)
    reports = hilbert_coeffs(V, 3)
    # the reports end at the first zero rank, before dmax
    assert [r.rank for r in reports] == [1, 1, 0]


def test_braiding_from_rack_validates(spaces):
    V = spaces("A2")
    assert V.dim == 3
    # q-minus braiding has c^2 != id on some pair (non-commuting targets)
    Vm = spaces("A2", "minus")
    c = Vm.braid_letter(2, 1)
    c2 = c.compose_after(c)
    assert not c2.equal(MonomialOp.identity(9, Vm.k))


def test_braid_equation_failure_has_witness():
    # a flipped cocycle entry on the A2 rack breaks the braid equation
    g = build_group(preset_matrix("A2"))
    rack = reflection_rack(g)
    table = [list(r) for r in q_plus(g).table]
    table[0][1] ^= 1
    with pytest.raises(BraidEquationError) as exc:
        braiding_from_rack(rack, RackCocycle(2, tuple(tuple(r) for r in table)))
    assert len(exc.value.witness) == 3


def test_braid_equation_battery(spaces):
    for name in ("A3", "A4", "B3", "D4", "H3", "I2(6)", "I2(7)"):
        spaces(name)          # construction checks the braid equation
        spaces(name, "minus")


# -- symmetrizers ------------------------------------------------------------


def test_factorized_equals_literal_small(spaces):
    for key in (("A2", "plus"), ("A2", "minus")):
        V = spaces(*key)
        for n in range(5):
            lit = reduce_zeta_array(symmetrizer_literal_exact(V, n), V.k)
            fac = reduce_zeta_array(symmetrizer_factorized_exact(V, n), V.k)
            assert np.array_equal(lit, fac)


def test_dense_mod_matches_exact_reduction(spaces):
    V = spaces("A2")
    p = primes_one_mod(V.k, 1)[0]
    omega = root_of_unity_mod(p, V.k)
    for n in (2, 3):
        dense = symmetrizer_dense_mod(V, n, p, omega)
        exact = reduce_zeta_array(symmetrizer_literal_exact(V, n), V.k)
        # k = 2: power basis is just the rational part
        assert np.array_equal(dense, exact[:, :, 0] % p)


def test_trivial_degrees(spaces):
    V = spaces("A3")
    r0, r1 = hilbert_coeffs(V, 1)
    assert (r0.rank, r1.rank) == (1, V.dim)
    assert r0.ambient_dim == 1 and r1.ambient_dim == V.dim


def test_fk3_per_degree_ranks(spaces):
    # oracle: the literal factorial sum over GF(p), degrees <= 5
    V = spaces("A2")
    p = primes_one_mod(V.k, 1)[0]
    omega = root_of_unity_mod(p, V.k)
    zpow = np.array([pow(omega, e, p) for e in range(V.k)])
    oracle = []
    for n in range(6):
        N = V.dim ** n
        acc = np.zeros((N, N), dtype=np.int64)
        cols = np.arange(N)
        for sigma in itertools.permutations(range(n)):
            op = perm_operator(V, n, sigma)
            acc[op.perm, cols] = (acc[op.perm, cols] + zpow[op.expo]) % p
        oracle.append(rank_mod(acc, p))
    assert oracle == [1, 3, 4, 3, 1, 0]
    # the ladder ends at its first zero rank
    steps = itertools.islice(ladder_ranks_iter(V, p, omega), len(oracle) + 1)
    assert [rank for _, rank, _ in steps] == oracle
    reports = hilbert_coeffs(V, 5)
    assert [r.rank for r in reports] == oracle
    assert all(r.agreed for r in reports)
    assert sum(r.rank for r in reports) == 12


def test_i24_total_dimension(spaces):
    V = spaces("I2(4)")
    total, reports = total_dimension(V)
    assert total == 64
    assert [r.rank for r in reports] == [1, 4, 8, 12, 14, 12, 8, 4, 1, 0]


def same_ranks(V1, V2, dmax):
    return ([r.rank for r in hilbert_coeffs(V1, dmax)]
            == [r.rank for r in hilbert_coeffs(V2, dmax)])


def test_hilbert_equalities(spaces):
    assert same_ranks(spaces("A2"), spaces("A2", "minus"), 4)
    assert same_ranks(spaces("I2(5)"), spaces("I2(5)", "minus"), 3)


def test_b3_abelian_class_exterior(spaces):
    g = build_group(preset_matrix("B3"))
    small = min(g.reflection_classes(), key=len)
    rack = reflection_rack(g).subrack(small)
    for q in (q_minus(g).restrict(small), q_plus(g).restrict(small)):
        V = braiding_from_rack(rack, q)
        total, reports = total_dimension(V)
        assert total == 8
        assert [r.rank for r in reports] == [1, 3, 3, 1, 0]


def test_subrack_monotonicity(spaces):
    # ranks of a subrack braiding never exceed the ambient ones
    g = build_group(preset_matrix("B3"))
    amb = spaces("B3", "minus")
    small = min(g.reflection_classes(), key=len)
    rack = reflection_rack(g).subrack(small)
    sub = braiding_from_rack(rack, q_minus(g).restrict(small))
    amb_ranks = [r.rank for r in hilbert_coeffs(amb, 3)]
    sub_ranks = [r.rank for r in hilbert_coeffs(sub, 3)]
    assert all(s <= a for s, a in zip(sub_ranks, amb_ranks))


# -- spanning-column ladder against the dense d^n assembly --------------------


def dense_ladder_ranks(V, p, omega, dmax):
    """Oracle: ranks 0..dmax from all d^n columns of each degree, in
    coordinates of the previous image (the ladder before spanning columns)."""
    d = V.dim
    ranks = [1, d][:dmax + 1]
    gamma = np.eye(d, dtype=np.int64)
    r_prev = d
    zpow = np.array([pow(omega, e, p) for e in range(V.k)], dtype=np.int64)
    for n in range(2, dmax + 1):
        if r_prev == 0:
            ranks.append(0)
            continue
        N = d ** n
        C = np.zeros((r_prev * d, N), dtype=np.int64)
        Cr = C.reshape(r_prev, d, N)
        cols = np.arange(N)
        for op in coset_ops(V, n):
            a, b = op.perm // d, op.perm % d
            Cr[:, b, cols] = (Cr[:, b, cols]
                              + gamma[:, a] * zpow[op.expo][None, :]) % p
        _, pivots = row_reduce_mod(C.copy(), p)
        r_prev = len(pivots)
        if r_prev > 0:
            gamma = solve_in_span_mod(C[:, pivots], C, p)
        ranks.append(r_prev)
    return ranks


def spanning_ladder_ranks(V, p, omega, dmax):
    """Ranks through dmax, zero past the degree where the ladder ends."""
    steps = itertools.islice(ladder_ranks_iter(V, p, omega), dmax + 1)
    ranks = [rank for _, rank, _ in steps]
    return ranks + [0] * (dmax + 1 - len(ranks))


def b3_small_class_space(which):
    g = build_group(preset_matrix("B3"))
    small = min(g.reflection_classes(), key=len)
    rack = reflection_rack(g).subrack(small)
    q = q_plus(g) if which == "plus" else q_minus(g)
    return braiding_from_rack(rack, q.restrict(small))


def i26_sum_space(j):
    g = build_group(preset_matrix("I2(6)"))
    return braided_from_graded(direct_sum(u_module(g, j), v31_module(g)))


ORACLE_CASES = (
    [(name, which) for name in ("A2", "B2", "A3", "I2(4)", "I2(5)")
     for which in ("plus", "minus")]
    + [("B3 small class", "plus"), ("B3 small class", "minus"),
       ("I2(6) U(0)+V(3,1)", 0), ("I2(6) U(1)+V(3,1)", 1),
       ("dihedral 5", None)])


@pytest.mark.parametrize("name,which", ORACLE_CASES)
def test_spanning_ladder_matches_dense_oracle(spaces, name, which):
    if name.startswith("B3"):
        V = b3_small_class_space(which)
    elif name.startswith("I2(6)"):
        V = i26_sum_space(which)
    elif name == "dihedral 5":
        V = dihedral_yd(5, [(5, 1), (5, 3)])
    else:
        V = spaces(name, which)
    for p in primes_one_mod(V.k, count=2):
        omega = root_of_unity_mod(p, V.k)
        assert (spanning_ladder_ranks(V, p, omega, 5)
                == dense_ladder_ranks(V, p, omega, 5))


def test_column_outside_pivot_span_raises(spaces, monkeypatch):
    # dropping a pivot of a degree-2 block leaves a basis that does not
    # span the block's image; the degree-3 step must refuse instead of
    # reporting a rank
    calls = []

    def short_first_reduction(a, p, full=False):
        out, pivots = row_reduce_mod(a, p, full)
        if pivots:
            calls.append(len(pivots))
        return out, pivots[:-1] if len(calls) == 1 and pivots else pivots

    monkeypatch.setattr(nichols, "row_reduce_mod", short_first_reduction)
    V = spaces("A2")
    p = primes_one_mod(V.k, count=1)[0]
    with pytest.raises(ValueError, match="not in the span"):
        spanning_ladder_ranks(V, p, root_of_unity_mod(p, V.k), 3)
    # A2 in degree 2: the identity grade has rank 0, the two 3-cycles 2
    assert calls[:2] == [2, 2]


def test_a3_full_series(spaces):
    # the 576-dimensional Nichols algebra, out of reach of the d^n assembly
    V = spaces("A3", "minus")
    p = primes_one_mod(V.k, count=1)[0]
    ranks = spanning_ladder_ranks(V, p, root_of_unity_mod(p, V.k), 13)
    assert ranks == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0]
    assert sum(ranks) == 576


# -- the grading: S_n is block diagonal in g(u) ------------------------------


def word_grades(V, n) -> list[tuple[int, ...]]:
    """Oracle: g(u) = phi_(u_1) o ... o phi_(u_n) of every degree-n word
    u, in word-index order, phi_x the left translation y -> x > y."""
    tgt = np.array(V.target, dtype=np.int64)
    out = []
    for word in itertools.product(range(V.dim), repeat=n):
        grade = np.arange(V.dim)
        for x in reversed(word):
            grade = tgt[x][grade]
        out.append(tuple(grade.tolist()))
    return out


def graded_case_space(spaces, name, which):
    if name.startswith("I2(6)"):
        return i26_sum_space(which)
    if name == "dihedral 5":
        return dihedral_yd(5, [(5, 1), (5, 3)])
    return spaces(name, which)


GRADED_CASES = (
    [(name, which) for name in ("A2", "B2", "A3", "I2(5)")
     for which in ("plus", "minus")]
    + [("I2(6) U(0)+V(3,1)", 0), ("I2(6) U(1)+V(3,1)", 1),
       ("dihedral 5", None)])


@pytest.mark.parametrize("name,which", GRADED_CASES)
def test_symmetrizer_block_diagonal_in_grade(spaces, name, which):
    # no entry of the dense S_n joins two grades, and the ladder's block
    # ranks are the ranks of the dense diagonal blocks, adding up to the
    # dense rank
    V = graded_case_space(spaces, name, which)
    p = primes_one_mod(V.k, count=1)[0]
    omega = root_of_unity_mod(p, V.k)
    ladder = nichols._SpanLadder(V, p, omega)
    for n in range(2, 5):
        rank = ladder.extend()
        level = ladder.levels[n]
        blocks = {tuple(grade.tolist()): piv.size
                  for grade, piv in zip(level.grades, level.pivots)
                  if piv.size}
        dense = symmetrizer_dense_mod(V, n, p, omega)
        grades = word_grades(V, n)
        label = {grade: i for i, grade in enumerate(dict.fromkeys(grades))}
        of = np.array([label[grade] for grade in grades])
        assert not dense[of[:, None] != of[None, :]].any()
        dense_blocks = {}
        for grade, i in label.items():
            idx = np.flatnonzero(of == i)
            block_rank = rank_mod(dense[np.ix_(idx, idx)], p)
            if block_rank:
                dense_blocks[grade] = block_rank
        assert dense_blocks == blocks
        assert sum(blocks.values()) == rank == rank_mod(dense, p)


def test_diagonal_braiding_runs_as_one_block():
    # phi_x = id for every letter: every word has the identity grade
    V = dihedral_yd(5, [(5, 1), (5, 3)])
    p = primes_one_mod(V.k, count=1)[0]
    ladder = nichols._SpanLadder(V, p, root_of_unity_mod(p, V.k))
    ranks = [ladder.extend() for _ in range(2, 6)]
    assert ranks == [6, 4, 1, 0]
    for level in ladder.levels[1:]:
        assert [grade.tolist() for grade in level.grades] == [[0, 1, 2, 3]]


@pytest.fixture
def memo_limit(monkeypatch):
    """Sets the memory limit to `limit` bytes and returns the memo bytes
    held after each memo batch."""
    held = []
    real = nichols._SpanLadder._memoize

    def watched(self, m, *args):
        real(self, m, *args)
        held.append(sum(level.words.nbytes + level.gam.nbytes
                        for level in self.levels[1:]))

    def install(limit):
        monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: limit)
        monkeypatch.setattr(nichols._SpanLadder, "_memoize", watched)
        return held

    return install


def refused_memo_bytes(exc) -> tuple[int, int, int]:
    """(batch, held, limit) bytes named by a memo refusal."""
    m = re.search(r"needs about (\d+) bytes on top of the (\d+) bytes "
                  r"memoized, memory limit (\d+)", str(exc.value))
    return tuple(int(v) for v in m.groups())


def test_memo_refused_before_it_passes_memory_limit(spaces, memo_limit):
    # A3: the degree-6 memo batch of 3391 words is the first over 8 MB
    limit = 8_000_000
    held = memo_limit(limit)
    V = spaces("A3")
    p = primes_one_mod(V.k, count=1)[0]
    ranks = []
    with pytest.raises(DegreeTooLargeError, match="degree 6 memo batch") \
            as exc:
        for n, rank, _ in ladder_ranks_iter(V, p, root_of_unity_mod(p, V.k)):
            ranks.append(rank)
    assert ranks == [1, 6, 19, 42, 71, 96, 106]
    batch, before, _ = refused_memo_bytes(exc)
    assert before == held[-1] and before + batch > limit
    assert 0 < max(held) <= limit


def test_total_dimension_disagreeing_primes(undercounting_ladder_iter):
    V = dihedral_yd(5, [(5, 1), (5, 3)])
    undercounting_ladder_iter(2)
    total, reports = total_dimension(V)
    assert total == 16
    assert [r.rank for r in reports] == [1, 4, 6, 4, 1, 0]
    assert [r.agreed for r in reports] == [True, True, False, True, True,
                                           True]


def test_total_dimension_primes_vanish_at_different_degrees(
        undercounting_ladder_iter):
    # the smaller prime reaches zero one degree early
    V = dihedral_yd(5, [(5, 1), (5, 3)])
    undercounting_ladder_iter(4)
    total, reports = total_dimension(V)
    assert total == 16
    assert [r.rank for r in reports] == [1, 4, 6, 4, 1, 0]
    assert [r.agreed for r in reports] == [True] * 4 + [False, True]


def test_memory_limit_guard(spaces, memo_limit):
    # A3 through degree 8 passes 15 MB first at its degree-7 memo batch
    held = memo_limit(15_000_000)
    with pytest.raises(DegreeTooLargeError, match="memo batch") as exc:
        hilbert_coeffs(spaces("A3"), 8)
    batch, before, limit = refused_memo_bytes(exc)
    assert limit == 15_000_000 and before + batch > limit
    assert 0 < max(held) <= limit


def test_exact_mode_memo_refused_before_it_passes_memory_limit(
        spaces, memo_limit):
    # exact mode runs its ladders under the same limit: A3's degree-3 memo
    # batch of 210 words needs about 151200 bytes
    held = memo_limit(150_000)
    with pytest.raises(DegreeTooLargeError,
                       match="degree 3 memo batch of 210 words") as exc:
        hilbert_coeffs(spaces("A3"), 5, mode="exact")
    batch, before, limit = refused_memo_bytes(exc)
    assert (batch, before, limit) == (151200, held[-1], 150_000)
    assert 0 < max(held) <= limit


def test_negative_dmax_refused(spaces):
    with pytest.raises(ValueError, match="dmax must be at least 0"):
        hilbert_coeffs(spaces("A2"), -1)


def test_disagreeing_primes_report_largest_rank(spaces,
                                                undercounting_ladder_iter):
    undercounting_ladder_iter(2)
    reports = hilbert_coeffs(spaces("A2"), 3)
    assert [r.rank for r in reports] == [1, 3, 4, 3]
    assert [r.nullity for r in reports] == [0, 0, 5, 24]
    assert [r.agreed for r in reports] == [True, True, False, True]


def test_exact_mode_matches_modular(spaces):
    for key in (("A2", "plus"), ("A2", "minus"), ("I2(4)", "plus")):
        V = spaces(*key)
        exact = hilbert_coeffs(V, 3, mode="exact")
        modular = hilbert_coeffs(V, 3)
        assert [r.rank for r in exact] == [r.rank for r in modular]
        assert all(r.mode == "exact" for r in exact)


# -- exact ranks certified on the ladder --------------------------------------


def dense_exact_rank(V, n):
    """Oracle: rank of S_n over Q(zeta_k) by dense CycloNumber elimination,
    zero rows and columns dropped first (they do not change the rank)."""
    arr = symmetrizer_factorized_exact(V, n)
    nonzero = reduce_zeta_array(arr, V.k).any(axis=2)
    arr = arr[nonzero.any(axis=1)][:, nonzero.any(axis=0)]
    return rank_exact_cyclo(exact_matrix_as_cyclo(arr, V.k), V.k)


EXACT_CASES = [("A2", "plus"), ("A2", "minus"), ("B2", "plus"),
               ("B2", "minus"), ("I2(4)", "plus"), ("B3 small class", "plus"),
               ("B3 small class", "minus"), ("dihedral 5", None)]


def exact_case_space(spaces, name, which):
    if name.startswith("B3"):
        return b3_small_class_space(which)
    if name == "dihedral 5":
        return dihedral_yd(5, [(5, 1), (5, 3)])
    return spaces(name, which)


@pytest.mark.parametrize("name,which", EXACT_CASES)
def test_exact_mode_matches_dense_cyclo_oracle(spaces, name, which):
    V = exact_case_space(spaces, name, which)
    assert V.dim ** 4 <= 256
    reports = hilbert_coeffs(V, 4, mode="exact")
    assert [r.rank for r in reports[2:]] == [dense_exact_rank(V, n)
                                            for n in range(2, 5)]
    assert all(r.mode == "exact" and r.agreed for r in reports)


@pytest.mark.parametrize("name,which", EXACT_CASES)
def test_exact_primes_exceed_hadamard_bound(spaces, name, which):
    V = exact_case_space(spaces, name, which)
    phi = sum(math.gcd(j, V.k) == 1 for j in range(1, V.k + 1))
    for r in hilbert_coeffs(V, 4, mode="exact"):
        assert len(r.primes) >= 2
        assert all(p % V.k == 1 for p in r.primes)
        assert (math.prod(r.primes)
                > math.factorial(r.degree) ** ((r.rank + 1) * phi))


def test_exact_mode_certifies_despite_undercounting_prime(
        spaces, undercounting_ladder_iter):
    undercounting_ladder_iter(2)
    reports = hilbert_coeffs(spaces("A2"), 3, mode="exact")
    assert [r.rank for r in reports] == [1, 3, 4, 3]
    assert all(r.agreed for r in reports)


def test_modular_degree_refused_over_memory_limit(spaces, monkeypatch):
    # A3 degree 2: the largest block, the identity grade, has the 6
    # candidates x x in 6 * width_1 = 6 slot rows: two int64 copies need
    # 16 * 6 * 6 = 576 bytes, and degree 2 memoizes nothing
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 575)
    with pytest.raises(DegreeTooLargeError,
                       match="degree 2 needs 576 bytes"):
        hilbert_coeffs(spaces("A3"), 2)
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 576)
    assert [r.rank for r in hilbert_coeffs(spaces("A3"), 2)] == [1, 6, 19]
    # degree 3: 10 candidates in 6 * 2 = 12 slot rows, 1920 bytes
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 1_919)
    with pytest.raises(DegreeTooLargeError,
                       match="degree 3 needs 1920 bytes for two copies of "
                             "its largest candidate block, 10 columns of "
                             "12 rows"):
        hilbert_coeffs(spaces("A3"), 3)


def test_report_serialization(spaces):
    rep = hilbert_coeffs(spaces("A2"), 2)[2]
    d = rep.to_dict()
    assert d["schema"] == "symmetrizer_report.v1"
    assert d["rank"] + d["nullity"] == d["ambient_dim"] == 9
    assert len(d["primes"]) == 2 and d["agreed"]


def test_twist_pairs_equal_ranks_battery(spaces):
    # twist-equivalent cocycles give equal low-degree rank sequences on
    # the full certificate battery (depth is covered by the A2/A3/I2
    # jobs elsewhere)
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)",
                 "I2(7)", "H3", "D4"):
        assert same_ranks(spaces(name), spaces(name, "minus"), 2)


# -- quadraticity ------------------------------------------------------------


def test_quadratic_kernel_dimension(spaces):
    # the degree-2 kernel is_quadratic_through builds its ideal from
    V = spaces("A2")
    p = primes_one_mod(V.k)[0]
    omega = root_of_unity_mod(p, V.k)
    mat = symmetrizer_dense_mod(V, 2, p, omega)
    basis = nullspace_mod(mat, p)
    assert basis.shape[0] == 9 - 4 == 5
    for v in basis:
        assert not (mat @ v % p).any()


def test_one_dim_space_quadratic():
    assert is_quadratic_through(one_point_space(), 3)


def test_fk3_quadratic_through_4(spaces):
    assert is_quadratic_through(spaces("A2"), 4)
    assert is_quadratic_through(spaces("A2", "minus"), 4)


def test_quadraticity_agrees_across_cocycles(spaces):
    # q+ is quadratic through degree 4 exactly when q- is: B2 and I2(5)
    # have a degree-4 relation the degree-2 ideal misses, A3 has none
    for name, quadratic in (("B2", False), ("I2(5)", False), ("A3", True)):
        for which in ("plus", "minus"):
            assert is_quadratic_through(spaces(name, which), 4) == quadratic


@pytest.mark.slow
def test_2304_ladder_reaches_degree_12_under_512_mib():
    # U(0) + V(3,1) over I2(6) at one prime; the ladder without blocks
    # peaked at 870 MB RSS at degree 12 and fails under this limit
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import resource\n"
            "limit = 512 * 2 ** 20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from coxrack import coxeter, dihedral, modlin, nichols\n"
            "g = coxeter.build_group(coxeter.preset_matrix('I2(6)'))\n"
            "V = dihedral.braided_from_graded(dihedral.direct_sum(\n"
            "    dihedral.u_module(g, 0), dihedral.v31_module(g)))\n"
            "p = modlin.primes_one_mod(V.k, count=1)[0]\n"
            "omega = modlin.root_of_unity_mod(p, V.k)\n"
            "for n, rank, _ in nichols.ladder_ranks_iter(V, p, omega):\n"
            "    print(rank, end=',')\n"
            "    if n == 12:\n"
            "        break\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1,5,14,31,58,95,140,187,229,258,268,258,229,"
