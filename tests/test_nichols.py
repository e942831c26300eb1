"""Braidings, Matsumoto section, symmetrizer ranks, quadraticity."""

import copy
import itertools
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
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
    matmul_mod,
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
    symmetrizer_mod,
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
            lit = exact_matrix_as_cyclo(symmetrizer_literal_exact(V, n), V.k)
            fac = exact_matrix_as_cyclo(symmetrizer_factorized_exact(V, n), V.k)
            assert np.array_equal(lit, fac)


def test_dense_mod_matches_exact_reduction(spaces):
    # the dense mod-p symmetrizer (is_quadratic_through reads its degree-2
    # kernel off it) is the literal sum's power-basis form read at omega
    for V in (spaces("A2"), dihedral_yd(5, [(5, 1), (5, 3)])):
        p = primes_one_mod(V.k, 1)[0]
        omega = root_of_unity_mod(p, V.k)
        zpow = np.array([pow(omega, e, p) for e in range(V.k)], dtype=np.int64)
        for n in (2, 3):
            exact = exact_matrix_as_cyclo(symmetrizer_literal_exact(V, n), V.k)
            assert np.array_equal(symmetrizer_mod(V, n, p, omega),
                                  exact @ zpow[:exact.shape[-1]] % p)


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


I26_SERIES = [1, 5, 14, 31, 58, 95, 140, 187, 229, 258, 268, 258, 229, 187,
              140, 95, 58, 31, 14, 5, 1, 0]


@pytest.mark.parametrize("j", [0, 1])
def test_2304_dimensional_algebras(j):
    # U(j) + V(3,1) over the dihedral group of order 12, whole, at both
    # primes
    total, reports = total_dimension(i26_sum_space(j))
    assert total == 2304 == sum(I26_SERIES)
    assert [r.rank for r in reports] == I26_SERIES
    assert all(r.agreed and len(r.primes) == 2 for r in reports)


def test_b2_algebras_whole(spaces):
    for which in ("plus", "minus"):
        assert total_dimension(spaces("B2", which))[0] == 64


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


def ladder_levels(V, p, omega, dmax):
    """The ladder's degrees 0..dmax (degree 0 as None); the ladder drops a
    degree once it has built the next, but these references keep it."""
    ladder = nichols._SpanLadder(V, p, omega)
    levels = [None, ladder.level]
    for _ in range(2, dmax + 1):
        ladder.extend()
        levels.append(ladder.level)
    return levels


def letter_coordinates(level, l):
    """Coordinates of block l's candidates in its pivot basis, (rank,
    candidates): its reduced echelon form, with the unit columns of the
    pivot candidates restored."""
    piv = level.pivots[l]
    size = int(level.off[l, -1])
    out = np.zeros((len(piv), size), dtype=np.int64)
    out[np.arange(len(piv)), piv] = 1
    out[:, np.setdiff1d(np.arange(size), piv)] = level.letters[l]
    return out


def pivot_words(levels):
    """Per degree, per block, the words of its pivot columns: the i-th
    pivot candidate (x, k) of a block is x times the k-th pivot word of
    block down[x] one degree lower."""
    words = [[[()]]]
    for level in levels[1:]:
        words.append([])
        for l in range(len(level.rank)):
            block = []
            for t in level.pivots[l]:
                x = int(np.searchsorted(level.off[l], t, side="right")) - 1
                block.append((x,) + words[-2][level.down[l, x]][
                    t - level.off[l, x]])
            words[-1].append(block)
    return words


def left_product(V, levels, p, u):
    """(block, L_(u_1) ... L_(u_n) 1) at degree n = len(u), or None where
    a factor lands in a block of rank 0 (the class of u is then 0)."""
    tgt = np.array(V.target)
    grade, block = np.arange(V.dim), 0
    vec = np.ones(1, dtype=object)
    for m, x in enumerate(reversed(u), start=1):
        level = levels[m]
        grade = tgt[x][grade]
        l = level.label.get(grade.astype(level.grades.dtype).tobytes())
        if l is None or level.rank[l] == 0:
            return None
        assert level.down[l, x] == block
        lx = letter_coordinates(level, l)[:, level.off[l, x]:level.off[l, x + 1]]
        vec = lx.astype(object) @ vec % p
        block = l
    return block, vec


LETTER_CASES = ([(name, which) for name in ("A2", "B2", "A3")
                 for which in ("plus", "minus")]
                + [("I2(6) U(0)+V(3,1)", 0)])


@pytest.mark.parametrize("name,which", LETTER_CASES)
def test_letter_matrices_multiply_on_the_left(spaces, name, which):
    # for every word u of degree <= 4, L_(u_1) ... L_(u_n) applied to 1
    # gives the coordinates of the column of the dense S_n at u in the
    # ladder's pivot basis, as solve_in_span_mod finds them
    V = i26_sum_space(which) if name.startswith("I2(6)") else spaces(name,
                                                                     which)
    p = primes_one_mod(V.k, count=1)[0]
    omega = root_of_unity_mod(p, V.k)
    levels = ladder_levels(V, p, omega, 4)
    words = pivot_words(levels)
    d = V.dim
    for n in range(1, 5):
        dense = symmetrizer_mod(V, n, p, omega)
        index = {u: i for i, u in enumerate(
            itertools.product(range(d), repeat=n))}
        by_block = {}
        for u in index:
            product = left_product(V, levels, p, u)
            if product is None:
                assert not dense[:, index[u]].any()
            else:
                by_block.setdefault(product[0], []).append((u, product[1]))
        for l, found in by_block.items():
            cols = [index[u] for u, _ in found]
            pivots = [index[w] for w in words[n][l]]
            want = solve_in_span_mod(dense[:, pivots], dense[:, cols], p)
            got = np.array([vec for _, vec in found], dtype=np.int64).T
            assert np.array_equal(got, want)


def test_a3_full_series(spaces, monkeypatch):
    # the 576-dimensional Nichols algebras, out of reach of the d^n
    # assembly; the ladder that memoized the coordinates of every word it
    # touched was refused at degree 6 under this limit
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 8_000_000)
    for which in ("plus", "minus"):
        V = spaces("A3", which)
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
        level = ladder.level
        blocks = {tuple(grade.tolist()): int(r)
                  for grade, r in zip(level.grades, level.rank) if r}
        dense = symmetrizer_mod(V, n, p, omega)
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
    grades = [ladder.level.grades.tolist()]
    ranks = []
    for _ in range(2, 6):
        ranks.append(ladder.extend())
        grades.append(ladder.level.grades.tolist())
    assert ranks == [6, 4, 1, 0]
    for grade in grades:
        assert grade == [[0, 1, 2, 3]]


def test_ladder_basis_survives_its_elimination():
    # one word x x, one candidate: eliminating the block's columns in
    # place would normalise the stored pivot column to 1
    V = nichols.DiagonalBraidedSpace(3, [[1]])
    p = primes_one_mod(V.k, count=1)[0]
    omega = root_of_unity_mod(p, V.k)
    ladder = nichols._SpanLadder(V, p, omega)
    assert ladder.extend() == 1
    # S_2 = 1 + c and c(x x) = zeta x x
    assert [basis.tolist() for basis in ladder.level.basis] == [
        [[(1 + omega) % p]]]


REFUSAL = re.compile(
    r"degree (\d+) needs (\d+) bytes: (\d+) held by degree \d+, up to (\d+) "
    r"kept, (\d+) to build and eliminate its largest block, c = (\d+), and "
    r"(\d+) for one product, memory limit (\d+)")


def refusal(ladder) -> dict[str, int]:
    """The parts that the refusal of the ladder's next degree names, read
    off under a limit of 0 bytes (a refusal leaves the ladder as it was)."""
    limit, ladder.limit = ladder.limit, 0
    with pytest.raises(DegreeTooLargeError) as exc:
        ladder.extend()
    ladder.limit = limit
    names = ("degree", "need", "held", "keep", "block", "size", "product",
             "limit")
    values = REFUSAL.fullmatch(str(exc.value)).groups()
    return dict(zip(names, map(int, values)))


def test_degree_refused_below_its_bound(spaces, monkeypatch):
    # degree 4 of A3 is refused one byte below the sum of what degree 3
    # holds, what degree 4 keeps (at most 4 c^2 bytes and c pivots per
    # block of c candidates), its largest block with elimination's copies,
    # and one product of an r1 x r2 letter matrix and r2 x r1 pivot rows
    V = spaces("A3")
    p = primes_one_mod(V.k, count=1)[0]
    omega = root_of_unity_mod(p, V.k)
    levels = ladder_levels(V, p, omega, 4)
    three, sizes = levels[3], levels[4].off[:, -1]
    held = (sum(a.nbytes for a in three.basis + three.letters)
            + 40 * int(three.rank.sum()))
    keep = 4 * int((sizes ** 2).sum()) + 40 * int(sizes.sum())
    block = 32 * int(sizes.max()) ** 2
    r1, r2 = int(three.rank.max()), int(np.diff(three.off).max())
    product = 8 * (27 * r1 * r2 + 4 * r1 * r1)
    need = held + keep + block + product
    assert held > 0 and r2 > 0

    def ranks(limit):
        monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: limit)
        steps = itertools.islice(ladder_ranks_iter(V, p, omega), 5)
        return [rank for _, rank, _ in steps]

    with pytest.raises(DegreeTooLargeError) as exc:
        ranks(need - 1)
    assert [int(v) for v in REFUSAL.fullmatch(str(exc.value)).groups()] == [
        4, need, held, keep, block, int(sizes.max()), product, need - 1]
    assert ranks(need) == [1, 6, 19, 42, 71]


def test_product_factors_within_their_count(spaces, monkeypatch):
    # A3 degree 11, whose slots have unequal ranks: the factors that every
    # product hands matmul_mod, in int64, fit in the refusal's product
    # term, and the degree is refused one byte below the sum of the parts
    V = spaces("A3")
    p = primes_one_mod(V.k, count=1)[0]
    ladder = nichols._SpanLadder(V, p, root_of_unity_mod(p, V.k))
    for _ in range(9):
        ladder.extend()
    parts = refusal(ladder)
    before = copy.deepcopy(ladder)
    factors = []

    def spy_matmul(a, b, p):
        factors.append(8 * (a.size + b.size))
        return matmul_mod(a, b, p)

    monkeypatch.setattr(nichols, "matmul_mod", spy_matmul)
    assert ladder.extend() == 6
    assert len(set(np.diff(ladder.level.off).ravel().tolist()) - {0}) > 1
    assert 0 < max(factors) <= parts["product"]
    before.limit = parts["need"] - 1
    with pytest.raises(DegreeTooLargeError,
                       match=f"degree 11 needs {parts['need']} bytes"):
        before.extend()
    before.limit = parts["need"]
    assert before.extend() == 6


PEAK_CASES = [("A3", "plus", 8), ("I2(6) U(0)+V(3,1)", 0, 10),
              ("D4", "plus", 5), ("A4", "minus", 7)]


@pytest.mark.parametrize("name,which,degree", PEAK_CASES)
def test_extend_peak_within_its_refusal(spaces, name, which, degree):
    # what building one degree allocates on top of the degree before it,
    # traced, is at most what its refusal counts beyond that degree
    V = graded_case_space(spaces, name, which)
    p = primes_one_mod(V.k, count=1)[0]
    ladder = nichols._SpanLadder(V, p, root_of_unity_mod(p, V.k))
    for _ in range(2, degree):
        ladder.extend()
    parts = refusal(ladder)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ladder.extend()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= parts["need"] - parts["held"]


def test_memory_limit_is_what_the_kernel_will_give(monkeypatch):
    # the smaller of MemAvailable and the soft address-space limit
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(nichols, "_mem_available", lambda: 5 * 2 ** 30)
    monkeypatch.setattr(nichols.resource, "getrlimit", lambda _: unlimited)
    assert nichols._memory_limit_bytes() == 5 * 2 ** 30
    monkeypatch.setattr(nichols.resource, "getrlimit",
                        lambda _: (3 * 2 ** 30, resource.RLIM_INFINITY))
    assert nichols._memory_limit_bytes() == 3 * 2 ** 30
    monkeypatch.undo()
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert 0 < nichols._mem_available() <= phys

    def no_meminfo(*args, **kwargs):
        raise FileNotFoundError("/proc/meminfo")

    # without /proc/meminfo, physical memory
    monkeypatch.setattr(nichols, "open", no_meminfo, raising=False)
    assert nichols._mem_available() == phys


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
    """Oracle: rank of S_n over Q(zeta_k) by dense exact elimination,
    zero rows and columns dropped first (they do not change the rank)."""
    arr = exact_matrix_as_cyclo(symmetrizer_factorized_exact(V, n), V.k)
    nonzero = arr.any(axis=2)
    arr = arr[nonzero.any(axis=1)][:, nonzero.any(axis=0)]
    return rank_exact_cyclo(arr, V.k)


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
    # A3 degree 2, whose largest block, the identity grade, has the 6
    # candidates x x, is refused one byte below the sum of its parts
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 3_583)
    with pytest.raises(DegreeTooLargeError,
                       match="degree 2 needs 3584 bytes"):
        hilbert_coeffs(spaces("A3"), 2)
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 3_584)
    assert [r.rank for r in hilbert_coeffs(spaces("A3"), 2)] == [1, 6, 19]
    # degree 3: a largest block of 10 candidates
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 13_715)
    with pytest.raises(DegreeTooLargeError, match=re.escape(
            "degree 3 needs 13716 bytes: 1052 held by degree 2, up to 8904 "
            "kept, 3200 to build and eliminate its largest block, c = 10, "
            "and 560 for one product, memory limit 13715")):
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
    mat = symmetrizer_mod(V, 2, p, omega)
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
def test_2304_sum_with_u_prime_degree_9_under_3_gib():
    # U(0) + U'(0) over I2(6) at two primes; degree 9 has one block of 6328
    # candidates, and the ladder that built a block's factors through
    # per-cell index arrays died there in matmul_mod with a MemoryError
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import resource\n"
            "limit = 3 * 2 ** 30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from coxrack import coxeter, dihedral, nichols\n"
            "g = coxeter.build_group(coxeter.preset_matrix('I2(6)'))\n"
            "V = dihedral.braided_from_graded(dihedral.direct_sum(\n"
            "    dihedral.u_module(g, 0),\n"
            "    dihedral.u_module(g, 0, primed=True)))\n"
            "for r in nichols.hilbert_coeffs(V, 9):\n"
            "    print(r.rank, r.agreed, len(r.primes))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=900,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    ranks = [1, 6, 21, 60, 152, 354, 772, 1596, 3164, 6054]
    assert proc.stdout == "".join(f"{r} True 2\n" for r in ranks)


@pytest.mark.slow
def test_2304_ladder_whole_series_under_512_mib():
    # U(0) + V(3,1) over I2(6) at one prime, through its first zero rank;
    # the ladder without blocks peaked at 870 MB RSS at degree 12
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
            "    print(rank, end=',')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{rank}," for rank in I26_SERIES)
