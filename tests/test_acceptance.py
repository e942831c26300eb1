"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines.  Every tolerance here is exact (integer or boolean); the
runtime bounds are asserted with wall clocks.

Declared out of desk-scale reach and therefore only probed at low
degree: the 576-dimensional algebra of the rank-3 simply-laced group
beyond degree ~5, and the 2304-dimensional algebra over the order-12
dihedral group (probed through degree 3 in criterion 10's extras).
"""

import itertools
import json
import time

import numpy as np

from coxrack.cli import main as cli_main
from coxrack.dihedral import (
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
from coxrack.extension import is_split
from coxrack.nichols import (
    braiding_from_rack,
    hilbert_coeffs,
    is_quadratic_through,
    reduce_zeta_array,
    symmetrizer_factorized_exact,
    total_dimension,
)
from coxrack.racks import (
    check_equivariance,
    cocycle_violation,
    cohomologous_solve,
    q_minus,
    q_plus,
    reflection_rack,
)
from oracles import symmetrizer_literal_exact, verify_matsumoto_invariance

BATTERY = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
           "H3", "D4"]
COHOMOLOGOUS_PRESETS = {"A1", "A2", "I2(5)", "I2(7)"}


def verdict(num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {tag}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


def reflection_braiding(g, which):
    rack = reflection_rack(g)
    q = q_plus(g) if which == "plus" else q_minus(g)
    return braiding_from_rack(rack, q)


def test_criterion_1_twist_certificate_battery(group_cache, capsys):
    worst = 0.0
    for name in BATTERY:
        group_cache(name)  # build outside the certify clock
        t0 = time.perf_counter()
        code = cli_main(["certify", name])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        cert = json.loads(out)
        assert code == 0, f"certify {name} exited {code}"
        assert cert["vendramin"] == cert["global"] == cert["twist"] == "pass"
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        worst = max(worst, elapsed)
    with capsys.disabled():
        verdict(1, "twist-certificate-battery", True,
                f"{len(BATTERY)} presets, slowest {worst:.2f}s")


def test_criterion_2_cohomologous_iff_all_odd_iff_split(group_cache, capsys):
    for name in BATTERY:
        g = group_cache(name)
        gamma = cohomologous_solve(q_plus(g), q_minus(g), reflection_rack(g))
        split_bits = is_split(g.matrix)
        expect = name in COHOMOLOGOUS_PRESETS
        assert (gamma is not None) == expect, name
        assert (split_bits is not None) == expect, name
        assert (gamma is not None) == g.matrix.all_odd(), name
    with capsys.disabled():
        verdict(2, "cohomologous-iff-all-odd-iff-split", True,
                f"succeeds exactly on {sorted(COHOMOLOGOUS_PRESETS)}")


def test_criterion_3_hilbert_equality(group_cache, capsys):
    t0 = time.perf_counter()
    jobs = [("A2", 5, None), ("A3", 4, None), ("B2", 6, None),
            ("I2(5)", 3, None), ("B3", 4, "T2")]
    for name, dmax, subrack in jobs:
        g = group_cache(name)
        if subrack is None:
            rack = reflection_rack(g)
            qp, qm = q_plus(g), q_minus(g)
        else:
            cls = g.reflection_classes()[1]
            rack = reflection_rack(g).subrack(cls)
            qp, qm = q_plus(g).restrict(cls), q_minus(g).restrict(cls)
        rep_p = hilbert_coeffs(braiding_from_rack(rack, qp), dmax)
        rep_m = hilbert_coeffs(braiding_from_rack(rack, qm), dmax)
        for a, b in zip(rep_p, rep_m):
            assert a.agreed and b.agreed
            assert a.rank == b.rank, (name, a.degree, a.rank, b.rank)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    with capsys.disabled():
        verdict(3, "hilbert-series-equality", True, f"{elapsed:.1f}s")


def test_criterion_4_pinned_dimensions(group_cache, capsys):
    # rank-2 simply-laced: total 12 for both cocycles
    for which in ("plus", "minus"):
        total, _ = total_dimension(reflection_braiding(group_cache("A2"),
                                                       which))
        assert total == 12
    # square dihedral group: total 64 for both cocycles, through degree 8
    for which in ("plus", "minus"):
        total, reports = total_dimension(
            reflection_braiding(group_cache("B2"), which))
        assert total == 64
    # abelian class of the rank-3 hyperoctahedral group: 1, 3, 3, 1
    g = group_cache("B3")
    cls = g.reflection_classes()[1]
    rack = reflection_rack(g).subrack(cls)
    for q in (q_minus(g).restrict(cls), q_plus(g).restrict(cls)):
        total, reports = total_dimension(braiding_from_rack(rack, q))
        assert total == 8 == 2 ** 3
        assert [r.rank for r in reports] == [1, 3, 3, 1, 0]
    with capsys.disabled():
        verdict(4, "pinned-dimensions", True, "12 / 64 / 8")


def test_criterion_5_factorized_vs_literal(group_cache, capsys):
    spaces = [reflection_braiding(group_cache("A2"), "plus"),
              reflection_braiding(group_cache("A2"), "minus"),
              dihedral_yd(5, [(5, 1), (5, 3)])]
    for V in spaces:
        for n in range(5):
            lit = reduce_zeta_array(symmetrizer_literal_exact(V, n), V.k)
            fac = reduce_zeta_array(symmetrizer_factorized_exact(V, n), V.k)
            assert np.array_equal(lit, fac), (V.labels, n)
    with capsys.disabled():
        verdict(5, "factorized-equals-literal", True,
                "3 braidings, degrees 0..4")


def test_criterion_6_chebyshev_sweep(group_cache, capsys):
    t0 = time.perf_counter()
    total = 0
    shortcut_seen = False
    for name in ("A3", "B3", "H3", "I2(7)"):
        g = group_cache(name)
        reports = g.chebyshev_sweep()  # every report is internally verified
        total += len(reports)
        if any(r.tag == "even-shortcut" for r in reports) and name == "B3":
            shortcut_seen = True
    if not shortcut_seen:
        g = group_cache("B2")
        shortcut_seen = any(r.tag == "even-shortcut"
                            for r in g.chebyshev_sweep())
    elapsed = time.perf_counter() - t0
    assert total > 0 and shortcut_seen
    assert elapsed < 10
    with capsys.disabled():
        verdict(6, "alternating-root-sequences", True,
                f"{total} instances, shortcut found, {elapsed:.1f}s")


def test_criterion_7_quadraticity_probe(group_cache, capsys):
    for which in ("plus", "minus"):
        assert is_quadratic_through(
            reflection_braiding(group_cache("A2"), which), 4)
    with capsys.disabled():
        verdict(7, "quadraticity-through-degree-4", True)


def test_criterion_8_dihedral_diagonal(group_cache, capsys):
    for r in (5, 7):
        # admissible enumeration against a brute-force constraint scan
        brute = [(h, j) for h in range(1, r + 1) for j in range(1, r - 1)
                 if h % 2 == 1 and j % 2 == 1 and h * j % r == 0]
        pairs = admissible_pairs(r)
        assert pairs == brute, r
        # every compatible sum of total dimension <= 4: exterior binomials
        options = [(v0, tuple(chosen))
                   for v0 in range(5)
                   for take in range(3)
                   for chosen in itertools.combinations_with_replacement(
                       pairs, take)
                   if 1 <= v0 + 2 * take <= 4]
        for v0, chosen in options:
            mults = [(h, j, chosen.count((h, j))) for (h, j) in set(chosen)]
            if not compatible(r, [c[:2] for c in mults] or [(r, 1)]):
                continue
            V = dihedral_yd(r, mults, v0_copies=v0)
            total, reports = total_dimension(V)
            assert total == 2 ** V.dim, (r, v0, chosen)
            assert [x.rank for x in reports] == exterior_coefficients(V.dim)
    # incompatible pairs exist for larger odd parameters; their diagram is
    # the four-cycle with -1 vertices and inverse-pair edge labels
    incompat = [(rr, a, b)
                for rr in (9, 15)
                for a, b in itertools.combinations(admissible_pairs(rr), 2)
                if not compatible(rr, [a, b])]
    assert incompat
    for rr, a, b in incompat:
        dd = dynkin_diagram(dihedral_yd(rr, [a, b]))
        assert dd.vertices == (rr,) * 4          # all -1
        assert len(dd.edges) == 4
        labels = sorted(set(dd.edges.values()))
        assert len(labels) == 2
        assert (labels[0] + labels[1]) % (2 * rr) == 0  # xi and xi^-1
        assert labels[0] % (2 * rr) != 0                # xi != 1
        degree = {}
        for (i, j) in dd.edges:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        assert sorted(degree.values()) == [2, 2, 2, 2]
    with capsys.disabled():
        verdict(8, "dihedral-diagonal-summands", True,
                f"r=5,7 exhaustive; {len(incompat)} incompatible pairs checked")


def test_criterion_9_property_suites(group_cache, capsys):
    t0 = time.perf_counter()
    for name in BATTERY:
        g = group_cache(name)
        rack = reflection_rack(g)        # rack axioms checked on construction
        qp, qm = q_plus(g), q_minus(g)
        assert cocycle_violation(qp, rack) is None
        assert cocycle_violation(qm, rack) is None
        assert check_equivariance(g, "plus")
        assert check_equivariance(g, "minus")
        vp = braiding_from_rack(rack, qp)   # braid equation on construction
        vm = braiding_from_rack(rack, qm)
        assert verify_matsumoto_invariance(vp, 3)
        assert verify_matsumoto_invariance(vm, 3)
        reports = hilbert_coeffs(vp, 2)
        assert all(r.agreed for r in reports)  # modular prime agreement
    # full S4 Matsumoto invariance on the desk-scale braidings
    for name in ("A2", "B2", "I2(5)", "I2(6)"):
        assert verify_matsumoto_invariance(
            reflection_braiding(group_cache(name), "plus"), 4)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        verdict(9, "property-suites", True,
                f"{len(BATTERY)} presets, {elapsed:.1f}s")


def test_out_of_reach_probes_low_degree(group_cache, capsys):
    """Low-degree coefficient checks for the declared out-of-reach targets.

    Excluded from the numbered pass/fail criteria: degree <= 4 slice of
    the rank-3 simply-laced reflection braiding (the 576 total is out of
    reach), and the degree <= 3 slice of the five-dimensional sums over
    the order-12 dihedral group (the 2304 total is out of reach).
    """
    g = group_cache("A3")
    rep_p = hilbert_coeffs(reflection_braiding(g, "plus"), 4)
    rep_m = hilbert_coeffs(reflection_braiding(g, "minus"), 4)
    ranks = [r.rank for r in rep_p]
    assert ranks == [r.rank for r in rep_m]
    assert ranks == [1, 6, 19, 42, 71]  # pinned regression values

    i26 = group_cache("I2(6)")
    sums = [braided_from_graded(direct_sum(u_module(i26, j), v31_module(i26)))
            for j in (0, 1)]
    ranks = [[r.rank for r in hilbert_coeffs(V, 3)] for V in sums]
    assert ranks[0] == ranks[1] == [1, 5, 14, 31]  # pinned regression values
    with capsys.disabled():
        verdict("X", "declared-out-of-reach-low-degree-probes", True,
                "excluded from pass/fail totals")
