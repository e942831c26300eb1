"""Central extension: enumeration, section, certificates."""

import hashlib

import numpy as np
import pytest

from coxrack import extension
from coxrack.coxeter import build_group, preset_matrix
from coxrack.extension import (
    EnumerationOverflow,
    GroupCocycle2,
    Presentation,
    build_section,
    build_wtilde,
    certificate_json,
    certify_twist,
    check_global,
    check_vendramin,
    cocycle_identity_witness,
    coset_enumeration,
    is_split,
    phi_checksum,
    phi_rho,
    twist_certificate,
)
from coxrack.racks import cohomologous_solve, q_minus, q_plus, reflection_rack


@pytest.fixture(scope="module")
def setups():
    cache = {}

    def get(name):
        if name not in cache:
            g = build_group(preset_matrix(name))
            ext = build_wtilde(g.matrix, g)
            sec = build_section(g, ext)
            cache[name] = (g, ext, sec)
        return cache[name]

    return get


def test_presentation_relators():
    pres = Presentation.wtilde(preset_matrix("A2"))
    assert pres.ngens == 3  # t0, t1, z
    # z^2, two (t z)^2, and three braid-type relators for i <= j
    assert len(pres.relators) == 1 + 2 + 3


def test_extension_orders(setups):
    # A1: relations force Z2 x Z2
    g, ext, _ = setups("A1")
    assert ext.order == 4
    # I2(3): trivial extension of S3, order 12
    g, ext, _ = setups("I2(3)")
    assert ext.order == 12
    # I2(4): order 16, non-split
    g, ext, _ = setups("I2(4)")
    assert ext.order == 16
    assert is_split(g.matrix) is None
    for name in ("A3", "B3", "I2(5)"):
        g, ext, _ = setups(name)
        assert ext.order == 2 * g.order


def test_enumeration_overflow():
    pres = Presentation.wtilde(preset_matrix("B3"))
    with pytest.raises(EnumerationOverflow):
        coset_enumeration(pres, live_cap=10)


def test_z_is_central_involution(setups):
    g, ext, _ = setups("B3")
    z = ext.z_elem
    assert z != 0
    M = ext.mult_table()
    assert M[z, z] == 0
    for c in range(ext.order):
        assert M[c, z] == M[z, c]


def test_projection_kernel(setups):
    g, ext, _ = setups("A3")
    pi = ext.pi
    assert sorted(np.nonzero(pi == 0)[0].tolist()) == sorted({0, ext.z_elem})
    # fibers all have size two
    counts = np.bincount(pi, minlength=g.order)
    assert (counts == 2).all()


def test_is_split_matches_all_odd():
    assert is_split(preset_matrix("I2(7)")) == (0, 0)
    assert is_split(preset_matrix("A1")) == (0,)
    assert is_split(preset_matrix("A3")) is None
    assert is_split(preset_matrix("H3")) is None
    assert is_split(preset_matrix("I2(6)")) is None


def test_split_group_is_direct_product(setups):
    # I2(3): subgroup generated by the t_i has order |W| and misses z
    g, ext, _ = setups("I2(3)")
    M = ext.mult_table()
    gens = ext.t_elems
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for e in gens:
                d = int(M[c, e])
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    assert len(seen) == g.order
    assert ext.z_elem not in seen


def test_section_on_simples_and_depth_one(setups):
    g, ext, sec = setups("A2")
    for i in range(g.rank):
        assert sec(g.simple_reflection(i)) == ext.t_elems[i]
    # A2: rho(s1 > s2) = t1 t2 t1 z
    x = g.conj(g.simple_reflection(0), g.simple_reflection(1))
    t0, t1 = ext.t_elems
    M = ext.mult_table()
    expect = M[M[M[t0, t1], t0], ext.z_elem]
    assert sec(x) == expect
    # rho(identity) = identity, by the ShortLex lift convention
    assert sec(0) == 0


def test_section_is_section(setups):
    for name in ("A2", "B2", "A3", "I2(5)"):
        g, ext, sec = setups(name)
        for w in range(g.order):
            assert ext.pi[sec(w)] == w


def test_vendramin_and_global(setups):
    for name in ("A1", "A2", "B2", "A3", "B3", "I2(5)", "I2(6)"):
        g, ext, sec = setups(name)
        assert check_vendramin(g, ext, sec) is None
        assert check_global(g, ext, sec) is None


def test_vendramin_fixed_point_case(setups):
    g, ext, sec = setups("B3")
    M = ext.mult_table()
    inv = ext._inv
    for i in range(g.rank):
        s = g.simple_reflection(i)
        rs = sec(s)
        assert M[M[rs, sec(s)], inv[rs]] == sec(s)  # rho(s) > rho(s) = rho(s)


def test_phi_properties(setups):
    g, ext, sec = setups("A2")
    phi = phi_rho(g, ext, sec)
    assert phi.table.shape == (6, 6)
    assert not phi.table[0].any()       # phi(e, w) = 1
    assert not phi.table[:, 0].any()    # phi(w, e) = 1

    assert certify_twist(g, phi, q_plus(g), q_minus(g)) is None


def test_twist_certificates_and_consistency(setups):
    # split and cohomologous on the all-odd matrix, twist everywhere
    for name, odd in (("A2", True), ("A3", False), ("I2(5)", True),
                      ("I2(6)", False)):
        g, ext, sec = setups(name)
        cert = twist_certificate(g)
        assert cert["vendramin"] == cert["global"] == cert["twist"] == "pass"
        assert cert["all_odd"] == cert["split"] == cert["cohomologous"] == odd
        assert cert["order_wtilde"] == 2 * cert["order_w"]


def test_certificate_deterministic(setups):
    g, _, _ = setups("A3")
    c1 = twist_certificate(g)
    g2 = build_group(preset_matrix("A3"))
    c2 = twist_certificate(g2)
    assert c1 == c2
    from coxrack.extension import certificate_json

    assert certificate_json(c1) == certificate_json(c2)


def test_phi_checksum_stability(setups):
    g, ext, sec = setups("A2")
    h1 = phi_checksum(phi_rho(g, ext, sec))
    g2 = build_group(preset_matrix("A2"))
    ext2 = build_wtilde(g2.matrix, g2)
    sec2 = build_section(g2, ext2)
    h2 = phi_checksum(phi_rho(g2, ext2, sec2))
    assert h1 == h2 and len(h1) == 64


def test_cohomologous_cross_module(setups):
    # the paper-level equivalence: split <=> cohomologous <=> all odd
    for name in ("A1", "A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(7)"):
        g, _, _ = setups(name)
        rack = reflection_rack(g)
        gamma = cohomologous_solve(q_plus(g), q_minus(g), rack)
        assert (gamma is not None) == (is_split(g.matrix) is not None)
        assert (gamma is not None) == g.matrix.all_odd()


# -- oracles for the cheap checks in phi_rho and phi_checksum -----------------

BATTERY = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
           "H3", "D4"]


def full_cocycle_witness(mult, table):
    """Oracle: the 2-cocycle identity over all of W x W x W."""
    for x in range(len(table)):
        lhs = table[mult[x]] ^ table[x][:, None]
        rhs = table[x][mult] ^ table
        if not np.array_equal(lhs, rhs):
            y, w = np.argwhere(lhs != rhs)[0]
            return (int(x), int(y), int(w))
    return None


def line_checksum(table):
    """Oracle: sha256 over the lines f"{x},{y},{bit}\\n", one update each."""
    h = hashlib.sha256()
    n = table.shape[0]
    for x in range(n):
        for y in range(n):
            h.update(f"{x},{y},{int(table[x, y])}\n".encode())
    return h.hexdigest()


def simples(g):
    return [g.simple_reflection(i) for i in range(g.rank)]


def partial_cocycle_space(mult, ys):
    """GF(2) basis (rows) of the tables satisfying the identity for y in ys."""
    n = len(mult)
    x, w = np.divmod(np.arange(n * n), n)
    rows = np.arange(n * n)
    blocks = []
    for y in ys:
        E = np.zeros((n * n, n * n), dtype=np.uint8)
        for var in (mult[x, y] * n + w, x * n + y, x * n + mult[y, w],
                    y * n + w):
            np.add.at(E, (rows, var), 1)
        blocks.append(E % 2 == 1)
    E = np.concatenate(blocks)
    pivots = []
    for c in range(n * n):
        r = len(pivots)
        hits = np.nonzero(E[r:, c])[0]
        if len(hits) == 0:
            continue
        E[[r, r + hits[0]]] = E[[r + hits[0], r]]
        mask = E[:, c].copy()
        mask[r] = False
        E[mask] ^= E[r]
        pivots.append(c)
    free = sorted(set(range(n * n)) - set(pivots))
    basis = np.zeros((len(free), n * n), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        basis[k, pivots] = E[:len(pivots), f]
    return basis.reshape(len(free), n, n)


def identity_holds(mult, table, x, y, w):
    return (table[mult[x, y], w] ^ table[x, y]) == (table[x, mult[y, w]]
                                                    ^ table[y, w])


def test_phi_passes_full_cocycle_oracle_on_battery(setups):
    for name in BATTERY:
        g, ext, sec = setups(name)
        phi = phi_rho(g, ext, sec)
        assert full_cocycle_witness(g.mult_table(), phi.table) is None, name


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_reduced_cocycle_check_agrees_with_full(setups, name):
    g, ext, sec = setups(name)
    mult = g.mult_table()
    true = phi_rho(g, ext, sec).table
    rng = np.random.default_rng(20240712)
    f = rng.integers(0, 2, g.order, dtype=np.uint8)
    coboundary = true ^ f[:, None] ^ f[None, :] ^ f[mult]
    cocycles = [true, true ^ 1, coboundary]
    tables = list(cocycles)
    for k in range(60):
        bad = cocycles[k % 3].copy()
        for _ in range(rng.integers(1, 4)):
            x, y = rng.integers(0, g.order, 2)
            bad[x, y] ^= 1
        tables.append(bad)
    rejected = 0
    for i, table in enumerate(tables):
        reduced = cocycle_identity_witness(mult, table, simples(g))
        full = full_cocycle_witness(mult, table)
        assert (reduced is None) == (full is None), i
        if i < len(cocycles):
            assert reduced is None
        if reduced is not None:
            rejected += 1
            x, y, w = reduced
            assert y in simples(g)
            assert not identity_holds(mult, table, x, y, w)
    assert rejected > 0


@pytest.mark.parametrize("name", ["A2", "B2", "I2(5)", "A3"])
def test_reduced_cocycle_check_needs_every_simple_reflection(name):
    # Every table that passes the reduced check is a 2-cocycle: the
    # solutions form a space, and each of its basis vectors passes the
    # full check.  Leaving out any one simple reflection admits tables
    # that are not 2-cocycles, and the reduced check rejects them.
    g = build_group(preset_matrix(name))
    mult = g.mult_table()
    cocycles = partial_cocycle_space(mult, simples(g))
    for table in cocycles:
        assert full_cocycle_witness(mult, table) is None
    for k in range(g.rank):
        fewer = simples(g)[:k] + simples(g)[k + 1:]
        wider = partial_cocycle_space(mult, fewer)
        assert len(wider) > len(cocycles)
        rejected = 0
        for table in wider:
            reduced = cocycle_identity_witness(mult, table, simples(g))
            assert (reduced is None) == (full_cocycle_witness(mult, table)
                                         is None)
            rejected += reduced is not None
        assert rejected > 0


def test_phi_rho_checks_every_simple_reflection(setups, monkeypatch):
    g, ext, sec = setups("B3")
    seen = []
    check = extension.cocycle_identity_witness
    monkeypatch.setattr(extension, "cocycle_identity_witness",
                        lambda mult, table, ys: seen.append(list(ys))
                        or check(mult, table, ys))
    phi_rho(g, ext, sec)
    assert seen == [simples(g)]


@pytest.mark.parametrize("n", [6, 120, 1152])
def test_phi_checksum_matches_line_oracle(n):
    rng = np.random.default_rng(n)
    table = rng.integers(0, 2, (n, n), dtype=np.uint8)
    assert phi_checksum(GroupCocycle2(table=table)) == line_checksum(table)


def test_phi_checksum_one_row_blocks(monkeypatch):
    table = np.random.default_rng(7).integers(0, 2, (120, 120),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    assert phi_checksum(GroupCocycle2(table=table)) == line_checksum(table)


def test_f4_certificate_pinned():
    g = build_group(preset_matrix("F4"))
    text = certificate_json(twist_certificate(g))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2f67bec673a9205e2bee27e71f0dc7a5d4de501c6e548360454c7fb9eaa3f55d")
