"""Central extension: enumeration, section, certificates."""

import functools
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from coxrack import extension
from coxrack.coxeter import GroupTable, build_group, preset_matrix
from coxrack.extension import (
    CertificationError,
    ExtGroup,
    GroupCocycle2,
    Presentation,
    Section,
    build_section,
    build_wtilde,
    certificate_json,
    certify_twist,
    check_global,
    check_vendramin,
    is_split,
    phi_checksum,
    phi_rho,
    twist_certificate,
)
from coxrack.nichols import braiding_from_rack, symmetrizer_factorized_exact
from coxrack.racks import (
    cohomologous_solve,
    q_minus,
    q_plus,
    q_plus_table,
    reflection_rack,
)
import oracles
from oracles import (
    EnumerationOverflow,
    dense_check_global,
    dense_check_vendramin,
    dense_cocycle_identity_witness,
    dense_phi_identities,
    dense_phi_rho,
    ext_inv_table,
    ext_mult_table,
    hlt_coset_enumeration,
    path_section_witness,
)


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
        hlt_coset_enumeration(pres, live_cap=10)


@pytest.mark.parametrize("name, order", [("H4", 28800), ("E6", 103680)])
def test_big_extensions_close_every_relator(name, order):
    g = build_group(preset_matrix(name))
    ext = build_wtilde(g.matrix, g)
    assert ext.order == order
    letters = [a for pm in ext.gen_perms for a in (pm, np.argsort(pm))]
    points = np.arange(order)
    for word in Presentation.wtilde(g.matrix).relators:
        x = points
        for letter in word:
            x = letters[letter][x]
        assert np.array_equal(x, points), word


def test_z_is_central_involution(setups):
    g, ext, _ = setups("B3")
    z = ext.z_elem
    assert z != 0
    M = ext_mult_table(ext)
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
    M = ext_mult_table(ext)
    gens = ext.gen_perms[:ext.nt, 0]
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
        assert sec.rho[g.simple_reflection(i)] == ext.gen_perms[i, 0]
    # A2: rho(s1 > s2) = t1 t2 t1 z
    x = g.conj(g.simple_reflection(0), g.simple_reflection(1))
    t0, t1 = ext.gen_perms[:ext.nt, 0]
    M = ext_mult_table(ext)
    expect = M[M[M[t0, t1], t0], ext.z_elem]
    assert sec.rho[x] == expect
    # rho(identity) = identity, by the ShortLex lift convention
    assert sec.rho[0] == 0


def test_section_is_section(setups):
    for name in ("A2", "B2", "A3", "I2(5)"):
        g, ext, sec = setups(name)
        for w in range(g.order):
            assert ext.pi[sec.rho[w]] == w


def test_vendramin_and_global(setups):
    for name in ("A1", "A2", "B2", "A3", "B3", "I2(5)", "I2(6)"):
        g, ext, sec = setups(name)
        assert check_vendramin(g, ext, sec) is None
        assert check_global(g, ext, sec) is None


def test_vendramin_fixed_point_case(setups):
    g, ext, sec = setups("B3")
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
    for i in range(g.rank):
        s = g.simple_reflection(i)
        rs = sec.rho[s]
        # rho(s) > rho(s) = rho(s)
        assert M[M[rs, sec.rho[s]], inv[rs]] == sec.rho[s]


def test_phi_properties(setups):
    g, ext, sec = setups("A2")
    phi = phi_rho(g, ext, sec)
    assert phi.table.shape == (6, 6)
    assert not phi.table[0].any()       # phi(e, w) = 1
    assert not phi.table[:, 0].any()    # phi(w, e) = 1

    assert certify_twist(g, phi, q_plus(g), q_minus(g)) is None


def word_signs(g, phi: GroupCocycle2, n: int) -> np.ndarray:
    """D_n(u) = (-1)^(sum_k phi(u_1 ... u_(k-1), u_k)) on the words u of n
    reflections, numbered with the first letter most significant."""
    mult = g.mult_table()
    refl = np.array([t.elem for t in g.reflections])
    prefix, expo = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        letter = np.tile(refl, prefix.size)
        prefix = np.repeat(prefix, refl.size)
        expo = np.repeat(expo, refl.size) ^ phi.table[prefix, letter]
        prefix = mult[prefix, letter]
    return 1 - 2 * expo.astype(np.int64)


@pytest.mark.parametrize("name, nmax", [("A3", 4), ("B2", 5), ("I2(5)", 4)])
def test_twist_conjugates_the_symmetrizers(setups, name, nmax):
    # S_n^+ = D_n S_n^- D_n at zeta = -1, the identity certified_section
    # proves and hilbert relies on; B2 has -1 in W
    g, ext, sec = setups(name)
    phi = phi_rho(g, ext, sec)
    rack = reflection_rack(g)
    spaces = [braiding_from_rack(rack, q(g)) for q in (q_plus, q_minus)]
    for n in range(1, nmax + 1):
        sp, sm = (s[..., 0] - s[..., 1] for s in
                  (symmetrizer_factorized_exact(V, n) for V in spaces))
        signs = word_signs(g, phi, n)
        assert np.array_equal(sp, signs[:, None] * sm * signs), (name, n)
        assert n < 2 or not np.array_equal(sp, sm), (name, n)


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


# -- the cocycle identity oracle and phi_checksum -----------------------------

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
        reduced = dense_cocycle_identity_witness(mult, table, simples(g))
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
            reduced = dense_cocycle_identity_witness(mult, table, simples(g))
            assert (reduced is None) == (full_cocycle_witness(mult, table)
                                         is None)
            rejected += reduced is not None
        assert rejected > 0


@functools.lru_cache(maxsize=None)
def random_table_and_digest(n):
    table = np.random.default_rng(n).integers(0, 2, (n, n), dtype=np.uint8)
    table.flags.writeable = False
    return table, line_checksum(table)


# x and y cross from one digit count to the next at 10, 100 and 1000
DIGIT_BOUNDARY_SIZES = [1, 2, 9, 10, 11, 99, 100, 101, 1001]


@pytest.mark.parametrize("n", [6, 120, 1152] + DIGIT_BOUNDARY_SIZES)
def test_phi_checksum_matches_line_oracle(n):
    table, digest = random_table_and_digest(n)
    assert phi_checksum(GroupCocycle2(table=table)) == digest


def test_phi_checksum_one_row_blocks(monkeypatch):
    table = np.random.default_rng(7).integers(0, 2, (120, 120),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    assert phi_checksum(GroupCocycle2(table=table)) == line_checksum(table)


@pytest.mark.parametrize("n", DIGIT_BOUNDARY_SIZES)
def test_phi_checksum_one_row_blocks_across_digit_boundaries(monkeypatch, n):
    table, digest = random_table_and_digest(n)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    assert phi_checksum(GroupCocycle2(table=table)) == digest


def raised_within(seconds, f, *args):
    """The exception that f(*args) raises on a daemon thread, or None;
    fails when the call has not ended after `seconds`."""
    raised = [None]

    def run():
        try:
            f(*args)
        except Exception as exc:
            raised[0] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"{f.__name__} did not return"
    return raised[0]


def hashing_threads():
    return [t for t in threading.enumerate()
            if t.name == "phi_checksum-sha256"]


def test_phi_checksum_error_mid_stream_leaves_no_thread(monkeypatch):
    table = np.random.default_rng(3).integers(0, 2, (300, 300),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1000)
    real = extension._checksum_blocks

    def three_then_fail(table):
        for k, block in enumerate(real(table)):
            if k == 3:
                raise RuntimeError("stream broke")
            yield block

    monkeypatch.setattr(extension, "_checksum_blocks", three_then_fail)
    exc = raised_within(30, phi_checksum, GroupCocycle2(table=table))
    assert isinstance(exc, RuntimeError) and str(exc) == "stream broke"
    assert not hashing_threads()


def test_phi_checksum_raises_a_hashing_error_after_the_stream(monkeypatch):
    # sha256 refuses a str: the worker's error reaches the caller, and the
    # worker is joined
    table = np.random.default_rng(4).integers(0, 2, (300, 300),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1000)
    real = extension._checksum_blocks

    def one_str(table):
        for k, block in enumerate(real(table)):
            yield "not bytes" if k == 2 else block

    monkeypatch.setattr(extension, "_checksum_blocks", one_str)
    exc = raised_within(30, phi_checksum, GroupCocycle2(table=table))
    assert isinstance(exc, TypeError)
    assert not hashing_threads()


def test_phi_checksum_threads_under_fast_switching(monkeypatch):
    # six checksums at once, each with its own worker, with the thread
    # switch interval cut to 10 us: a block hashed twice, lost or out of
    # order changes the digest
    tables = [np.random.default_rng(k).integers(0, 2, (40 + k, 40 + k),
                                                dtype=np.uint8)
              for k in range(6)]
    want = [line_checksum(t) for t in tables]
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 64)
    got = [None] * len(tables)

    def digest(k):
        got[k] = phi_checksum(GroupCocycle2(table=tables[k]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=digest, args=(k,), daemon=True)
                   for k in range(len(tables))]
        for r in runners:
            r.start()
        for r in runners:
            r.join(60)
        assert not any(r.is_alive() for r in runners)
    finally:
        sys.setswitchinterval(old)
    assert got == want
    assert not hashing_threads()


@pytest.fixture
def no_dense_tables(monkeypatch):
    def refuse(self):
        raise AssertionError("certify built a dense |W| x |W| table")

    monkeypatch.setattr(GroupTable, "mult_table", refuse)


def test_extension_keeps_no_product_table():
    assert not hasattr(ExtGroup, "mult_table")
    assert not hasattr(ExtGroup, "inv_table")


def test_f4_certificate_pinned(no_dense_tables):
    g = build_group(preset_matrix("F4"))
    text = certificate_json(twist_certificate(g))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2f67bec673a9205e2bee27e71f0dc7a5d4de501c6e548360454c7fb9eaa3f55d")


CERT_SHA256 = {
    "A1": "d928c18ac587a423343ff24398fd8165afaf64f70d64a0df1894a422f039b106",
    "A2": "3683a71377b59047a05615f1ef114dcb11dc0541381b936fdca6ab0f91396bfe",
    "A3": "ca22c68d2ba190a7e347ad103cbc4db9013ab7424bf5e37d80bfcc947ffeb5a7",
    "A4": "93a2e152174ade718ee00ad64058de602668848da4d9848fb027b8c70168e406",
    "B2": "f98793c304c836af8884e4cb38c6d5992faeae5ebc10b7b58da3a1ed37083503",
    "B3": "a1b0ec029b9e22ceb4d955cd13e19056ca0f04d15f899af3ffd78b52c2c147d0",
    "I2(5)":
        "9106005fa20ffa428e4c3a69a46c31e386ba9e695b7b52c60fba3b8350094a7a",
    "I2(6)":
        "0806e7d9f3999fa9ec52a0b00832f2cca2ae2e1b8f9d2d910bc38f7de2ae4529",
    "I2(7)":
        "ab408a24682daa7c43ecd407c3352b7deff56631316f60e957d8c5743a69ef86",
    "H3": "01fb09b6063ef70dd25864fe9a349d0e67cb72097d1603e5ebe02462155e0036",
    "D4": "2a3510c2862df5ea51450c14a1ab8323f1b23ff49e29d148171a65703db515a7",
}


@pytest.mark.parametrize("name", BATTERY)
def test_battery_certificate_pinned(name, no_dense_tables):
    g = build_group(preset_matrix(name))
    text = certificate_json(twist_certificate(g))
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[name]


# -- the walked checks against the dense-table oracles -------------------------


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_walked_checks_agree_with_dense_oracles(setups, name):
    g, ext, sec = setups(name)
    assert check_vendramin(g, ext, sec) is None
    assert dense_check_vendramin(g, ext, sec) is None
    assert check_global(g, ext, sec) is None
    assert dense_check_global(g, ext, sec) is None
    assert np.array_equal(phi_rho(g, ext, sec).table,
                          dense_phi_rho(g, ext, sec).table)


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_section_agrees_along_every_path(setups, name):
    g, ext, sec = setups(name)
    assert path_section_witness(g, ext, sec) is None


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4"])
def test_path_mismatch_fails_vendramin(setups, monkeypatch, name):
    # a z flipped on a reflection of length >= 3 disagrees with the path
    # through its first graph edge; check_vendramin is what refuses it
    g, ext, _ = setups(name)
    x = next(t.elem for t in g.reflections if g.length(t.elem) >= 3)
    real = extension.build_section

    def flipped(g, ext):
        rho = real(g, ext).rho.copy()
        rho[x] = ext.gen_perms[ext.nt, rho[x]]
        return Section(rho=rho)

    assert path_section_witness(g, ext, flipped(g, ext))[0] == x
    monkeypatch.setattr(extension, "build_section", flipped)
    with pytest.raises(CertificationError) as exc:
        twist_certificate(g)
    assert exc.value.details["stage"] == "vendramin"


def test_dense_phi_identities_reject_broken_tables(setups):
    g, ext, sec = setups("B3")
    table = phi_rho(g, ext, sec).table
    dense_phi_identities(g, ext, sec, table)
    # one flipped cell breaks the 2-cocycle identity
    bad = table.copy()
    bad[5, 7] ^= 1
    with pytest.raises(CertificationError, match="phi-cocycle-identity"):
        dense_phi_identities(g, ext, sec, bad)
    # a coboundary keeps it, but one that is not constant on a conjugacy
    # class breaks the conjugation identity
    f = np.zeros(g.order, dtype=np.uint8)
    f[g.simple_reflection(0)] = 1
    bad = table ^ f[:, None] ^ f[None, :] ^ f[g.mult_table()]
    assert dense_cocycle_identity_witness(g.mult_table(), bad,
                                          simples(g)) is None
    with pytest.raises(CertificationError, match="phi-conjugation-identity"):
        dense_phi_identities(g, ext, sec, bad)


def test_check_global_reports_first_witness_across_levels(setups,
                                                          monkeypatch):
    # The walk visits each length level in the order of the inverses, so
    # inside a level a larger w can come first; the witness is still the
    # first (w, y) in row-major order, as in the dense oracle.
    g, ext, sec = setups("B3")
    bounds = np.searchsorted(g.length_arr, np.arange(g.length_arr[-1] + 2))
    lo, hi = next((lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
                  if not (np.diff(g.inv_arr[lo:hi]) > 0).all())
    xs = g.inv_arr[lo:hi].tolist()
    k = next(k for k in range(len(xs) - 1) if xs[k] > xs[k + 1])
    late, early = xs[k], xs[k + 1]         # the walk meets late first
    nt = len(g.reflections)
    qp = q_plus_table(g).copy()
    for w, t in ((late, 0), (early, nt - 1), (g.order - 1, 0)):
        qp[w, t] ^= 1
    monkeypatch.setattr(extension, "q_plus_table", lambda g: qp)
    monkeypatch.setattr(oracles, "q_plus_table", lambda g: qp)
    want = (early, g.reflections[nt - 1].elem)
    assert check_global(g, ext, sec) == want
    assert dense_check_global(g, ext, sec) == want


def hlt_perms(g):
    """The extension's generator permutations by Todd-Coxeter."""
    return hlt_coset_enumeration(Presentation.wtilde(g.matrix),
                                 live_cap=4 * g.order + 16)


@pytest.mark.parametrize("name", BATTERY + ["I2(4)"])
def test_cayley_table_matches_todd_coxeter(setups, name):
    # Todd-Coxeter's table renumbered (w, eps) -> the lift of w's ShortLex
    # word times z^eps is the table read off the Cayley graph.
    g, ext, _ = setups(name)
    hlt = np.array(hlt_perms(g))
    lifts = [0] * g.order
    for w in range(g.order):
        for s in g.word(w):
            lifts[w] = int(hlt[s, lifts[w]])
    old = np.concatenate([lifts, hlt[g.rank][lifts]])
    assert np.array_equal(np.sort(old), np.arange(2 * g.order))
    to_new = np.argsort(old)
    assert np.array_equal(to_new[hlt[:, old]], ext.gen_perms)


def test_ext_group_refuses_other_numberings(setups):
    g, ext, _ = setups("B3")
    with pytest.raises(AssertionError):
        ExtGroup(hlt_perms(g), g)
    # the Cayley table with elements 1 and 2 of W swapped in both fibers,
    # so z still adds |W|
    n = g.order
    swap = np.arange(ext.order)
    swap[[1, 2, n + 1, n + 2]] = [2, 1, n + 2, n + 1]
    with pytest.raises(AssertionError, match="ShortLex tree edge"):
        ExtGroup(swap[ext.gen_perms[:, swap]], g)
    # only the two points 1 and 2 swapped: z no longer adds |W|
    swap = np.arange(ext.order)
    swap[[1, 2]] = [2, 1]
    with pytest.raises(AssertionError, match="z is not numbered"):
        ExtGroup(swap[ext.gen_perms[:, swap]], g)
    ExtGroup(ext.gen_perms, g)


def test_phi_rho_walks_w_once(setups, monkeypatch):
    # one depth-first walk for phi, visiting each element once, after its
    # parent; no level-by-level walk besides it
    g, ext, sec = setups("B3")
    orders, levels = [], []
    walk = extension._depth_first
    monkeypatch.setattr(extension, "_depth_first",
                        lambda g: orders.append(walk(g)) or orders[-1])
    level_walk = extension._tree_walk
    monkeypatch.setattr(extension, "_tree_walk",
                        lambda *args: levels.append(1) or level_walk(*args))
    phi_rho(g, ext, sec)
    assert len(orders) == 1 and not levels
    order = orders[0]
    assert sorted(order) == list(range(g.order)) and order[0] == 0
    path = [0]                      # the path to the root, as it is walked
    for y in order[1:]:
        parent = int(g._parent[y])
        assert parent in path
        del path[path.index(parent) + 1:]
        path.append(y)
        assert len(path) == g.length(y) + 1


def test_phi_rho_holds_phi_and_the_path(setups):
    # phi plus one int32 row of |W| per length on the path to the root,
    # with room for per-element tables: 1.92 MB on F4, where a walk that
    # holds whole length levels peaked at 2.86 MB
    g, ext, sec = setups("F4")
    n, depth = g.order, int(g.length_arr[-1]) + 1
    tracemalloc.start()
    try:
        phi_rho(g, ext, sec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n + 4 * n * depth + 512 * n


@pytest.mark.parametrize("name", BATTERY)
def test_tconj_is_dense_conjugation(setups, name):
    g, ext, _ = setups(name)
    M = ext_mult_table(ext)
    for i, t in enumerate(ext.gen_perms[:ext.nt, 0]):
        assert np.array_equal(ext.tconj[i], M[M[t], t])


# sha256 of the dtype, shape and bytes of gen_perms, tconj, pi and rho,
# recorded before the extension was numbered (w, eps) by contract
EXT_SHA256 = {
    "A1": "9e3ad78887ff3dee1c2d9a5f98755df0b9829307ab5ec52482a6ce99ebffbce5",
    "A2": "bea75c756bf92a304186ac6c2fb25717b1787b8959f22ba7f708b759c1bd0086",
    "A3": "87a213b1c37b9b3c7e98e0e6a7527fad53a043ea3b0f1e49e68a2300d17c7f95",
    "A4": "606ad803272928298234baccf0c86e2100e3d272b04a5d214fba1fd43c75ed35",
    "B2": "f756f1d5f2b67618a63ab99a91055388b34e3fe27f16a738f3915b323250291c",
    "B3": "b181bdba5b5322f58ce831cfc750ba7f544b56fb4500afc61ccc91a166000289",
    "I2(5)":
        "62269810c05d8116a83b18c2028289e38bafaa249221ec206dfe5e627b1fc2f7",
    "I2(6)":
        "8eacc93fa4ebe41d52442a0fcf1abf668d23f417c61c951df17f1849f8280141",
    "I2(7)":
        "b47c49a30185ce3d5728b58d2f0416fbe70dda4d9e61f5e77c893d4788c6db44",
    "H3": "210abcfacecebe924cc95aae4baecd192d10ae622d13fe406f63d41aa03cc4bc",
    "D4": "27b6b54db84b140f3345a590dd58240e2dab31a519fd3eb07761dff737e2fbfa",
    "F4": "eb38942c23623940e6c674ac3d67b0b839a20e46fef3e8fd79ee789a7de16adf",
}


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_extension_arrays_pinned(setups, name):
    g, ext, sec = setups(name)
    h = hashlib.sha256()
    for a in (ext.gen_perms, ext.tconj, ext.pi, sec.rho):
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == EXT_SHA256[name]


@pytest.mark.parametrize("name, bits", [("A2", (0, 1)), ("I2(6)", (0, 0))])
def test_split_witness_rejects_lifts_that_meet_z(setups, name, bits):
    # (t_0 t_1 z)^3 = z on A2, and (t_0 t_1)^6 = z on I2(6)
    g, ext, _ = setups(name)
    with pytest.raises(CertificationError) as err:
        extension._verify_split_witness(g, ext, bits)
    assert err.value.details == {"stage": "split-witness",
                                 "witness": list(bits)}


def first_failure(g, ext, sec, vendramin, global_, phi):
    """(stage, witness, phi table) of the first check that rejects sec."""
    witness = vendramin(g, ext, sec)
    if witness is not None:
        return "vendramin", witness, None
    witness = global_(g, ext, sec)
    if witness is not None:
        return "global", witness, None
    try:
        table = phi(g, ext, sec).table
    except CertificationError as exc:
        return exc.details["stage"], exc.details["witness"], None
    witness = certify_twist(g, GroupCocycle2(table=table), q_plus(g),
                            q_minus(g))
    return ("twist" if witness else None), witness, table


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4"])
def test_corrupted_section_rejected_at_same_stage(setups, name):
    # A z flipped on a reflection breaks the section's conjugation rule.
    # Off the reflections the section is free: the flip changes phi by a
    # coboundary, and every check holds in both versions.
    g, ext, sec = setups(name)
    zp = ext.gen_perms[ext.nt]
    rng = np.random.default_rng(20240712)
    refl = [t.elem for t in g.reflections]
    other = sorted(set(range(g.order)) - set(refl))
    for w, rejected in ((rng.choice(refl), True), (rng.choice(other), False)):
        rho = sec.rho.copy()
        rho[w] = zp[rho[w]]
        bad = Section(rho=rho)
        new = first_failure(g, ext, bad, check_vendramin, check_global,
                            phi_rho)
        old = first_failure(g, ext, bad, dense_check_vendramin,
                            dense_check_global, dense_phi_rho)
        assert new[:2] == old[:2], (name, w)
        assert (new[0] is not None) == rejected, (name, w, new)
        if not rejected:
            assert np.array_equal(new[2], old[2])
            assert not np.array_equal(new[2], phi_rho(g, ext, sec).table)


def test_certify_refuses_before_enumeration_when_phi_does_not_fit(
        monkeypatch):
    def no_work(*args):
        raise AssertionError("coset enumeration ran before the memory check")

    monkeypatch.setattr(extension, "coset_enumeration", no_work)
    monkeypatch.setattr(extension, "_memory_limit_bytes", lambda: 90_000)
    g = build_group(preset_matrix("A4"))
    # 120^2 bytes for phi, 16 * 120 * 11 for the rows per length up to
    # 10, 4 * 2^20 for the checksum buffers
    with pytest.raises(MemoryError, match="needs about 4229824 bytes, 14400 "
                                          "of them for phi, memory limit "
                                          "90000"):
        twist_certificate(g)
