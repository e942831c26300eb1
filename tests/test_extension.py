"""Central extension: enumeration, section, certificates."""

import functools
import hashlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from coxrack import cli, extension
from coxrack.coxeter import (
    CoxeterMatrix,
    GroupTable,
    RootSystem,
    build_group,
    preset_matrix,
)
from coxrack.extension import (
    CertificationError,
    ExtGroup,
    GroupCocycle2,
    build_section,
    build_wtilde,
    certificate_json,
    certify_twist,
    check_global,
    check_vendramin,
    coset_enumeration,
    phi_checksum,
    phi_rho,
    require_certify_memory,
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
    DenseRows,
    EnumerationOverflow,
    Presentation,
    check_extension_laws,
    dense_check_global,
    dense_check_vendramin,
    dense_cocycle_identity_witness,
    dense_phi_identities,
    dense_phi_rho,
    dense_table,
    edge_bits_by_pair,
    ext_inv_table,
    ext_mult_table,
    hlt_coset_enumeration,
    path_section_witness,
    relator_witness,
    split_lifts,
    verify_split_witness,
)


BATTERY = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
           "H3", "D4"]


@pytest.fixture(scope="module")
def setups():
    cache = {}

    def get(name):
        if name not in cache:
            g = build_group(preset_matrix(name))
            ext = build_wtilde(g)
            cache[name] = (g, ext, build_section(g, ext))
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
    assert split_lifts(g, ext) == []
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
    ext = build_wtilde(g)
    assert ext.order == order
    assert relator_witness(Presentation.wtilde(g.matrix), ext.gen_perms) is None
    check_extension_laws(g, ext)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_coset_table_refuses_a_relator_that_does_not_close(m):
    # the relators are the one check of the group laws: B3's table read
    # with m_01 != 3 leaves (t_0 t_1)^m z^(m + 1) open, as (s_0 s_1)^m != 1
    g = build_group(preset_matrix("B3"))
    rows = [list(r) for r in g.matrix.rows]
    rows[0][1] = rows[1][0] = m
    g.matrix = CoxeterMatrix.from_rows(rows)
    with pytest.raises(AssertionError, match="relator does not close"):
        coset_enumeration(g)


@pytest.mark.parametrize("name", BATTERY + ["F4", "H4", "E6"])
def test_edge_bits_match_the_per_pair_oracle(group_cache, name):
    # one pass per length level sets the bits the loop over (j, i) set
    g = group_cache(name)
    perms = np.array(coset_enumeration(g))
    bits = perms[:g.rank, :g.order].T >= g.order     # (w, 0) t_i = (w s_i, 1)
    assert np.array_equal(bits, edge_bits_by_pair(g).astype(bool))


def test_z_is_central_involution(setups):
    g, ext, _ = setups("B3")
    z = g.order                      # z is element |W|
    assert z != 0
    M = ext_mult_table(ext)
    assert M[z, z] == 0
    for c in range(ext.order):
        assert M[c, z] == M[z, c]


def test_projection_kernel(setups):
    # pi: w + eps |W| -> w is a homomorphism on the dense product table,
    # with kernel {1, z}
    g, ext, _ = setups("A3")
    pi = np.arange(ext.order) % g.order
    assert np.nonzero(pi == 0)[0].tolist() == [0, g.order]
    assert np.array_equal(pi[ext_mult_table(ext)],
                          g.mult_table()[pi[:, None], pi[None, :]])


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "H3", "I2(5)",
                                  "I2(6)", "I2(7)", "D4"])
def test_split_lifts_exist_exactly_when_all_odd(setups, name):
    # all 2^l lift vectors through the BFS oracle: on an all-odd matrix
    # the lifts split exactly when eps is constant on the (connected) odd
    # graph, and otherwise never, as twist_certificate's GF(2) proof says
    g, ext, _ = setups(name)
    l = g.rank
    want = [(0,) * l, (1,) * l] if g.matrix.all_odd() else []
    assert split_lifts(g, ext) == want


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
    assert g.order not in seen       # z is element |W|


def test_section_on_simples_and_depth_one(setups):
    g, ext, rho = setups("A2")
    for i in range(g.rank):
        assert rho[1 + i] == ext.gen_perms[i, 0]
    # A2: rho(s1 > s2) = t1 t2 t1 z
    x = g.element((0, 1, 0))
    t0, t1 = ext.gen_perms[:ext.nt, 0]
    M = ext_mult_table(ext)
    expect = M[M[M[t0, t1], t0], g.order]
    assert rho[x] == expect
    # rho(identity) = identity, by the ShortLex lift convention
    assert rho[0] == 0


def test_section_is_section(setups):
    for name in ("A2", "B2", "A3", "I2(5)"):
        g, ext, rho = setups(name)
        for w in range(g.order):
            assert rho[w] % g.order == w


def test_vendramin_and_global(setups):
    for name in ("A1", "A2", "B2", "A3", "B3", "I2(5)", "I2(6)"):
        g, ext, rho = setups(name)
        assert check_vendramin(g, ext, rho) is None
        assert check_global(g, ext, rho) is None


def test_vendramin_fixed_point_case(setups):
    g, ext, rho = setups("B3")
    M = ext_mult_table(ext)
    inv = ext_inv_table(ext, M)
    for s in range(1, g.rank + 1):
        rs = rho[s]
        # rho(s) > rho(s) = rho(s)
        assert M[M[rs, rho[s]], inv[rs]] == rho[s]


def test_phi_properties(setups):
    g, ext, rho = setups("A2")
    phi = phi_rho(g, ext, rho)
    assert phi.table.shape == (6, 6)
    table = dense_table(phi)
    assert not table[0].any()       # phi(e, w) = 1
    assert not table[:, 0].any()    # phi(w, e) = 1

    assert certify_twist(g, phi, q_plus(g), q_minus(g)) is None


def word_signs(g, phi: GroupCocycle2, n: int) -> np.ndarray:
    """D_n(u) = (-1)^(sum_k phi(u_1 ... u_(k-1), u_k)) on the words u of n
    reflections, numbered with the first letter most significant."""
    mult, table = g.mult_table(), dense_table(phi)
    refl = g.refl_elems
    prefix, expo = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        letter = np.tile(refl, prefix.size)
        prefix = np.repeat(prefix, refl.size)
        expo = np.repeat(expo, refl.size) ^ table[prefix, letter]
        prefix = mult[prefix, letter]
    return 1 - 2 * expo.astype(np.int64)


@pytest.mark.parametrize("name, nmax", [("A3", 4), ("B2", 5), ("I2(5)", 4)])
def test_twist_conjugates_the_symmetrizers(setups, name, nmax):
    # S_n^+ = D_n S_n^- D_n at zeta = -1, the identity certified_section
    # proves and hilbert relies on; B2 has -1 in W
    g, ext, rho = setups(name)
    phi = phi_rho(g, ext, rho)
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
        g, ext, rho = setups(name)
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
    g, ext, rho = setups("A2")
    h1 = phi_checksum(phi_rho(g, ext, rho))
    g2 = build_group(preset_matrix("A2"))
    ext2 = build_wtilde(g2)
    rho2 = build_section(g2, ext2)
    h2 = phi_checksum(phi_rho(g2, ext2, rho2))
    assert h1 == h2 and len(h1) == 64


def test_cohomologous_cross_module(setups):
    # the paper-level equivalence: split <=> cohomologous <=> all odd
    for name in ("A1", "A2", "A3", "B2", "B3", "I2(5)", "I2(6)", "I2(7)"):
        g, ext, _ = setups(name)
        rack = reflection_rack(g)
        gamma = cohomologous_solve(q_plus(g), q_minus(g), rack)
        assert (gamma is not None) == bool(split_lifts(g, ext))
        assert (gamma is not None) == g.matrix.all_odd()


# -- the cocycle identity oracle and phi_checksum -----------------------------


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
    return list(range(1, g.rank + 1))


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
        g, ext, rho = setups(name)
        phi = dense_table(phi_rho(g, ext, rho))
        assert full_cocycle_witness(g.mult_table(), phi) is None, name


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_reduced_cocycle_check_agrees_with_full(setups, name):
    g, ext, rho = setups(name)
    mult = g.mult_table()
    true = dense_table(phi_rho(g, ext, rho))
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
    assert phi_checksum(GroupCocycle2(table=DenseRows(table))) == digest


def test_phi_checksum_one_row_blocks(monkeypatch):
    # a block ends where a chunk does: one-row chunks give one-row blocks
    table = np.random.default_rng(7).integers(0, 2, (120, 120),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    phi = GroupCocycle2(table=DenseRows(table, chunk=1))
    assert phi_checksum(phi) == line_checksum(table)


@pytest.mark.parametrize("n", DIGIT_BOUNDARY_SIZES)
def test_phi_checksum_one_row_blocks_across_digit_boundaries(monkeypatch, n):
    table, digest = random_table_and_digest(n)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    assert phi_checksum(GroupCocycle2(table=DenseRows(table, chunk=1))) == digest


@pytest.mark.parametrize("n", [120] + DIGIT_BOUNDARY_SIZES)
@pytest.mark.parametrize("chunk", [3, 7])
def test_phi_checksum_chunks_and_blocks_out_of_step(monkeypatch, n, chunk):
    # blocks of four rows (the least a block holds) against chunks of 3
    # or 7 rows, which also straddle x = 10, 100 and 1000
    table, digest = random_table_and_digest(n)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1)
    blocks = list(extension._checksum_blocks(DenseRows(table, chunk=chunk)))
    assert max(len(b) for b in blocks) == min(4, chunk, n)
    assert phi_checksum(GroupCocycle2(table=DenseRows(table, chunk))) == digest


def stream_length(table):
    return sum(block.nbytes for block in extension._checksum_blocks(table))


@pytest.mark.parametrize("n", sorted({999, 1000, *DIGIT_BOUNDARY_SIZES}))
def test_checksum_bytes_is_the_stream_length(n):
    # phi_checksum picks its sha256 by this count, before the first row
    table = np.zeros((n, n), dtype=np.uint8)
    assert extension.checksum_bytes(n) == stream_length(DenseRows(table))


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_checksum_bytes_of_each_preset(setups, name):
    g, ext, rho = setups(name)
    assert extension.checksum_bytes(g.order) == stream_length(
        phi_rho(g, ext, rho).table)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("name", BATTERY)
def test_phi_rows_match_dense_oracle(setups, name, chunk):
    # the rows phi_checksum reads, chunk by chunk, and rows at any xs,
    # as certify_twist reads them at T
    g, ext, rho = setups(name)
    n = g.order
    want = dense_table(dense_phi_rho(g, ext, rho))
    rows = phi_rho(g, ext, rho).table
    rows.chunk = chunk or n
    got = np.concatenate([rows.rows(np.arange(c, min(n, c + rows.chunk)))
                          for c in range(0, n, rows.chunk)])
    assert np.array_equal(got, want)
    xs = np.random.default_rng(n).permutation(n)[:min(n, 13)]
    assert np.array_equal(rows.rows(xs), want[xs])
    assert phi_checksum(GroupCocycle2(table=rows)) == line_checksum(want)


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


def checksum_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("phi_checksum-")]


def test_phi_checksum_error_mid_stream_leaves_no_thread(monkeypatch):
    table = np.random.default_rng(3).integers(0, 2, (300, 300),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1000)
    real = extension._checksum_blocks

    def three_then_fail(table):
        blocks = real(table)
        try:
            for k, block in enumerate(blocks):
                if k == 3:
                    raise RuntimeError("stream broke")
                yield block
        finally:
            blocks.close()

    monkeypatch.setattr(extension, "_checksum_blocks", three_then_fail)
    phi = GroupCocycle2(table=DenseRows(table, chunk=10))
    exc = raised_within(30, phi_checksum, phi)
    assert isinstance(exc, RuntimeError) and str(exc) == "stream broke"
    assert not checksum_threads()


def test_phi_checksum_raises_a_hashing_error_after_the_stream(monkeypatch):
    # sha256 refuses a str: the error reaches the caller, and the threads
    # that build the stream are stopped and joined
    table = np.random.default_rng(4).integers(0, 2, (300, 300),
                                              dtype=np.uint8)
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1000)
    real = extension._checksum_blocks

    def one_str(table):
        blocks = real(table)
        try:
            for k, block in enumerate(blocks):
                yield "not bytes" if k == 2 else block
        finally:
            blocks.close()

    monkeypatch.setattr(extension, "_checksum_blocks", one_str)
    phi = GroupCocycle2(table=DenseRows(table, chunk=10))
    exc = raised_within(30, phi_checksum, phi)
    assert isinstance(exc, TypeError)
    assert not checksum_threads()


def test_phi_rows_error_reaches_the_caller(monkeypatch):
    # an error computing a chunk, on its own thread, is raised by
    # phi_checksum, and no thread is left
    table = np.random.default_rng(5).integers(0, 2, (300, 300),
                                              dtype=np.uint8)

    class Failing(DenseRows):
        def rows(self, xs):
            if xs[0] >= 100:
                raise RuntimeError("rows broke")
            return super().rows(xs)

    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 1000)
    exc = raised_within(30, phi_checksum,
                        GroupCocycle2(table=Failing(table, chunk=25)))
    assert isinstance(exc, RuntimeError) and str(exc) == "rows broke"
    assert not checksum_threads()


def test_phi_checksum_threads_under_fast_switching(monkeypatch):
    # six checksums at once, each with its own threads, with the thread
    # switch interval cut to 10 us: a block hashed twice, lost or out of
    # order, or a buffer refilled before it is hashed, changes the digest
    tables = [np.random.default_rng(k).integers(0, 2, (40 + k, 40 + k),
                                                dtype=np.uint8)
              for k in range(6)]
    want = [line_checksum(t) for t in tables]
    monkeypatch.setattr(extension, "CHECKSUM_BLOCK_BYTES", 64)
    got = [None] * len(tables)

    def digest(k):
        phi = GroupCocycle2(table=DenseRows(tables[k], chunk=5 + k))
        got[k] = phi_checksum(phi)

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
    assert not checksum_threads()


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
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256["F4"]


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
    "F4": "2f67bec673a9205e2bee27e71f0dc7a5d4de501c6e548360454c7fb9eaa3f55d",
}


@pytest.mark.parametrize("name", BATTERY)
def test_battery_certificate_pinned(name, no_dense_tables):
    g = build_group(preset_matrix(name))
    text = certificate_json(twist_certificate(g))
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[name]


@pytest.mark.parametrize("backend", ["built-in", "openssl", "fallback"])
@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_both_sha256_back_ends_give_the_pinned_certificates(
        monkeypatch, group_cache, name, backend):
    # the stream's length picks the back-end; forced either way, or with
    # the built-in modules failing to import, so that hashlib's is used,
    # every certificate is the pinned one
    cutoff = 0 if backend == "openssl" else 1 << 62
    monkeypatch.setattr(extension, "OPENSSL_CHECKSUM_BYTES", cutoff)
    if backend == "fallback":
        for module in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, module, None)
    g = group_cache(name)
    used = type(extension._sha256_for(extension.checksum_bytes(g.order)))
    if backend == "built-in":
        assert used.__module__ in ("_sha2", "_sha256")
    else:
        assert used is type(hashlib.sha256())
    text = certificate_json(twist_certificate(g))
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[name]


# -- the walked checks against the dense-table oracles -------------------------


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_walked_checks_agree_with_dense_oracles(setups, name):
    g, ext, rho = setups(name)
    assert check_vendramin(g, ext, rho) is None
    assert dense_check_vendramin(g, ext, rho) is None
    assert check_global(g, ext, rho) is None
    assert dense_check_global(g, ext, rho) is None
    assert np.array_equal(dense_table(phi_rho(g, ext, rho)),
                          dense_table(dense_phi_rho(g, ext, rho)))


@pytest.mark.parametrize("name", BATTERY + ["F4"])
def test_section_agrees_along_every_path(setups, name):
    g, ext, rho = setups(name)
    assert path_section_witness(g, ext, rho) is None


def test_section_refuses_a_reflection_with_no_edge_down():
    g = build_group(preset_matrix("A2"))
    ext = build_wtilde(g)
    # conjugation read as the identity: no edge leaves s_1 s_2 s_1
    g._conj_refl = np.tile(np.arange(g.nroots, dtype=np.uint8),
                           (g.order, 1))
    with pytest.raises(AssertionError, match="no length-decreasing edge"):
        build_section(g, ext)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4"])
def test_path_mismatch_fails_vendramin(setups, monkeypatch, name):
    # a z flipped on a reflection of length >= 3 disagrees with the path
    # through its first graph edge; check_vendramin is what refuses it
    g, ext, _ = setups(name)
    x = next(x for x in g.refl_elems if g.length_arr[x] >= 3)
    real = extension.build_section

    def flipped(g, ext):
        rho = real(g, ext).copy()
        rho[x] = ext.gen_perms[ext.nt, rho[x]]
        return rho

    assert path_section_witness(g, ext, flipped(g, ext))[0] == x
    monkeypatch.setattr(extension, "build_section", flipped)
    with pytest.raises(CertificationError) as exc:
        twist_certificate(g)
    assert exc.value.details["stage"] == "vendramin"


def test_dense_phi_identities_reject_broken_tables(setups):
    g, ext, rho = setups("B3")
    table = dense_table(phi_rho(g, ext, rho))
    dense_phi_identities(g, ext, rho, table)
    # one flipped cell breaks the 2-cocycle identity
    bad = table.copy()
    bad[5, 7] ^= 1
    with pytest.raises(CertificationError, match="phi-cocycle-identity"):
        dense_phi_identities(g, ext, rho, bad)
    # a coboundary keeps it, but one that is not constant on a conjugacy
    # class breaks the conjugation identity
    f = np.zeros(g.order, dtype=np.uint8)
    f[1] = 1                        # at s_0
    bad = table ^ f[:, None] ^ f[None, :] ^ f[g.mult_table()]
    assert dense_cocycle_identity_witness(g.mult_table(), bad,
                                          simples(g)) is None
    with pytest.raises(CertificationError, match="phi-conjugation-identity"):
        dense_phi_identities(g, ext, rho, bad)


def test_check_global_reports_first_witness_across_levels(setups,
                                                          monkeypatch):
    # The walk visits each length level in the order of the inverses, so
    # inside a level a larger w can come first; the witness is still the
    # first (w, y) in row-major order, as in the dense oracle.
    g, ext, rho = setups("B3")
    bounds = np.searchsorted(g.length_arr, np.arange(g.length_arr[-1] + 2))
    lo, hi = next((lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
                  if not (np.diff(g.inv_arr[lo:hi]) > 0).all())
    xs = g.inv_arr[lo:hi].tolist()
    k = next(k for k in range(len(xs) - 1) if xs[k] > xs[k + 1])
    late, early = xs[k], xs[k + 1]         # the walk meets late first
    nt = g.nroots
    qp = q_plus_table(g).copy()
    for w, t in ((late, 0), (early, nt - 1), (g.order - 1, 0)):
        qp[w, t] ^= 1
    monkeypatch.setattr(extension, "q_plus_table", lambda g: qp)
    monkeypatch.setattr(oracles, "q_plus_table", lambda g: qp)
    want = (early, g.refl_elems[nt - 1])
    assert check_global(g, ext, rho) == want
    assert dense_check_global(g, ext, rho) == want


def hlt_perms(g):
    """The extension's generator permutations by Todd-Coxeter."""
    return hlt_coset_enumeration(Presentation.wtilde(g.matrix),
                                 live_cap=4 * g.order + 16)


@pytest.mark.parametrize("name", BATTERY + ["I2(4)"])
def test_cayley_table_matches_todd_coxeter(setups, name):
    # Todd-Coxeter's table renumbered (w, eps) -> the lift of w's ShortLex
    # word times z^eps is the table read off the Cayley graph, and it
    # keeps the group laws build_wtilde proves
    g, ext, _ = setups(name)
    check_extension_laws(g, ext)
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


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_twist_certificate_peak_within_its_refusal(name):
    # what certifying allocates once W is built, traced across its
    # threads, is at most what require_certify_memory counts
    g = build_group(preset_matrix(name))
    need = require_certify_memory(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        twist_certificate(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= need


@pytest.mark.parametrize("name", BATTERY)
def test_tconj_is_dense_conjugation(setups, name):
    g, ext, _ = setups(name)
    M = ext_mult_table(ext)
    for i, t in enumerate(ext.gen_perms[:ext.nt, 0]):
        assert np.array_equal(ext.tconj[i], M[M[t], t])


# sha256 of the dtype, shape and bytes of gen_perms, tconj, pi and rho,
# recorded before the extension was numbered (w, eps) by contract; pi is
# the number mod |W|
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
    g, ext, rho = setups(name)
    pi = np.arange(ext.order, dtype=np.int32) % g.order
    h = hashlib.sha256()
    for a in (ext.gen_perms, ext.tconj, pi, rho):
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == EXT_SHA256[name]


@pytest.mark.parametrize("name", BATTERY + ["F4", "I2(4)"])
def test_edge_bits_decide_the_split_witness(setups, name):
    # twist_certificate's one comparison, no t_i takes a (w, 0) to a
    # (w', 1), against the BFS over the extension; both hold exactly on
    # the all-odd presets
    g, ext, _ = setups(name)
    no_bit = bool((ext.gen_perms[:g.rank, :g.order] < g.order).all())
    try:
        verify_split_witness(g, ext, (0,) * g.rank)
        bfs = True
    except CertificationError:
        bfs = False
    assert no_bit == bfs == g.matrix.all_odd()


@pytest.mark.parametrize("name, bits", [("A2", (0, 1)), ("I2(6)", (0, 0))])
def test_split_witness_rejects_lifts_that_meet_z(setups, name, bits):
    # (t_0 t_1 z)^3 = z on A2, and (t_0 t_1)^6 = z on I2(6)
    g, ext, _ = setups(name)
    with pytest.raises(CertificationError) as err:
        verify_split_witness(g, ext, bits)
    assert err.value.details == {"stage": "split-witness",
                                 "witness": list(bits)}


def first_failure(g, ext, rho, vendramin, global_, phi):
    """(stage, witness, phi table) of the first check that rejects rho."""
    witness = vendramin(g, ext, rho)
    if witness is not None:
        return "vendramin", witness, None
    witness = global_(g, ext, rho)
    if witness is not None:
        return "global", witness, None
    try:
        table = dense_table(phi(g, ext, rho))
    except CertificationError as exc:
        return exc.details["stage"], exc.details["witness"], None
    witness = certify_twist(g, GroupCocycle2(table=DenseRows(table)),
                            q_plus(g), q_minus(g))
    return ("twist" if witness else None), witness, table


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4"])
def test_corrupted_section_rejected_at_same_stage(setups, name):
    # A z flipped on a reflection breaks the section's conjugation rule.
    # Off the reflections the section is free: the flip changes phi by a
    # coboundary, and every check holds in both versions.
    g, ext, rho = setups(name)
    zp = ext.gen_perms[ext.nt]
    rng = np.random.default_rng(20240712)
    refl = g.refl_elems.tolist()
    other = sorted(set(range(g.order)) - set(refl))
    for w, rejected in ((rng.choice(refl), True), (rng.choice(other), False)):
        bad = rho.copy()
        bad[w] = zp[bad[w]]
        new = first_failure(g, ext, bad, check_vendramin, check_global,
                            phi_rho)
        old = first_failure(g, ext, bad, dense_check_vendramin,
                            dense_check_global, dense_phi_rho)
        assert new[:2] == old[:2], (name, w)
        assert (new[0] is not None) == rejected, (name, w, new)
        if not rejected:
            assert np.array_equal(new[2], old[2])
            assert not np.array_equal(new[2],
                                      dense_table(phi_rho(g, ext, rho)))


def test_certify_refuses_before_enumeration_when_phi_does_not_fit(
        monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("W was built before the memory check")

    monkeypatch.setattr(cli, "build_group", no_work)
    monkeypatch.setattr(extension, "memory_limit_bytes", lambda: 90_000)
    # 16 * 120 * 11 for the rows per length up to l(w0) = R = 10; two
    # chunks of phi rows, 2 * (120 + 2^18 * 11 / 4); two level blocks,
    # 2 * (4 * 120 + 2^18); four text buffers of 2^17 bytes
    message = ("certifying |W| = 120 needs about 2512688 bytes, memory "
               "limit 90000")
    with pytest.raises(MemoryError, match=re.escape(message)):
        require_certify_memory(RootSystem(preset_matrix("A4")))
    assert cli.main(["certify", "A4"]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
