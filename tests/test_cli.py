"""Command-line interface: outputs and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxrack import extension, nichols
from coxrack.cli import main

HAS_JSONSCHEMA = True
try:
    import jsonschema
except ImportError:  # pragma: no cover
    HAS_JSONSCHEMA = False

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_table(capsys):
    code, out, _ = run(capsys, "info", "A2")
    assert code == 0
    assert "|W| = 6" in out and "|T| = 3" in out
    assert "classes: 1" in out


def test_info_json_b3(capsys):
    code, out, _ = run(capsys, "info", "B3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 48
    assert sorted(data["class_sizes"]) == [3, 6]
    assert data["odd_components"] == [[0, 1], [2]]


def test_info_i24_classes(capsys):
    code, out, _ = run(capsys, "info", "I2(4)", "--json")
    assert code == 0
    assert json.loads(out)["class_sizes"] == [2, 2]


def test_certify_examples(capsys):
    code, out, _ = run(capsys, "certify", "I2(5)")
    assert code == 0
    cert = json.loads(out)
    assert cert["split"] and cert["cohomologous"] and cert["twist"] == "pass"

    code, out, _ = run(capsys, "certify", "A3")
    assert code == 0
    cert = json.loads(out)
    assert not cert["split"] and not cert["cohomologous"]
    assert cert["twist"] == "pass"

    code, out, _ = run(capsys, "certify", "A1")
    assert code == 0
    cert = json.loads(out)
    assert cert["order_wtilde"] == 4


@pytest.mark.skipif(not HAS_JSONSCHEMA, reason="jsonschema not installed")
def test_certificate_schema(capsys):
    code, out, _ = run(capsys, "certify", "B2")
    schema = json.loads((SCHEMA_DIR / "twist_certificate.v1.json").read_text())
    jsonschema.validate(json.loads(out), schema)


@pytest.mark.skipif(not HAS_JSONSCHEMA, reason="jsonschema not installed")
def test_symmetrizer_report_schema():
    from coxrack.coxeter import build_group, preset_matrix
    from coxrack.nichols import braiding_from_rack, hilbert_coeffs
    from coxrack.racks import q_plus, reflection_rack

    g = build_group(preset_matrix("A2"))
    V = braiding_from_rack(reflection_rack(g), q_plus(g))
    rep = hilbert_coeffs(V, 2)[2]
    schema = json.loads(
        (SCHEMA_DIR / "symmetrizer_report.v1.json").read_text())
    jsonschema.validate(rep.to_dict(), schema)


def test_certificates_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "certify", "B2", "--out", str(out1))[0] == 0
    assert run(capsys, "certify", "B2", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "A2", "--dmax", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total_plus"] == data["total_minus"] == 12
    assert [r["rank_plus"] for r in data["rows"]] == [1, 3, 4, 3, 1, 0]
    assert all(r["equal"] and r["agreed"] for r in data["rows"])


def test_hilbert_stops_where_every_ladder_ends(capsys):
    # A2 vanishes from degree 5 on: no zero rows past it, whatever dmax
    want = run(capsys, "hilbert", "A2", "--dmax", "5", "--json")
    for dmax in ("300", "20000"):
        assert run(capsys, "hilbert", "A2", "--dmax", dmax, "--json") == want
    assert len(json.loads(want[1])["rows"]) == 6


@pytest.mark.parametrize("argv, sha256", [
    (("hilbert", "A3", "--dmax", "5", "--json"),
     "eafa69c1f03196a34b08ad2a4be1e3bf044234ff625873a4a41c6255c21e6ff0"),
    (("hilbert", "B2", "--mode", "exact", "--dmax", "4", "--json"),
     "a6ed6e41f87a2e30259665d02717deba97538473e4ebd1112c32ea6b4205dd22"),
])
def test_hilbert_output_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_hilbert_subrack(capsys):
    for name in ("T2", "t2", "2"):
        code, out, _ = run(capsys, "hilbert", "B3", "--subrack", name,
                           "--dmax", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert [r["rank_minus"] for r in data["rows"]] == [1, 3, 3, 1, 0]
        assert data["total_plus"] == data["total_minus"] == 8


@pytest.mark.parametrize("name", ["TT1", "T 1", "T+1", "t-1", "T0", "0",
                                  "T01", "1.0", "T", "", "T1_0", "T\u0661",
                                  "1T"])
def test_hilbert_subrack_name_is_strict(capsys, name):
    # an optional T or t, then a positive decimal, and nothing else
    code, out, err = run(capsys, "hilbert", "A3", "--subrack", name)
    assert (code, out) == (1, "")
    assert err == f"error: bad subrack name {name!r}\n"


def test_hilbert_exact_mode(capsys):
    code, out, _ = run(capsys, "hilbert", "A2", "--dmax", "3",
                       "--mode", "exact", "--json")
    assert code == 0
    data = json.loads(out)
    assert [r["rank_plus"] for r in data["rows"]] == [1, 3, 4, 3]


def test_hilbert_a3_exact_degree_4(capsys):
    # 12 primes certify it
    code, out, _ = run(capsys, "hilbert", "A3", "--dmax", "4",
                       "--mode", "exact", "--json")
    assert code == 0
    data = json.loads(out)
    assert [r["rank_plus"] for r in data["rows"]] == [1, 6, 19, 42, 71]
    assert [r["rank_minus"] for r in data["rows"]] == [1, 6, 19, 42, 71]
    assert all(r["agreed"] for r in data["rows"])


def test_hilbert_b2_exact_full_series(capsys):
    # 4^8 = 65536 words in degree 8; exact mode runs the ladder under the
    # memory limit, not a cap on d^n
    code, out, _ = run(capsys, "hilbert", "B2", "--mode", "exact",
                       "--dmax", "8", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    want = [1, 4, 8, 12, 14, 12, 8, 4, 1]
    assert [r["rank_plus"] for r in rows] == want
    assert [r["rank_minus"] for r in rows] == want
    assert sum(want) == 64


def test_hilbert_refuses_a_failed_twist(capsys, monkeypatch):
    # q-'s ranks are read off q+'s only through the certified twist: a
    # section off by z at one non-simple reflection stops hilbert first
    real = extension.build_section

    def corrupted(g, ext):
        rho = real(g, ext).rho.copy()
        x = next(t.elem for t in g.reflections if g.length(t.elem) > 1)
        rho[x] = ext.gen_perms[ext.nt][rho[x]]
        return extension.Section(rho=rho)

    monkeypatch.setattr(extension, "build_section", corrupted)
    code, out, err = run(capsys, "hilbert", "A3", "--dmax", "3")
    assert (code, out) == (2, "")
    assert json.loads(err)["falsification"]["stage"] == "vendramin"


def test_hilbert_disagreeing_primes_exit_2(capsys,
                                           undercounting_ladder_iter):
    undercounting_ladder_iter(2)
    code, out, _ = run(capsys, "hilbert", "A2", "--dmax", "3", "--json")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert [r["rank_plus"] for r in rows] == [1, 3, 4, 3]
    assert [r["agreed"] for r in rows] == [True, True, False, True]


def test_dihedral_report(capsys):
    code, out, _ = run(capsys, "dihedral", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["admissible_pairs"] == [[5, 1], [5, 3]]

    code, out, _ = run(capsys, "dihedral", "5", "--summands", "5,1;5,3",
                       "--check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["compatible"] and data["predicted_total"] == 16
    assert data["computed_total"] == 16

    # one-dimensional summands alone
    code, out, _ = run(capsys, "dihedral", "5", "--v0", "2", "--check",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["summands"] == [] and data["v0_copies"] == 2
    assert data["computed_total"] == data["predicted_total"] == 4
    assert data["ranks"] == [1, 2, 1, 0]


def test_hilbert_a3_degree_7(capsys):
    # 6^6 = 46656 words in degree 6; the spanning-column ladder builds at
    # most 6 * 106 columns a degree
    code, out, _ = run(capsys, "hilbert", "A3", "--dmax", "7", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    want = [1, 6, 19, 42, 71, 96, 106, 96]
    assert [r["rank_plus"] for r in rows] == want
    assert [r["rank_minus"] for r in rows] == want
    assert all(r["agreed"] for r in rows)


@pytest.mark.parametrize("dmax", [6, pytest.param(8, marks=pytest.mark.slow)])
def test_hilbert_a4_is_the_fomin_kirillov_algebra(capsys, dmax):
    # A4 with q- is E_5, Hilbert series [4]^4 [5]^2 [6]^4 (Fomin-Kirillov,
    # 1999), [m] = 1 + t + ... + t^(m - 1)
    series = [1]
    for m in (4,) * 4 + (5,) * 2 + (6,) * 4:
        series = [sum(series[max(0, i - m + 1):i + 1])
                  for i in range(len(series) + m - 1)]
    assert (len(series), sum(series)) == (41, 8_294_400)
    assert series[:9] == [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796]
    code, out, _ = run(capsys, "hilbert", "A4", "--dmax", str(dmax), "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["rank_minus"] for r in rows] == series[:dmax + 1]
    assert all(r["agreed"] for r in rows)


def test_dihedral_disagreeing_primes_exit_2(capsys,
                                            undercounting_ladder_iter):
    undercounting_ladder_iter(2)
    code, out, err = run(capsys, "dihedral", "5", "--summands", "5,1;5,3",
                         "--check", "--json")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "disagree" in err and "[2]" in err


def test_dihedral_refuses_small_r(capsys):
    code, _, err = run(capsys, "dihedral", "3")
    assert code == 1
    assert "r > 3 and odd" in err
    code, _, err = run(capsys, "dihedral", "6")
    assert code == 1


def test_matrix_file_input(tmp_path, capsys):
    path = tmp_path / "i25.txt"
    path.write_text("2\n1 5\n5 1\n")
    code, out, _ = run(capsys, "info", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 10


def test_infinite_matrix_file_exits_1_at_once(tmp_path):
    # affine A~2: refused from its form, before any root is enumerated;
    # in a child with a timeout, so that an enumeration toward the cap
    # fails the test instead of stalling the suite
    path = tmp_path / "a2tilde.txt"
    path.write_text("3\n1 3 3\n3 1 3\n3 3 1\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "coxrack.cli", "info", str(path)],
        capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: the Coxeter form is not positive definite "
                           "(pivot 2 is not positive), so the group is "
                           "infinite\n")


def test_usage_errors(capsys):
    assert run(capsys, "info", "Q9")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "info")[0] == 1


def test_hilbert_e6_degree_2(capsys):
    # E6 has |W| = 51840: the hilbert path builds no |W| x |W| table
    code, out, _ = run(capsys, "hilbert", "E6", "--dmax", "2", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["rank_plus"] for r in rows] == [1, 36, 750]
    assert [r["rank_minus"] for r in rows] == [1, 36, 750]
    assert all(r["agreed"] for r in rows)


def test_memory_error_exits_1(capsys, monkeypatch):
    def block(self, *args):
        raise MemoryError("Unable to allocate 5.37 GiB for an array with "
                          "shape (27000, 36, 750) and data type int64")

    monkeypatch.setattr(nichols._SpanLadder, "_block", block)
    code, out, err = run(capsys, "hilbert", "A2", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate 5.37 GiB")
    assert err.count("\n") == 1


def test_memory_limit_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 13_715)
    code, out, err = run(capsys, "hilbert", "A3", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err == ("error: degree 3 needs 13716 bytes: 1052 held by degree "
                   "2, up to 8904 kept, 3200 to build and eliminate its "
                   "largest block, c = 10, and 560 for one product, memory "
                   "limit 13715\n")


def test_negative_dmax_exits_1():
    # in a child with a timeout, so that a ladder which never reaches dmax
    # fails the test instead of stalling the suite
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "coxrack.cli", "hilbert", "A2", "--dmax", "-1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: dmax must be at least 0, got -1\n"


def test_hilbert_e6_degree_2_labels_grades_as_they_occur():
    # the phi_x of E6 generate a group of 51840 elements; the ladder
    # labels only the grades its words reach, so this takes about a second
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "coxrack.cli", "hilbert", "E6", "--dmax", "2",
         "--json"], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert [r["rank_plus"] for r in rows] == [1, 36, 750]
    assert [r["rank_minus"] for r in rows] == [1, 36, 750]


def test_dihedral_negative_v0_exits_1(capsys):
    for summands in (("--summands", "5,1"), ()):
        code, out, err = run(capsys, "dihedral", "5", *summands,
                             "--v0", "-2", "--json")
        assert code == 1
        assert out == ""
        assert err == "error: v0 copies must be at least 0, got -2\n"


def test_dihedral_check_without_a_space_exits_1(capsys):
    for v0 in ((), ("--v0", "0")):
        code, out, err = run(capsys, "dihedral", "5", *v0, "--check")
        assert (code, out) == (1, "")
        assert err == "error: --check needs --summands or a positive --v0\n"


def test_certify_memory_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(extension, "_memory_limit_bytes", lambda: 2_000)
    code, out, err = run(capsys, "certify", "A3")
    assert code == 1
    assert out == ""
    # 24^2 bytes for phi, 16 * 24 * 7 for the rows per length up to 6,
    # 4 * 2^20 for the checksum buffers
    assert err == ("error: out of memory: certifying |W| = 24 needs about "
                   "4197568 bytes, 576 of them for phi, memory limit 2000\n")


def cli_in_child(*argv, rlimit_as=None, timeout=600, after=""):
    """`coxrack argv...` in a fresh process, optionally under an
    address-space limit in bytes.  `after`, Python source, runs in the
    child once main has returned."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import resource, sys\n"
            f"limit = {rlimit_as!r}\n"
            "if limit:\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from coxrack.cli import main\n"
            f"rc = main({list(argv)!r})\n"
            f"{after}"
            "sys.exit(rc)\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=timeout,
                          env={**os.environ, "PYTHONPATH": str(src)})


# Modules no command loads:
#   - mpmath: the package never imports it (signs are refined in integers),
#     and only the tests use it, as an oracle;
#   - numpy.ma: numpy's bare np.unique imports it, and the ladder and the
#     split witness deduplicate by sorting instead;
#   - fractions and decimal: the enclosures are integer numerators;
#   - dataclasses: its classes generate code at import.
NEVER_LOADED = {"mpmath", "numpy.ma", "fractions", "decimal", "dataclasses"}
FOOTPRINT_RUNS = [
    ("info", "H4"),
    ("hilbert", "A3", "--dmax", "5"),
    ("dihedral", "5", "--summands", "5,1;5,3", "--check"),
    ("certify", "A2"),
    ("certify", "F4"),
]


@pytest.mark.parametrize("argv", FOOTPRINT_RUNS, ids=" ".join)
def test_fresh_process_footprint(argv):
    # only certify hashes, so only certify loads OpenSSL (_hashlib); main
    # freezes the heap it starts with, so no collection walks it again
    proc = cli_in_child(*argv, timeout=120, after=(
        "import gc, json\n"
        "print(json.dumps([sorted(sys.modules), gc.get_freeze_count()]),\n"
        "      file=sys.stderr)\n"))
    assert proc.returncode == 0, proc.stderr
    modules, frozen = json.loads(proc.stderr.splitlines()[-1])
    assert NEVER_LOADED.isdisjoint(modules), NEVER_LOADED.intersection(modules)
    assert ("_hashlib" in modules) == (argv[0] == "certify")
    assert frozen > 0


@pytest.mark.slow
def test_certify_h4_output_pinned():
    proc = cli_in_child("certify", "H4")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "eca329d516b6c715cc21141e38203fb952b690d159ef7bcb6a5a2fadb774f152")


@pytest.mark.slow
def test_certify_e6_under_4_gib():
    # phi is 51840^2 bytes, 2.69 GB; the walk that held whole length
    # levels needed about 6 GB more, and the refusal came before any work
    proc = cli_in_child("certify", "E6", rlimit_as=4 * 2 ** 30)
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(proc.stdout)
    assert (cert["order_w"], cert["reflections"]) == (51840, 36)
    assert cert["vendramin"] == cert["global"] == cert["twist"] == "pass"
    # E6 has m_ij = 2, so the extension does not split
    assert cert["split"] is False and cert["cohomologous"] is False


@pytest.mark.slow
def test_info_e7_refused_under_1_gib():
    # |W(E7)| = 2903040 passes the element cap; the int32 tables of all
    # 2R signed roots took 1.34 GB to get there, the uint8 ones 0.33 GB
    proc = cli_in_child("info", "E7", rlimit_as=2 ** 30)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == (
        b"error: element enumeration passed 2000000 elements; the group "
        b"is finite but larger than the cap\n")
