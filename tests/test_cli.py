"""Command-line interface: outputs and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxrack import cli, extension, nichols
from coxrack.coxeter import RootSystem, build_group, preset_matrix
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
def test_hilbert_table_schema(capsys):
    schema = json.loads((SCHEMA_DIR / "hilbert_table.v1.json").read_text())
    for argv in (("A2", "--dmax", "5"), ("B2", "--mode", "exact", "--dmax", "4"),
                 ("B3", "--subrack", "T2", "--dmax", "4")):
        code, out, _ = run(capsys, "hilbert", *argv, "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


@pytest.mark.skipif(not HAS_JSONSCHEMA, reason="jsonschema not installed")
def test_group_info_schema(capsys):
    schema = json.loads((SCHEMA_DIR / "group_info.v1.json").read_text())
    for name in ("A2", "B3", "I2(4)", "H4", "E6", "E7", "E8"):
        code, out, _ = run(capsys, "info", name, "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


@pytest.mark.skipif(not HAS_JSONSCHEMA, reason="jsonschema not installed")
def test_dihedral_report_schema(capsys):
    # the three shapes: pairs only, a built sum, and a checked sum; the
    # last sum is incompatible, so its diagram has edges
    schema = json.loads((SCHEMA_DIR / "dihedral_report.v1.json").read_text())
    for argv in (("5",), ("5", "--summands", "5,1;5,3", "--check"),
                 ("5", "--v0", "2", "--check"),
                 ("15", "--summands", "5,3;3,5")):
        code, out, _ = run(capsys, "dihedral", *argv, "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)
    assert json.loads(out)["dynkin"]["edges"]


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


@pytest.mark.parametrize("argv, message", [
    (("E6", "--dmax", "-1"), "dmax must be at least 0, got -1"),
    (("B3", "--subrack", "T3"),
     "subrack 'T3' out of range; group has 2 classes"),
    (("E6", "--subrack", "T2"),
     "subrack 'T2' out of range; group has 1 classes"),
    (("A3", "--subrack", "T0"), "bad subrack name 'T0'"),
])
def test_hilbert_refuses_bad_arguments_before_building_w(capsys, monkeypatch,
                                                         argv, message):
    def no_work(*args):
        raise AssertionError("W was built before the arguments were checked")

    monkeypatch.setattr(cli, "build_group", no_work)
    assert run(capsys, "hilbert", *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["A1", "A3", "B2", "B3", "I2(4)", "I2(6)",
                                  "H3", "D4", "F4"])
def test_odd_components_count_the_reflection_classes(name):
    # hilbert refuses --subrack by the odd graph's components, before W
    # is built; --subrack T<k> then reads the group's k-th class, the one
    # holding the simple reflections of the k-th component
    matrix = preset_matrix(name)
    g = build_group(matrix)
    simples = [[i for i in range(g.rank) if i in c] for c in g.classes]
    assert simples == matrix.odd_components()


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
        rho = real(g, ext).copy()
        x = next(x for x in g.refl_elems if g.length_arr[x] > 1)
        rho[x] = ext.gen_perms[ext.nt][rho[x]]
        return rho

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
    monkeypatch.setattr(nichols, "memory_limit_bytes", lambda: 13_715)
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


def test_certify_builds_the_root_system_once(capsys, monkeypatch):
    # the memory check and the group share one RootSystem; the parabolic
    # subsystems of the orbit chain are other matrices
    built = []
    real = RootSystem._build_roots

    def counted(self):
        built.append(self.matrix.rows)
        real(self)

    monkeypatch.setattr(RootSystem, "_build_roots", counted)
    code, out, _ = run(capsys, "certify", "A3")
    assert code == 0 and json.loads(out)["order_w"] == 24
    assert built.count(preset_matrix("A3").rows) == 1


def test_certify_memory_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(extension, "memory_limit_bytes", lambda: 2_000)
    code, out, err = run(capsys, "certify", "A3")
    assert code == 1
    assert out == ""
    # 16 * 24 * 7 for the rows per length up to 6; two chunks of phi
    # rows, 2 * (24 + 2^18 * 7 / 4); two level blocks, 2 * (4 * 24 + 2^18);
    # four text buffers of 2^17 bytes
    assert err == ("error: out of memory: certifying |W| = 24 needs about "
                   "1969008 bytes, memory limit 2000\n")


def cli_in_child(*argv, rlimit_as=None, timeout=600, after="", before=""):
    """`coxrack argv...` in a fresh process, optionally under an
    address-space limit in bytes.  `before` and `after`, Python source,
    run in the child before main is called and once it has returned."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import resource, sys\n"
            f"limit = {rlimit_as!r}\n"
            "if limit:\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            f"{before}"
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
    ("certify", "D4"),
    ("certify", "F4"),
]
# certificates whose checksum text reaches 1 MiB, hashed by OpenSSL: F4's
# is 13.4 MB; D4's, the battery's longest, is 326 400 bytes
OPENSSL_HASHED = {("certify", "F4")}


@pytest.mark.parametrize("argv", FOOTPRINT_RUNS, ids=" ".join)
def test_fresh_process_footprint(argv):
    # only a certificate of at least 1 MiB of checksum text loads OpenSSL
    # (_hashlib); main freezes the heap it starts with, so no collection
    # walks it again
    proc = cli_in_child(*argv, timeout=120, after=(
        "import gc, json\n"
        "print(json.dumps([sorted(sys.modules), gc.get_freeze_count()]),\n"
        "      file=sys.stderr)\n"))
    assert proc.returncode == 0, proc.stderr
    modules, frozen = json.loads(proc.stderr.splitlines()[-1])
    assert NEVER_LOADED.isdisjoint(modules), NEVER_LOADED.intersection(modules)
    assert ("_hashlib" in modules) == (argv in OPENSSL_HASHED)
    assert frozen > 0


# the child's own peak RSS in KiB, last on stderr: ru_maxrss would also
# count the peak of the process that spawned it, as exec keeps that
# high-water mark, and a session running the slow tests passes 128 MB
OWN_PEAK_RSS = ("import re\n"
                "status = open('/proc/self/status').read()\n"
                "print(re.search(r'VmHWM:\\s+(\\d+)', status)[1],\n"
                "      file=sys.stderr)\n")


@pytest.mark.parametrize("name,order,reflections",
                         [("E7", 2903040, 63), ("E8", 696729600, 120)])
def test_info_past_the_cap_under_1_gib(name, order, reflections):
    # enumerating W(E7) up to the element cap peaked at 333 MB; the roots
    # alone stay near the 30 MB the imports take
    proc = cli_in_child("info", name, "--json", rlimit_as=2 ** 30,
                        timeout=120, after=OWN_PEAK_RSS)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["order"], data["reflections"]) == (order, reflections)
    assert data["class_sizes"] == [reflections]
    assert int(proc.stderr) < 100 * 1024


@pytest.mark.parametrize("argv", [("certify", "E7"),
                                  ("hilbert", "E7", "--dmax", "2")],
                         ids=" ".join)
def test_e7_refused_before_enumeration(argv):
    # certify: 16 bytes per element and length, 16 * 2903040 * 64, pass
    # 1 GiB; hilbert: |W| passes the element cap.  Both are known from
    # the roots, before W is built.
    proc = cli_in_child(*argv, rlimit_as=2 ** 30, timeout=120,
                        after=OWN_PEAK_RSS)
    assert proc.returncode == 1
    assert proc.stdout == b""
    err, peak = proc.stderr.decode().splitlines()
    assert err.startswith("error: ") and "2903040" in err
    assert int(peak) < 100 * 1024


@pytest.mark.slow
def test_certify_h4_output_pinned():
    # phi (14400^2 bytes) is streamed, never held whole; holding it put
    # the peak at 242 MB
    proc = cli_in_child("certify", "H4", after=OWN_PEAK_RSS)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "eca329d516b6c715cc21141e38203fb952b690d159ef7bcb6a5a2fadb774f152")
    assert int(proc.stderr) < 64 * 1024


@pytest.mark.slow
def test_certify_e6_under_1_gib():
    # phi is 51840^2 bytes, 2.69 GB, and is streamed a chunk of rows at a
    # time; holding it whole peaked at 2.6 GB
    proc = cli_in_child("certify", "E6", rlimit_as=2 ** 30,
                        after=OWN_PEAK_RSS)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "16024909e7a136f991b6d5aa399a2577d7a3859f65bd2fb5eb40c75fe91efb90")
    assert int(proc.stderr) < 128 * 1024
    cert = json.loads(proc.stdout)
    assert (cert["order_w"], cert["reflections"]) == (51840, 36)
    assert cert["vendramin"] == cert["global"] == cert["twist"] == "pass"
    # E6 has m_ij = 2, so the extension does not split
    assert cert["split"] is False and cert["cohomologous"] is False


def test_perfbench_tracer_covers_certify():
    # perfbench/tracing.py wraps coxrack functions by name and counts
    # phi_checksum's lines as phi.table.size and cohomologous_solve's
    # equations as X.size ** 2: a renamed stage or argument, or a phi or
    # rack without a size, breaks every traced benchmark run
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    proc = cli_in_child("certify", "A3", timeout=120, after=(
        "import json\n"
        "print(json.dumps(tracer.spans), file=sys.stderr)\n"),
        before=(f"sys.path.insert(0, {str(bench)!r})\n"
                "import coxrack.cli\n"
                "from tracing import Tracer\n"
                "tracer = Tracer.install('certify A3')\n"))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "ca22c68d2ba190a7e347ad103cbc4db9013ab7424bf5e37d80bfcc947ffeb5a7")
    spans = json.loads(proc.stderr.splitlines()[-1])
    names = {span["name"] for span in spans}
    assert {"coxeter.build_group", "extension.phi_rho",
            "extension.certify_twist", "extension.phi_checksum",
            "racks.q_plus", "racks.q_minus", "racks.reflection_rack"} <= names
    [checksum] = [span for span in spans
                  if span["name"] == "extension.phi_checksum"]
    assert checksum["lines"] == 24 * 24
    # the tracer counts the solver's equations as X.size ** 2, |T| = 6
    [solve] = [span for span in spans
               if span["name"] == "racks.cohomologous_solve"]
    assert solve["equations"] == 6 ** 2
