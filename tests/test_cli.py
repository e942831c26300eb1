"""Command-line interface: outputs and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxrack import cli, extension, nichols
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


def test_hilbert_pads_the_shorter_table(capsys, monkeypatch):
    # a q- table that ends early reads rank 0 past its end, not fewer rows
    calls = []

    def short_minus(V, dmax, mode):
        calls.append(V)
        reports = nichols.hilbert_coeffs(V, dmax, mode)
        return reports[:3] if len(calls) == 2 else reports

    monkeypatch.setattr(cli, "hilbert_coeffs", short_minus)
    code, out, _ = run(capsys, "hilbert", "A2", "--dmax", "5", "--json")
    rows = json.loads(out)["rows"]
    assert code == 2
    assert [r["rank_plus"] for r in rows] == [1, 3, 4, 3, 1, 0]
    assert [r["rank_minus"] for r in rows] == [1, 3, 4, 0, 0, 0]
    assert [r["equal"] for r in rows] == [True] * 3 + [False] * 2 + [True]


@pytest.mark.parametrize("argv, sha256", [
    (("hilbert", "A3", "--dmax", "5", "--json"),
     "13126228ec581eb1fd5fa3d7be92922227dc8188911beb039e1d7bbb27ecacf8"),
    (("hilbert", "B2", "--mode", "exact", "--dmax", "4", "--json"),
     "a35e37cf33121b01607d8c86d6a68b309177d65e442a3dedbe3fa200d116266c"),
])
def test_hilbert_output_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_hilbert_subrack(capsys):
    code, out, _ = run(capsys, "hilbert", "B3", "--subrack", "T2",
                       "--dmax", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert [r["rank_minus"] for r in data["rows"]] == [1, 3, 3, 1, 0]
    assert data["total_plus"] == data["total_minus"] == 8


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
    def assemble(self, *args):
        raise MemoryError("Unable to allocate 5.37 GiB for an array with "
                          "shape (27000, 36, 750) and data type int64")

    monkeypatch.setattr(nichols._SpanLadder, "_assemble", assemble)
    code, out, err = run(capsys, "hilbert", "A2", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate 5.37 GiB")
    assert err.count("\n") == 1


def test_memory_limit_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 1_900)
    code, out, err = run(capsys, "hilbert", "A3", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err == ("error: degree 3 needs 1920 bytes for two copies of "
                   "its largest candidate block, 10 columns of 12 rows, "
                   "memory limit 1900\n")


def test_memo_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(nichols, "_memory_limit_bytes", lambda: 150_000)
    code, out, err = run(capsys, "hilbert", "A3", "--dmax", "4")
    assert code == 1
    assert out == ""
    assert err == ("error: degree 3 memo batch of 210 words needs about "
                   "151200 bytes on top of the 960 bytes memoized, memory "
                   "limit 150000\n")


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


def test_certify_f4_does_not_import_mpmath():
    # a fresh process: the cosine enclosures decide every root sign
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, sys\n"
            "from coxrack.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['certify', 'F4'])\n"
            "print(rc, 'mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "0 False\n", proc.stderr


def test_runs_do_not_import_numpy_ma():
    # a fresh process: numpy's bare np.unique imports numpy.ma, and the
    # ladder and the split witness deduplicate by sorting instead
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import contextlib, io, sys\n"
            "from coxrack.cli import main\n"
            "rcs = []\n"
            "for argv in (['hilbert', 'A3', '--dmax', '5'], ['certify', 'A2'],\n"
            "             ['dihedral', '5', '--summands', '5,1;5,3',\n"
            "              '--check']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rcs.append(main(argv))\n"
            "print(rcs, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "[0, 0, 0] False\n", proc.stderr


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
    code, out, err = run(capsys, "dihedral", "5", "--summands", "5,1",
                         "--v0", "-2", "--json")
    assert code == 1
    assert out == ""
    assert err == "error: v0 copies must be at least 0, got -2\n"


def test_certify_memory_refusal_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(extension, "_memory_limit_bytes", lambda: 2_000)
    code, out, err = run(capsys, "certify", "A3")
    assert code == 1
    assert out == ""
    # 24^2 bytes for phi, 32 * 24 * 6 for the walks over its widest level
    assert err == ("error: out of memory: certifying |W| = 24 needs about "
                   "5184 bytes, 576 of them for phi, memory limit 2000\n")
