"""Self-test of the benchmark on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

Checks that
  * every kind of pinned check passes with its true reference and counts
    a failure with a deliberately wrong one;
  * a trace target that no longer exists stops the run with an error
    naming it, instead of silently dropping a layer;
  * traced and untraced runs of an op print byte-identical output;
  * the per-op guard turns a timeout and an allocation over the memory
    ceiling into failed ops.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

import run as bench
from workloads import CERT_SHA256, Op, cli

# (op with its true reference, the same op with a wrong reference)
CASES = [
    (Op("certify A2", cli("certify", "A2"), "certify",
        {"sha256": CERT_SHA256["A2"], "split": True}),
     {"sha256": CERT_SHA256["A1"], "split": True}),
    (Op("certify A2 split", cli("certify", "A2"), "certify",
        {"sha256": CERT_SHA256["A2"], "split": True}),
     {"sha256": CERT_SHA256["A2"], "split": False}),
    (Op("hilbert A2", cli("hilbert", "A2", "--dmax", "3", "--json"),
        "hilbert", {"ranks": [1, 3, 4, 3]}),
     {"ranks": [1, 3, 4, 2]}),
    (Op("hilbert A2 exact",
        cli("hilbert", "A2", "--mode", "exact", "--dmax", "3", "--json"),
        "hilbert", {"ranks": [1, 3, 4, 3]}),
     {"ranks": [1, 3, 3, 3]}),
    (Op("i26 ladder", {"kind": "api", "job": "i26_ladder", "args": {"dmax": 3}},
        "i26", {"ranks": [1, 5, 14, 31]}),
     {"ranks": [1, 5, 14, 30]}),
    (Op("dihedral 5", cli("dihedral", "5", "--summands", "5,1;5,3",
                          "--check", "--json"),
        "dihedral", {"total": 16, "ranks": [1, 4, 6, 4, 1, 0]}),
     {"total": 32, "ranks": [1, 4, 6, 4, 1, 0]}),
    (Op("info A2", cli("info", "A2", "--json"), "info",
        {"order": 6, "reflections": 3}),
     {"order": 6, "reflections": 4}),
]


class SelfTest:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.problems.append(what)

    def pinned_checks(self):
        for good, wrong_ref in CASES:
            run = bench.Run([], seed=0, seconds=0)
            plain = run.one(good, trace=False)
            self.expect(plain.failure is None,
                        f"{good.name}: true reference passes "
                        f"({plain.failure or 'no failure'})")
            run.one(replace(good, ref=wrong_ref), trace=False)
            self.expect(run.attempted == 2 and len(run.failures) == 1,
                        f"{good.name}: wrong reference counts as a failure "
                        f"({run.failures[-1] if run.failures else 'none'})")
            if good.check in ("certify", "hilbert") and plain.failure is None:
                spanned = run.one(good, trace=True)
                self.expect(spanned.out == plain.out and spanned.spans,
                            f"{good.name}: traced output is byte-identical "
                            f"({len(spanned.spans)} spans)")

    def missing_target(self):
        copy = bench.OUT_DIR / "selftest_src"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bench.ROOT / "src" / "coxrack", copy / "coxrack",
                        ignore=shutil.ignore_patterns("__pycache__"))
        ext = copy / "coxrack" / "extension.py"
        ext.write_text(ext.read_text().replace("def phi_rho(",
                                               "def phi_rho_renamed("))
        op = CASES[0][0]
        try:
            bench.spawn(op, trace=True, timeout=60, src=copy)
        except bench.FatalError as exc:
            self.expect("coxrack.extension.phi_rho" in str(exc),
                        f"missing trace target stops the run: {exc}")
        else:
            self.expect(False, "missing trace target stops the run")
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    def guard(self):
        slow = Op("certify F4", cli("certify", "F4"), "certify",
                  {"sha256": CERT_SHA256["F4"], "split": False})
        res = bench.spawn(slow, trace=False, timeout=0.5)
        self.expect(res.failure is not None and "timed out" in res.failure,
                    f"wall-time limit fails the op ({res.failure})")
        # 4 GiB in one array is over the 3 GiB address-space ceiling
        big = Op("alloc", {"kind": "api", "job": "allocate",
                           "args": {"nbytes": 4 * 1024 ** 3}}, "none", {})
        res = bench.spawn(big, trace=False, timeout=60)
        self.expect(res.failure is not None and "MemoryError" in res.failure,
                    f"memory ceiling fails the op ({res.failure})")


def main() -> int:
    if not bench.CLI_SOURCE.is_file():
        print(f"error: {bench.CLI_SOURCE} is missing", file=sys.stderr)
        return 2
    test = SelfTest()
    test.pinned_checks()
    test.missing_target()
    test.guard()
    print(f"{len(test.problems)} problem(s)")
    return 1 if test.problems else 0


if __name__ == "__main__":
    sys.exit(main())
