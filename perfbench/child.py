"""Run one benchmark op in this (fresh) process and report it as JSON.

    python3 perfbench/child.py '<spec json>'

The spec names the source tree, the address-space ceiling, the op id,
whether to trace, and the op itself: a `coxrack` CLI argv
(`{"kind": "cli", "argv": [...]}`), an API job defined in JOBS
(`{"kind": "api", "job": name, "args": {...}}`) or nothing beyond the
import (`{"kind": "import"}`).  The op's own stdout is captured and
returned inside the single JSON record this process writes to stdout.
The exit code is the op's.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time


def i26_ladder(dmax: int) -> int:
    """Ranks of U(j) + V(3,1) over I2(6) through dmax, for j = 0 and 1."""
    from coxrack import coxeter, dihedral, nichols
    g = coxeter.build_group(coxeter.preset_matrix("I2(6)"))
    out = {}
    for j in (0, 1):
        V = dihedral.braided_from_graded(
            dihedral.direct_sum(dihedral.u_module(g, j), dihedral.v31_module(g)))
        reports = nichols.hilbert_coeffs(V, dmax)
        out[f"j{j}"] = {"ranks": [r.rank for r in reports],
                        "agreed": all(r.agreed for r in reports)}
    print(json.dumps(out, sort_keys=True))
    return 0


def allocate(nbytes: int) -> int:
    """Reserve nbytes without touching them: probes the memory ceiling."""
    sys.modules["numpy"].empty(nbytes, dtype="uint8")
    return 0


JOBS = {"i26_ladder": i26_ladder, "allocate": allocate}


def run_op(op: dict) -> int:
    if op["kind"] == "cli":
        return sys.modules["coxrack.cli"].main(op["argv"])
    if op["kind"] == "api":
        return JOBS[op["job"]](**op["args"])
    if op["kind"] == "import":
        return 0
    raise ValueError(f"unknown op kind {op['kind']!r}")


def main(argv) -> int:
    spec = json.loads(argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (spec["mem_bytes"], spec["mem_bytes"]))
    sys.path.insert(0, spec["src"])
    importlib.import_module("coxrack.cli")  # set-up ends once the CLI is loaded
    record = {"import_done": time.monotonic(),
              "numpy": sys.modules["numpy"].__version__,
              "python": sys.version.split()[0], "error": None, "fatal": None}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, TraceTargetMissing
        try:
            tracer = Tracer.install(spec["op_id"])
        except TraceTargetMissing as exc:
            record["fatal"] = str(exc)
            print(f"error: {exc}", file=sys.stderr)
            sys.stdout.write(json.dumps(record))
            return 3
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = run_op(spec["op"])
    except Exception as exc:  # an op that raises is a failed op, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
        rc = 1
    record["rc"] = rc
    record["out"] = buf.getvalue()
    record["spans"] = tracer.spans if tracer is not None else []
    sys.stdout.write(json.dumps(record))
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
