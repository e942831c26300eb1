"""End-to-end and per-layer benchmark of `coxrack`.

    python3 perfbench/run.py --workload certify-f4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Closed loop, one client: ops run one
at a time, each in a fresh child process (perfbench/child.py), so at
most two processes are alive.  A pass runs every op of the workload
once, in an order drawn from --seed; passes repeat until --seconds have
elapsed, and timings are medians over passes (README.md defines each
metric).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced and a traced pass and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The metric names and units
come from BENCHMARK.json.  Every op's output is checked against its
pinned reference (workloads.py); the last stdout line is the result
JSON, and a full record with provenance is appended to
.bench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import TARGETS
from workloads import WORKLOADS, Op, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
CLI_SOURCE = ROOT / "src" / "coxrack" / "cli.py"

OP_TIMEOUT_S = 60.0            # per-op wall-time limit
MEM_CEILING = 3 * 1024 ** 3    # per-op address-space ceiling (bytes)
RUN_DEADLINE_S = 150.0         # no op may run past this point of a run
SETUP_PROBES = 5               # import-only children per run, for setup_s
# Children cache bytecode, as an installed package does, whatever the
# caller's environment says; the warm-up child writes the cache.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}


@dataclass
class OpResult:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    import_s: float | None
    out: str
    spans: list = field(default_factory=list)
    numpy: str | None = None
    failure: str | None = None


class FatalError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# One op in one child process
# ---------------------------------------------------------------------------


def spawn(op: Op, trace: bool, timeout: float, src: Path = ROOT / "src"
          ) -> OpResult:
    """Run op in a fresh child; wall time runs from spawn to exit."""
    OUT_DIR.mkdir(exist_ok=True)
    spec = {"src": str(src), "mem_bytes": MEM_CEILING, "trace": int(trace),
            "op_id": op.name, "op": op.op}
    out_path, err_path = OUT_DIR / "child.out", OUT_DIR / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            t1 = time.monotonic()
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(out_path.read_text())
    except ValueError:            # killed before or while writing its record
        record = None
    result = OpResult(op=op, wall=t1 - t0, cpu=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, import_s=None, out="")
    if record is not None:
        if record.get("fatal"):
            raise FatalError(record["fatal"])
        result.import_s = record["import_done"] - t0
        result.out = record.get("out", "")
        result.spans = record.get("spans", [])
        result.numpy = record.get("numpy")
    if not exited:
        result.failure = f"timed out after {timeout:.1f} s"
    elif record is None or "rc" not in record:
        tail = err_path.read_text(errors="replace")[-300:].strip()
        tail = tail.replace("\n", " | ")
        result.failure = (f"exit code {proc.returncode} without a result "
                          f"record: {tail}")
    elif record["error"]:
        result.failure = f"raised {record['error']}"
    else:
        result.failure = verdict(op, record["rc"], result.out)
    return result


# ---------------------------------------------------------------------------
# Passes and runs
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run: passes over a workload until time is up."""

    def __init__(self, ops: list[Op], seed: int, seconds: float):
        self.ops = ops
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.import_samples: list[float] = []
        self.orders: list[list[str]] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def one(self, op: Op, trace: bool) -> OpResult | None:
        timeout = min(OP_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed())
        if timeout <= 0:
            return None
        res = spawn(op, trace, timeout)
        if op.op["kind"] == "import":
            if res.failure:
                raise FatalError(f"import-only child failed: {res.failure}")
        else:
            self.attempted += 1
            if res.failure:
                self.failures.append(f"{op.name}: {res.failure}")
        if res.import_s is not None:
            self.import_samples.append(res.import_s)
        return res

    def probe_setup(self):
        """A warm-up child, then SETUP_PROBES timed import-only children."""
        probe = Op("import", {"kind": "import"}, "none", {})
        first = self.one(probe, False)
        self.import_samples.clear()   # the warm-up may compile bytecode
        for _ in range(SETUP_PROBES):
            self.one(probe, False)
        return first

    def next_order(self) -> list[Op] | None:
        if self.elapsed() >= self.seconds and self.orders:
            return None
        order = self.rng.sample(self.ops, len(self.ops))
        self.orders.append([op.name for op in order])
        return order

    def run_pass(self, order: list[Op], trace: bool) -> list[OpResult] | None:
        results = []
        for op in order:
            res = self.one(op, trace)
            if res is None:
                return None       # out of time: the pass is incomplete
            results.append(res)
        return results


def end_to_end(run: Run) -> tuple[dict, dict]:
    passes = []
    while (order := run.next_order()) is not None:
        results = run.run_pass(order, trace=False)
        if results is None:
            break
        passes.append(results)
    if not passes:
        raise FatalError("no complete pass within the run deadline")
    by_op: dict[str, list[OpResult]] = {}
    for p in passes:
        for r in p:
            by_op.setdefault(r.op.name, []).append(r)
    values = {
        "wall_s": sum(statistics.median(r.wall for r in rs)
                      for rs in by_op.values()),
        "cpu_s": sum(statistics.median(r.cpu for r in rs)
                     for rs in by_op.values()),
        "setup_s": len(run.ops) * statistics.median(run.import_samples),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }
    detail = {"passes": len(passes),
              "pass_wall_s": [sum(r.wall for r in p) for p in passes],
              "import_samples_s": run.import_samples}
    return values, detail


def traced(run: Run) -> tuple[dict, dict]:
    """Pairs of (untraced, traced) passes in the same op order."""
    layer_passes, overheads = [], []
    while (order := run.next_order()) is not None:
        plain = run.run_pass(order, trace=False)
        spans = run.run_pass(order, trace=True) if plain else None
        if spans is None:
            break
        for a, b in zip(plain, spans):
            if not a.failure and not b.failure and a.out != b.out:
                run.failures.append(f"{a.op.name}: traced output differs "
                                    f"from untraced output")
        layer_passes.append(layer_metrics(spans))
        overheads.append(sum(r.wall for r in spans) - sum(r.wall for r in plain))
    if not layer_passes:
        raise FatalError("no complete traced pair within the run deadline")
    names = set().union(*layer_passes)
    values = {name: statistics.median(p.get(name, 0.0) for p in layer_passes)
              for name in names}
    values.update({alias: values.get(name, 0.0)
                   for alias, name in ALIASES.items()})
    values["trace.overhead_s"] = statistics.median(overheads)
    return values, {"pairs": len(layer_passes), "overhead_s": overheads}


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

COUNTERS = ("order", "cosets", "lines", "equations", "cells", "columns", "rank")
SPECIAL = ("nichols.ladder.assembly_s", "nichols.ladder.rss_mb", "cli.import_s",
           "cli.uncovered_s", "trace.coverage", "trace.overhead_s")
ALIASES = {"coxeter.order": "coxeter.build_group.order"}


def layer_metrics(results: list[OpResult]) -> dict:
    """Per-layer values of one traced pass.

    <span>.s sums durations, .self_s durations minus direct children,
    .calls counts spans, .rss_mb is the largest peak-RSS growth of one
    span, .bytes sums distinct returned tables per op, and the counters
    sum over spans.
    """
    m: dict[str, float] = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    wall = covered = imports = assembly = ladder_rss = 0.0
    for res in results:
        spans = res.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
        wall += res.wall
        imports += res.import_s or 0.0
        covered += (res.import_s or 0.0) + top
        seen, ladders = set(), {}
        for s, below in zip(spans, child_time):
            name, dur = s["name"], s["end"] - s["start"]
            growth = s["rss1"] - s["rss0"]
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - below)
            add(f"{name}.calls", 1)
            m[f"{name}.rss_mb"] = max(m.get(f"{name}.rss_mb", 0.0), growth)
            for c in COUNTERS:
                if c in s:
                    add(f"{name}.{c}", s[c])
            if "bytes" in s and s["obj"] not in seen:
                seen.add(s["obj"])
                add(f"{name}.bytes", s["bytes"])
            if "ladder" in s:
                assembly += dur - below
                ladders[s["ladder"]] = ladders.get(s["ladder"], 0.0) + growth
        ladder_rss = max([ladder_rss, *ladders.values()])
    m["nichols.ladder.assembly_s"] = assembly
    m["nichols.ladder.rss_mb"] = ladder_rss
    m["cli.import_s"] = imports
    m["cli.uncovered_s"] = wall - covered
    m["trace.coverage"] = covered / wall
    return m


def known_layer_metric(name: str) -> bool:
    """Whether a per-layer name is one layer_metrics can produce."""
    if name in SPECIAL:
        return True
    span, _, suffix = ALIASES.get(name, name).rpartition(".")
    spans = {t[2] for t in TARGETS}
    if re.fullmatch(r"nichols\.ladder\.deg\d+", span):
        spans.add(span)
    return span in spans and suffix in (
        "s", "self_s", "calls", "rss_mb", "bytes", *COUNTERS)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, probe: OpResult) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.numpy,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if not known_layer_metric(m["name"]):
            raise FatalError(f"per-layer metric {m['name']} has no source")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not CLI_SOURCE.is_file():
        print(f"error: no coxrack source tree: {CLI_SOURCE} is missing",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
        probe = run.probe_setup()
        if args.trace:
            values, detail = traced(run)
            wanted = spec["per_layer"]
        else:
            values, detail = end_to_end(run)
            wanted = spec["end_to_end"]
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    prov = provenance(args.seed, probe)
    full = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "provenance": prov,
            "orders": run.orders, "failures": run.failures,
            "fail_frac": len(run.failures) / max(run.attempted, 1),
            "detail": detail, **result}
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(full, sort_keys=True) + "\n")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
