"""Span tracing for one benchmark op, applied from outside the package.

`Tracer.install` replaces each public function or method named in
TARGETS with a wrapper that records a span: name, start, end, parent,
op id, the peak-RSS growth during the call, and counters computed from
the call's arguments or return value.  A function is replaced in every
loaded `coxrack` module that binds it, so calls made through
`from .modlin import row_reduce_mod` are traced too.  A target that no
longer exists raises TraceTargetMissing naming it, so a renamed stage
cannot silently drop out of the per-layer numbers.

Spans stay in memory; the child writes them out when the op ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time


class TraceTargetMissing(RuntimeError):
    pass


def _nbytes(bound, result):
    return {"bytes": int(result.nbytes), "obj": id(result)}


# (module, attribute, span name, counter function of (bound args, result))
TARGETS = [
    ("coxeter", "build_group", "coxeter.build_group",
     lambda b, r: {"order": int(r.order)}),
    ("coxeter", "GroupTable.mult_table", "coxeter.mult_table", _nbytes),
    ("coxeter", "GroupTable.conj_refl_table", "coxeter.conj_refl_table",
     _nbytes),
    ("extension", "coset_enumeration", "extension.coset_enumeration",
     lambda b, r: {"cosets": len(r[0]) if r else 0}),
    ("extension", "build_wtilde", "extension.build_wtilde", None),
    ("extension", "build_section", "extension.build_section", None),
    ("extension", "check_vendramin", "extension.check_vendramin", None),
    ("extension", "check_global", "extension.check_global", None),
    ("extension", "phi_rho", "extension.phi_rho", None),
    ("extension", "certify_twist", "extension.certify_twist", None),
    ("extension", "phi_checksum", "extension.phi_checksum",
     lambda b, r: {"lines": int(b.arguments["phi"].table.size)}),
    ("racks", "q_plus_table", "racks.q_plus_table", None),
    ("racks", "q_plus", "racks.q_plus", None),
    ("racks", "q_minus", "racks.q_minus", None),
    ("racks", "reflection_rack", "racks.reflection_rack", None),
    ("racks", "cohomologous_solve", "racks.cohomologous_solve",
     lambda b, r: {"equations": int(b.arguments["X"].size) ** 2}),
    ("nichols", "braiding_from_rack", "nichols.braiding_from_rack", None),
    ("nichols", "symmetrizer_factorized_exact",
     "nichols.symmetrizer_factorized_exact", None),
    ("nichols", "exact_matrix_as_cyclo", "nichols.exact_matrix_as_cyclo", None),
    ("modlin", "row_reduce_mod", "modlin.row_reduce_mod",
     lambda b, r: {"cells": int(b.arguments["a"].shape[0])
                   * int(b.arguments["a"].shape[1])}),
    ("modlin", "solve_in_span_mod", "modlin.solve_in_span_mod", None),
    ("modlin", "rank_exact_cyclo", "modlin.rank_exact_cyclo", None),
    ("dihedral", "dihedral_yd", "dihedral.dihedral_yd", None),
    ("dihedral", "u_module", "dihedral.u_module", None),
    ("dihedral", "v31_module", "dihedral.v31_module", None),
    ("dihedral", "braided_from_graded", "dihedral.braided_from_graded", None),
]

# generator whose steps are timed one degree at a time
LADDER = ("nichols", "ladder_ranks_iter")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for the op running in this process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ladders = 0

    def begin(self, name: str) -> dict:
        span = {"name": name, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else -1,
                "rss0": _peak_rss_mb(), "start": time.monotonic()}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict, **counters):
        span["end"] = time.monotonic()
        span["rss1"] = _peak_rss_mb()
        span.update(counters)
        self._stack.pop()

    # -- installation -----------------------------------------------------

    @classmethod
    def install(cls, op_id: str) -> "Tracer":
        """Wrap every target in every loaded coxrack module that binds it."""
        tracer = cls(op_id)
        for mod_name, attr, name, counter in TARGETS:
            owner, leaf, fn = _resolve(mod_name, attr)
            tracer._replace(owner, leaf, fn, tracer._wrap(fn, name, counter))
        owner, leaf, fn = _resolve(*LADDER)
        tracer._replace(owner, leaf, fn, tracer._wrap_ladder(fn))
        return tracer

    @staticmethod
    def _replace(owner, leaf, fn, wrapper):
        if inspect.isclass(owner):
            setattr(owner, leaf, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coxrack"
                                      or mod_name.startswith("coxrack.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.update(counter(sig.bind(*args, **kwargs), result))
            return result

        return wrapper

    def _wrap_ladder(self, fn):
        """Time each step of the rank ladder as span nichols.ladder.deg<n>."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dim = sig.bind(*args, **kwargs).arguments["V"].dim
            self._ladders += 1
            ladder_id = self._ladders
            steps = fn(*args, **kwargs)
            while True:
                span = self.begin("nichols.ladder")
                try:
                    item = next(steps)
                except StopIteration:
                    self.end(span, ladder=ladder_id)
                    return
                except BaseException:
                    self.end(span, ladder=ladder_id)
                    raise
                n, rank = item[0], item[1]
                self.end(span, ladder=ladder_id, columns=dim ** n, rank=rank)
                span["name"] = f"nichols.ladder.deg{n}"
                yield item

        return wrapper


def _resolve(mod_name: str, attr: str):
    """(owner, leaf name, original function) of coxrack.<mod>.<attr>."""
    full = f"coxrack.{mod_name}.{attr}"
    try:
        owner = importlib.import_module(f"coxrack.{mod_name}")
    except ImportError as exc:
        raise TraceTargetMissing(f"trace target {full} not found: {exc}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetMissing(f"trace target {full} not found")
    fn = getattr(owner, leaf, None)
    if not callable(fn):
        raise TraceTargetMissing(f"trace target {full} not found")
    return owner, leaf, fn
