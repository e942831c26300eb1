"""Command-line front end.

Subcommands: info (group structure), certify (twist certificate),
hilbert (symmetrizer ranks per degree, q-'s by the certified twist),
dihedral (admissible diagonal summands and the compatibility report).

Exit codes: 0 success, 1 usage or resource errors, 2 mathematical
falsification (a certified identity failed, with the counterexample
serialized to stderr, or the primes of a modular rank disagreed).
Certificates are byte-identical across runs for a fixed configuration.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from pathlib import Path

from . import __version__
from .coxeter import (
    CoxeterMatrix,
    InvalidMatrixError,
    NotFiniteError,
    RootSystem,
    build_group,
    resolve_matrix,
)
from .dihedral import (
    InvalidSummandError,
    admissible_pairs,
    compatible,
    dihedral_yd,
    dynkin_diagram,
    exterior_coefficients,
)
from .extension import (
    CertificationError,
    certificate_json,
    certified_section,
    require_certify_memory,
    twist_certificate,
)
from .nichols import (
    DegreeTooLargeError,
    braiding_from_rack,
    hilbert_coeffs,
    total_dimension,
)
from .racks import q_plus, reflection_rack


def _class_number(matrix: CoxeterMatrix, name: str | None):
    """--subrack T1/T2/... as a class number (None = all of T), checked
    against the odd graph's components, which are the classes of T."""
    if name is None:
        return None
    match = re.fullmatch(r"[Tt]?([1-9][0-9]*)", name)
    if match is None:
        raise InvalidMatrixError(f"bad subrack name {name!r}")
    num, count = int(match[1]), len(matrix.odd_components())
    if num > count:
        raise InvalidMatrixError(
            f"subrack {name!r} out of range; group has {count} classes")
    return num


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    matrix = resolve_matrix(args.target)
    roots = RootSystem(matrix)
    sizes = [len(c) for c in roots.root_classes]
    data = {
        "schema": "group_info.v1",
        "matrix": [list(r) for r in matrix.rows],
        "rank": roots.rank,
        "order": roots.order,
        "positive_roots": roots.nroots,
        "reflections": roots.nroots,
        "class_sizes": sizes,
        "odd_components": matrix.odd_components(),
        "all_odd": matrix.all_odd(),
        "cyclotomic_level": roots.level,
    }
    if args.json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(f"|W| = {roots.order}   |Phi+| = {roots.nroots}   |T| = {roots.nroots}")
        print(f"reflection classes: {len(sizes)} "
              f"(sizes {', '.join(map(str, sizes))})")
        print(f"odd components: {data['odd_components']}")
        print(f"all bond orders odd: {data['all_odd']}")
    return 0


def cmd_certify(args) -> int:
    matrix = resolve_matrix(args.target)
    roots = RootSystem(matrix)
    require_certify_memory(roots)
    g = build_group(roots)
    cert = twist_certificate(g)
    text = certificate_json(cert)
    if args.out is not None:
        args.out.write_text(text)
    if args.json or args.out is None:
        sys.stdout.write(text)
    return 0    # twist_certificate raises CertificationError on a failure


def cmd_hilbert(args) -> int:
    matrix = resolve_matrix(args.target)
    if args.dmax < 0:
        raise ValueError(f"dmax must be at least 0, got {args.dmax}")
    num = _class_number(matrix, args.subrack)
    g = build_group(matrix)
    certified_section(g)    # q-'s ranks are q+'s; its tables are dropped
    rack, qp = reflection_rack(g), q_plus(g)
    if num is not None:
        idx = list(g.classes[num - 1])
        rack, qp = rack.subrack(idx), qp[idx][:, idx]
    V = braiding_from_rack(rack, qp)
    reports = hilbert_coeffs(V, args.dmax, mode=args.mode)
    rows = [{"degree": r.degree, "ambient_dim": V.dim ** r.degree,
             "rank_plus": r.rank, "rank_minus": r.rank, "equal": True,
             "agreed": r.agreed} for r in reports]
    total = sum(r.rank for r in reports)
    data = {
        "schema": "hilbert_table.v1",
        "matrix": [list(r) for r in matrix.rows],
        "subrack": args.subrack,
        "mode": args.mode,
        "primes": list(reports[0].primes),
        "rows": rows,
        "rank_minus_from": "twist",
        "total_plus": total,
        "total_minus": total,
    }
    if args.json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(f"deg   dim      rank(q+)  rank(q-)  equal")
        for row in rows:
            print(f"{row['degree']:>3} {row['ambient_dim']:>6} "
                  f"{row['rank_plus']:>9} {row['rank_minus']:>9}  yes")
        print(f"totals through degree {args.dmax}: {total} / {total}")
    return 0 if all(r.agreed for r in reports) else 2


def cmd_dihedral(args) -> int:
    r = args.r
    if r <= 3 or r % 2 == 0:
        print(f"error: the even-dihedral analysis requires r > 3 and odd; "
              f"got r = {r}", file=sys.stderr)
        return 1
    pairs = admissible_pairs(r)
    build = bool(args.summands) or args.v0 != 0  # dihedral_yd refuses v0 < 0
    if args.check and not build:
        print("error: --check needs --summands or a positive --v0",
              file=sys.stderr)
        return 1
    chosen = _parse_summands(args.summands) if args.summands else []
    data = {
        "schema": "dihedral_report.v1",
        "r": r,
        "admissible_pairs": [list(p) for p in pairs],
        "v0": {"degree": r, "character": r},
    }
    if build:
        compat = compatible(r, chosen)
        space = dihedral_yd(r, chosen, v0_copies=args.v0)
        dd = dynkin_diagram(space)
        data["summands"] = [list(p) for p in chosen]
        data["v0_copies"] = args.v0
        data["dimension"] = space.dim
        data["compatible"] = compat
        data["predicted_total"] = 2 ** space.dim if compat else None
        data["dynkin"] = {
            "vertices": list(dd.vertices),
            "edges": {f"{i},{j}": e for (i, j), e in sorted(dd.edges.items())},
        }
        if args.check:
            total, reports = total_dimension(space)
            data["computed_total"] = total
            data["ranks"] = [rep.rank for rep in reports]
            disagree = [rep.degree for rep in reports if not rep.agreed]
            if disagree:
                primes = list(reports[0].primes)
                print(f"error: ranks disagree across primes {primes} in "
                      f"degrees {disagree}", file=sys.stderr)
                return 2
            if compat and total != 2 ** space.dim:
                print("error: computed total contradicts the prediction",
                      file=sys.stderr)
                return 2
            if compat and data["ranks"][:-1] != \
                    exterior_coefficients(space.dim)[:-1]:
                print("error: ranks are not the exterior binomials",
                      file=sys.stderr)
                return 2
    if args.json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(f"r = {r}: admissible two-dimensional summands {pairs}")
        if build:
            print(f"sum of {chosen} plus {args.v0} trivial-type lines: "
                  f"dim {data['dimension']}, compatible: {data['compatible']}")
            if data["compatible"]:
                print(f"predicted total dimension 2^{data['dimension']} = "
                      f"{data['predicted_total']}")
            if args.check:
                print(f"computed total {data['computed_total']} "
                      f"with ranks {data['ranks']}")
    return 0


def _parse_summands(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [int(v) for v in part.split(",")]
        if len(bits) != 2:
            raise InvalidSummandError(f"summand {part!r} must be 'h,j'")
        out.append((bits[0], bits[1]))
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_matrix_args(sub):
    sub.add_argument("target",
                     help="preset name (A3, B2, I2(7), ...) or matrix file")
    sub.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxrack",
        description="reflection racks of finite Coxeter groups: cocycle "
                    "twists and Nichols algebra Hilbert series")
    parser.add_argument("--version", action="version",
                        version=f"coxrack {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="group and reflection structure")
    _add_matrix_args(p_info)

    p_cert = subs.add_parser("certify", help="emit the twist certificate")
    _add_matrix_args(p_cert)
    p_cert.add_argument("--out", type=Path, default=None,
                        help="also write the certificate to a file")

    p_hil = subs.add_parser("hilbert", help="symmetrizer ranks per degree, "
                            "q-'s by the certified twist")
    _add_matrix_args(p_hil)
    p_hil.add_argument("--dmax", type=int, default=4)
    p_hil.add_argument("--mode", choices=("modular", "exact"),
                       default="modular")
    p_hil.add_argument("--subrack", default=None,
                       help="restrict to a reflection class (T1, T2, ...)")

    p_dih = subs.add_parser("dihedral",
                            help="admissible diagonal summands for even "
                                 "dihedral groups of twice an odd order")
    p_dih.add_argument("r", type=int, help="odd half-order parameter (> 3)")
    p_dih.add_argument("--summands", default=None,
                       help="semicolon-separated h,j pairs, e.g. '5,1;5,3'")
    p_dih.add_argument("--v0", type=int, default=0,
                       help="copies of the one-dimensional summand")
    p_dih.add_argument("--check", action="store_true",
                       help="cross-check the prediction by symmetrizer ranks")
    p_dih.add_argument("--json", action="store_true")
    return parser


COMMANDS = {"info": cmd_info, "certify": cmd_certify, "hilbert": cmd_hilbert,
            "dihedral": cmd_dihedral}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # Everything alive now (modules, functions, the parser) lives until
    # exit, so no collection, the one at exit included, should walk it
    # again: walking these ~21 500 objects was most of the time to exit.
    gc.freeze()
    try:
        return COMMANDS[args.command](args)
    except CertificationError as exc:
        print(json.dumps({"falsification": exc.details}, sort_keys=True),
              file=sys.stderr)
        return 2
    except (InvalidMatrixError, InvalidSummandError, NotFiniteError,
            DegreeTooLargeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
