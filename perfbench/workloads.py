"""Benchmark workloads: the ops each runs and the pinned answer of each op.

Every op carries a check kind and a reference.  CHECKS[kind](out, ref)
returns None when the op's captured stdout matches the reference, else
a one-line reason.  The references are pinned here, not taken from the
run being checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str        # unique within a workload, used as the op id
    op: dict         # what the child runs (see child.py)
    check: str       # key of CHECKS
    ref: dict        # pinned reference handed to the check


def cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv)}


# sha256 of the certificate bytes `coxrack certify <preset>` prints.
# Certificates are byte-identical across runs; these were recorded at the
# commit that added this benchmark and also pin phi_checksum.
CERT_SHA256 = {
    "A1":
        "d928c18ac587a423343ff24398fd8165afaf64f70d64a0df1894a422f039b106",
    "A2":
        "3683a71377b59047a05615f1ef114dcb11dc0541381b936fdca6ab0f91396bfe",
    "A3":
        "ca22c68d2ba190a7e347ad103cbc4db9013ab7424bf5e37d80bfcc947ffeb5a7",
    "A4":
        "93a2e152174ade718ee00ad64058de602668848da4d9848fb027b8c70168e406",
    "B2":
        "f98793c304c836af8884e4cb38c6d5992faeae5ebc10b7b58da3a1ed37083503",
    "B3":
        "a1b0ec029b9e22ceb4d955cd13e19056ca0f04d15f899af3ffd78b52c2c147d0",
    "I2(5)":
        "9106005fa20ffa428e4c3a69a46c31e386ba9e695b7b52c60fba3b8350094a7a",
    "I2(6)":
        "0806e7d9f3999fa9ec52a0b00832f2cca2ae2e1b8f9d2d910bc38f7de2ae4529",
    "I2(7)":
        "ab408a24682daa7c43ecd407c3352b7deff56631316f60e957d8c5743a69ef86",
    "H3":
        "01fb09b6063ef70dd25864fe9a349d0e67cb72097d1603e5ebe02462155e0036",
    "D4":
        "2a3510c2862df5ea51450c14a1ab8323f1b23ff49e29d148171a65703db515a7",
    "F4":
        "2f67bec673a9205e2bee27e71f0dc7a5d4de501c6e548360454c7fb9eaa3f55d",
}
# split and cohomologous hold exactly on the all-odd presets
COHOMOLOGOUS = {"A1", "A2", "I2(5)", "I2(7)"}
BATTERY = ["A1", "A2", "A3", "A4", "B2", "B3", "I2(5)", "I2(6)", "I2(7)",
           "H3", "D4"]

# A3 reflection braiding, both cocycles: the 576-dimensional series
# 1,6,19,42,71,96,106,... through degree 5
A3_RANKS = [1, 6, 19, 42, 71, 96]
# U(j) + V(3,1) over I2(6), j = 0 and 1: the 2304-dimensional series
# 1,5,14,31,58,95,140,... through degree 6
I26_RANKS = [1, 5, 14, 31, 58, 95, 140]
# B2 reflection braiding: the 64-dimensional series 1,4,8,12,14,12,8,4,1
# through degree 4 (the exact path must agree with the modular one)
B2_RANKS = [1, 4, 8, 12, 14]


def certify_op(preset: str) -> Op:
    return Op(f"certify {preset}", cli("certify", preset), "certify",
              {"sha256": CERT_SHA256[preset],
               "split": preset in COHOMOLOGOUS})


WORKLOADS: dict[str, list[Op]] = {
    "certify-f4": [certify_op("F4")],
    "hilbert-ladder": [
        Op("hilbert A3", cli("hilbert", "A3", "--dmax", "5", "--json"),
           "hilbert", {"ranks": A3_RANKS}),
        Op("i26 ladder", {"kind": "api", "job": "i26_ladder",
                          "args": {"dmax": 6}},
           "i26", {"ranks": I26_RANKS}),
    ],
    "battery": [certify_op(p) for p in BATTERY] + [
        Op("hilbert B2 exact",
           cli("hilbert", "B2", "--mode", "exact", "--dmax", "4", "--json"),
           "hilbert", {"ranks": B2_RANKS}),
        Op("dihedral 5", cli("dihedral", "5", "--summands", "5,1;5,3",
                             "--check", "--json"),
           "dihedral", {"total": 16, "ranks": [1, 4, 6, 4, 1, 0]}),
        Op("info E6", cli("info", "E6", "--json"), "info",
           {"order": 51840, "reflections": 36}),
        Op("info H4", cli("info", "H4", "--json"), "info",
           {"order": 14400, "reflections": 60}),
    ],
}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_certify(out: str, ref: dict):
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != ref["sha256"]:
        return f"certificate sha256 {digest} != pinned {ref['sha256']}"
    cert = json.loads(out)
    for key in ("vendramin", "global", "twist"):
        if cert[key] != "pass":
            return f"{key} is {cert[key]!r}"
    if not cert["split"] == cert["cohomologous"] == ref["split"]:
        return (f"split={cert['split']} cohomologous={cert['cohomologous']},"
                f" expected both {ref['split']}")
    return None


def check_hilbert(out: str, ref: dict):
    rows = json.loads(out)["rows"]
    for key in ("rank_plus", "rank_minus"):
        got = [r[key] for r in rows]
        if got != ref["ranks"]:
            return f"{key} {got} != pinned {ref['ranks']}"
    if not all(r["agreed"] for r in rows):
        return "primes disagree"
    return None


def check_i26(out: str, ref: dict):
    data = json.loads(out)
    for j in ("j0", "j1"):
        if data[j]["ranks"] != ref["ranks"]:
            return f"{j} ranks {data[j]['ranks']} != pinned {ref['ranks']}"
        if not data[j]["agreed"]:
            return f"{j}: primes disagree"
    return None


def check_dihedral(out: str, ref: dict):
    data = json.loads(out)
    if data["computed_total"] != ref["total"] or data["ranks"] != ref["ranks"]:
        return (f"total {data['computed_total']} ranks {data['ranks']} != "
                f"pinned {ref['total']} {ref['ranks']}")
    return None


def check_info(out: str, ref: dict):
    data = json.loads(out)
    got = {"order": data["order"], "reflections": data["reflections"]}
    if got != ref:
        return f"{got} != pinned {ref}"
    return None


CHECKS = {
    "none": lambda out, ref: None,    # import-only probe: nothing to check
    "certify": check_certify,
    "hilbert": check_hilbert,
    "i26": check_i26,
    "dihedral": check_dihedral,
    "info": check_info,
}


def verdict(op: Op, rc: int | None, out: str) -> str | None:
    """None when the op exited 0 with the pinned output, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[op.check](out, op.ref)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
