"""The scripted `mdtk` command session and the checks on its outputs.

The session writes data with `construct`, `product` and `conjugate`, reads
the written files back with `verify`, `report`, `orbits`, `bound-check` and
`fusion`, and runs the builtin `catalog`, `report`, `bound-check` and
`orbits` commands.  Every command must exit with 0.  Outputs are compared
with pinned values or with references that `worker.cli_refs` computes
in-process.  This module does not import mdtk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from oracle import FIB_FUSION, ISING_FUSION, group_fusion, kron_fusion, orbit_errors

# the builtin catalog: family, parameters, T order and norm of the global
# dimension; Ndim is 4 for Ising, 5 for Fibonacci, 9 for so5 level 9, n for
# pointed Z/n and n^2 for the double of Z/n
CATALOG = (
    [(f"ising-{j}-{t}", 16, 4) for j in range(1, 16, 2) for t in "pm"]
    + [(f"fibonacci-{j}", 5, 5) for j in (1, 2, 3, 4)]
    + [(f"so5level9-{j}", 9, 9) for j in (1, 2, 4, 5, 7, 8)]
    + [(f"pointed-c{n}", n, n) for n in (3, 5, 7, 9)]
    + [(f"double-c{n}", n, n * n) for n in (2, 3)]
)


def session(p: dict) -> list[dict]:
    """The commands of one session.  Each has argv (paths relative to the
    pass directory) and the name of its check."""
    ising = ["--j", str(p["ising_j"]), "--eps", str(p["ising_eps"])]
    rows = [
        (["construct", "pointed", "--orders", "81", "--exps", str(p["pointed81_exp"]), "-o", "p81.json"], "pointed81"),
        (["construct", "double-abelian", "--orders", "4", "-o", "d4.json"], "digest:d4.json"),
        (["construct", "ising", *ising, "-o", "ising.json"], "digest:ising.json"),
        (["construct", "fibonacci", "--j", str(p["fib_j"]), "-o", "fib.json"], "digest:fib.json"),
        (["construct", "so5level9", "--j", str(p["so5_j"]), "-o", "so5.json"], "digest:so5.json"),
        (["product", "ising.json", "fib.json", "-o", "if.json"], "digest:if.json"),
        (["conjugate", "if.json", "--k", str(p["conj_k"]), "-o", "ifc.json"], "digest:ifc.json"),
        (["verify", "if.json", "--json"], "verify"),
        (["verify", "ifc.json", "--json"], "verify"),
        (["verify", "d4.json", "--json"], "verify"),
        (["report", "if.json", "--json"], "report:if"),
        (["report", "so5.json", "--json"], "report:so5"),
        (["orbits", "ifc.json", "--json"], "orbits-ifc"),
        (["fusion", "d4.json", "--json"], "fusion-d4"),
        (["fusion", "if.json", "--json"], "fusion-if"),
        (["bound-check", "p81.json", "--json"], "bound-p81"),
        (["bound-check", "if.json", "--classify", "--json"], "bound-if"),
        (["catalog", "--all", "--json"], "catalog-all"),
        (["catalog", "--json"], "catalog"),
        (["report", p["builtin_ising"], "--json"], "report:builtin_ising"),
        (["bound-check", p["builtin_so5"], "--classify", "--json"], "bound:builtin_so5"),
        (["bound-check", p["builtin_ising"], "--classify", "--json"], "bound:builtin_ising"),
        (["orbits", p["builtin_fib"], "--json"], "orbits:builtin_fib"),
        (["orbits", p["builtin_so5"], "--json"], "orbits:builtin_so5"),
    ]
    return [{"argv": argv, "check": check} for argv, check in rows]


def canonical_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _root_exponent(m: int, k: int) -> dict:
    """{"m", "k"} of zeta_m^k in lowest terms, as RootOfUnity stores it."""
    k %= m
    g = math.gcd(k, m)
    return {"m": m // g, "k": k // g} if k else {"m": 1, "k": 0}


def _fusion_errors(out: dict, labels: list[str], table: tuple) -> str:
    r = len(labels)
    want = {
        (labels[x], labels[y], labels[z], table[x][y][z])
        for x in range(r)
        for y in range(x, r)
        for z in range(r)
        if table[x][y][z]
    }
    got = {(e["x"], e["y"], e["z"], e["n"]) for e in out["fusion"]}
    return "" if got == want else "fusion rules differ from the Kronecker/group table"


def _orbit_errors(out: dict) -> str:
    labels = [row["label"] for row in out["orbits"]]
    idx = {lab: i for i, lab in enumerate(labels)}
    orbits = [{idx[lab] for lab in row["orbit"]} for row in out["orbits"]]
    squared = [{idx[lab] for lab in row["squared_orbit"]} for row in out["orbits"]]
    return orbit_errors(orbits, squared)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check(cmd: dict, stdout: str, pass_dir: str, refs: dict, p: dict) -> str:
    """Check one command's output; returns "" when it is correct."""
    kind = cmd["check"]
    if kind == "pointed81":
        d = _read_json(os.path.join(pass_dir, "p81.json"))
        a = p["pointed81_exp"]
        if len(d["labels"]) != 81 or len(d["S"]) != 81:
            return "pointed Z/81 file has the wrong rank"
        if d["T"] != [_root_exponent(81, -a * g * g) for g in range(81)]:
            return "pointed Z/81 T differs from q(g)^-1 = zeta_81^(-a g^2)"
        if any(len(row) != 81 or 81 % e["n"] for row in d["S"] for e in row):
            return "pointed Z/81 S entries are outside Q(zeta_81)"
        return ""
    if kind.startswith("digest:"):
        path = kind.split(":", 1)[1]
        got = canonical_digest(_read_json(os.path.join(pass_dir, path)))
        return "" if got == refs[kind] else f"{path} differs from the in-process datum"
    out = json.loads(stdout)
    if kind == "verify":
        if not out["ok"] or not all(c["passed"] for c in out["checks"]):
            return "verify reports a failed check on valid data"
        return ""
    if kind == "catalog-all":
        return "" if out == {"ok": True} else "catalog sweep is not clean"
    if kind == "catalog":
        got = [(row["name"], row["fs_exponent"], row["ndim"]) for row in out]
        return "" if got == CATALOG else "catalog rows differ from the pinned T orders and norms"
    if kind == "bound-p81":
        want = (81, 81, 3, True, True, 1)
    elif kind == "bound-if":
        # T order 80 is not a prime power, Ndim = N(10 + 2 sqrt 5) = 80
        want = (80, 80, None, True, False, None)
    else:
        want = None
    if want is not None:
        got = tuple(out[k] for k in ("fsexp", "ndim", "prime", "bound_holds", "extremal", "tier"))
        return "" if got == want else f"bound verdict {got} differs from {want}"
    if kind == "orbits-ifc":
        if out["working_conductor"] != 960:
            return "working conductor of ising*fib is not 960"
        return _orbit_errors(out)
    if kind == "fusion-d4":
        labels = _read_json(os.path.join(pass_dir, "d4.json"))["labels"]
        return _fusion_errors(out, labels, group_fusion((4, 4)))
    if kind == "fusion-if":
        labels = _read_json(os.path.join(pass_dir, "if.json"))["labels"]
        return _fusion_errors(out, labels, kron_fusion(ISING_FUSION, FIB_FUSION))
    ref = refs[kind]
    if kind.startswith("orbits:"):
        err = _orbit_errors(out)
        if err:
            return err
    if any(out[k] != v for k, v in ref.items()):
        return f"{kind} differs from the in-process values"
    return ""
