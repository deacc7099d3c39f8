"""Serialization, the builtin catalog, and the command line interface.

Files are JSON with decimal-string integers, so round trips are exact:

    {"name": ..., "labels": [...],
     "S": [[{"n": conductor, "den": "den", "terms": [[i, "num"], ...]}, ...], ...],
     "T": [{"m": order, "k": exponent}, ...]}

An S entry is sum(num_i zeta_n^i) / den over its nonzero power-basis
coefficients, at increasing indices i < phi(n); zero has no terms.  Files
in the older dense form, "c": [["num", "den"], ...] with every coefficient,
still load.

The builtin catalog covers the families the library constructs, at every
parameter that yields genuinely different invariants."""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from functools import lru_cache

from .cyclo import Cyc, RootOfUnity
from .modular import (
    DataFormatError,
    MdtkError,
    ModularDatum,
    _integer_norm,
    _per_entry,
    anomaly,
    dims,
    fpdim_pseudounitary,
    fs_exponent,
    gauss_sum,
    global_dim,
    invertibles,
    ndim,
    normalized_t_order,
    symmetric_center,
    verify,
    verlinde_fusion,
)

__all__ = [
    "save",
    "load",
    "CatalogEntry",
    "builtin_names",
    "builtin",
    "catalog_entries",
    "main",
]


# ---------------------------------------------------------------------------
# serialization

# the largest working conductor a loaded datum may need; ising x fib x so5,
# the largest datum the library builds, needs 8640
MAX_CONDUCTOR = 10_000


def to_dict(md: ModularDatum) -> dict:
    return {
        "name": md.name,
        "labels": list(md.labels),
        "S": [list(row) for row in _per_entry(md, Cyc.to_json)],
        "T": [t.to_json() for t in md.T],
    }


def _datum_line(md: ModularDatum) -> str:
    # json.dumps, not json.dump: only dumps runs the C encoder
    return json.dumps(to_dict(md), separators=(",", ":"))


def save(md: ModularDatum, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_datum_line(md) + "\n")


def from_dict(obj: dict) -> ModularDatum:
    if not isinstance(obj, dict):
        raise DataFormatError("top level must be an object")
    for key in ("labels", "S", "T"):
        if key not in obj:
            raise DataFormatError(f"missing required key {key!r}")
    if not isinstance(obj["labels"], list):
        raise DataFormatError("labels must be a list")
    # pointed data repeat few distinct values (pointed-c81: 6,561 entries,
    # 81 values), so each distinct raw entry is parsed once; repr tells 1
    # from True and 1.0, which compare equal
    parsed: dict[str, Cyc] = {}

    def entry(e) -> Cyc:
        key = repr(e)
        c = parsed.get(key)
        if c is None:
            c = parsed[key] = Cyc.from_json(e)
        return c

    try:
        _check_conductor_cap([e.get("n") for row in obj["S"] for e in row if isinstance(e, dict)]
                             + [t.get("m") for t in obj["T"] if isinstance(t, dict)])
        S = [[entry(e) for e in row] for row in obj["S"]]
        T = [RootOfUnity.from_json(t) for t in obj["T"]]
    except (ValueError, TypeError) as e:
        raise DataFormatError(f"bad matrix entry: {e}") from None
    md = ModularDatum(obj["labels"], S, T, name=obj.get("name"))
    _check_field_membership(md)
    return md


def _check_conductor_cap(conductors) -> None:
    """Reject S conductors and T orders that could need a working conductor
    above MAX_CONDUCTOR, before anything is built from them.

    Every conductor a computation on the datum reaches, the working
    conductor lcm(12 FSexp, S conductors) included, divides 12 times the
    lcm of the S conductors and T orders.  The reduction table at N has N
    rows and the Galois sweeps visit every unit mod N, so one large T order
    would otherwise stall a load.
    Values that are not nonzero integers are left to the entry checks.
    """
    N = 1
    for v in conductors:
        if isinstance(v, int) and v:
            N = math.lcm(N, v)
            if 12 * N > MAX_CONDUCTOR:
                raise DataFormatError(
                    f"12 times the lcm of the S and T conductors is {12 * N}, "
                    f"above the limit {MAX_CONDUCTOR}"
                )


def _check_field_membership(md: ModularDatum) -> None:
    """S entries must lie in the cyclotomic field whose conductor is the
    lcm of the T orders (valid modular data always satisfies this).  The
    conductors N with e in Q(zeta_N) are closed under gcd, so e lies in
    Q(zeta_N) exactly when its least conductor divides N."""
    N = fs_exponent(md)
    for i, row in enumerate(md.S):
        for j, e in enumerate(row):
            if N % e.n and N % e.reduce_conductor().n:
                raise DataFormatError(
                    f"S[{md.labels[i]}][{md.labels[j]}] does not lie in "
                    f"Q(zeta_{N}), the field of the T entries"
                )


def load(path: str) -> ModularDatum:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DataFormatError(f"not valid JSON: {e}") from None
    return from_dict(obj)


# ---------------------------------------------------------------------------
# builtin catalog


class CatalogEntry(namedtuple("CatalogEntry", "name source notes")):
    __slots__ = ()

    @property
    def datum(self) -> ModularDatum:
        return builtin(self.name)


def _builtin_defs():
    # each builder takes the construct module, imported by `builtin`
    defs = []
    for j in (1, 3, 5, 7, 9, 11, 13, 15):
        for eps, tag in ((1, "p"), (-1, "m")):
            defs.append(
                (
                    f"ising-{j}-{tag}",
                    lambda c, j=j, eps=eps: c.ising(j, eps),
                    "rank 3; T order 16; the square root of two object",
                )
            )
    for j in (1, 2, 3, 4):
        defs.append(
            (
                f"fibonacci-{j}",
                lambda c, j=j: c.fibonacci(j),
                "rank 2; golden ratio dimensions; T order 5",
            )
        )
    for j in (1, 2, 4, 5, 7, 8):
        defs.append(
            (
                f"so5level9-{j}",
                lambda c, j=j: c.so5_level9(j),
                "rank 6 at conductor 9; integer global dimension 9, "
                "irrational object dimensions",
            )
        )
    for n in (3, 5, 7, 9):
        defs.append(
            (
                f"pointed-c{n}",
                lambda c, n=n: c.pointed(c.MetricGroup.generator_form((n,), (1,))),
                f"pointed on Z/{n} with q(g) = zeta^(g^2)",
            )
        )
    for n in (2, 3):
        defs.append(
            (
                f"double-c{n}",
                lambda c, n=n: c.double_abelian((n,)),
                f"hyperbolic double of Z/{n}; trivial anomaly",
            )
        )
    return defs


_DEFS = {name: (fn, notes) for name, fn, notes in _builtin_defs()}


def builtin_names() -> tuple[str, ...]:
    return tuple(_DEFS)


@lru_cache(maxsize=None)
def builtin(name: str) -> ModularDatum:
    if name not in _DEFS:
        raise DataFormatError(f"no builtin named {name!r}")
    from . import construct

    return _DEFS[name][0](construct)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(
        CatalogEntry(name=name, source="builtin", notes=notes)
        for name, (fn, notes) in _DEFS.items()
    )


def _resolve(spec: str) -> ModularDatum:
    """A file path, or failing that a builtin name."""
    import os

    if os.path.exists(spec):
        return load(spec)
    if spec in _DEFS:
        return builtin(spec)
    raise DataFormatError(f"{spec!r} is neither a readable file nor a builtin name")


# ---------------------------------------------------------------------------
# catalog health sweep


def _integral(md: ModularDatum) -> bool:
    return all(
        d.is_rational() and d.as_fraction().denominator == 1 for d in dims(md)
    )


def _product_bound(a: ModularDatum, b: ModularDatum) -> BoundVerdict | None:
    """Bound verdict for the tensor product, computed from the factors:
    the T order is the lcm and the global dimension multiplies.  Returns
    None when the product T order is not a prime power, and raises
    NotModularError when the norm of the product's global dimension is not
    a positive integer."""
    from .bounds import _verdict, prime_power

    fs = math.lcm(fs_exponent(a), fs_exponent(b))
    if prime_power(fs) is None:
        return None
    nd = _integer_norm(global_dim(a) * global_dim(b))
    return _verdict(f"({a.name})x({b.name})", fs, nd)


def catalog_sweep(out=None) -> bool:
    """Verify every builtin, check the bound, run the orbit bound on the
    integral entries, spot check the Galois identities on unit group
    generators, and re-check the bound on every pairwise tensor product
    with prime power T order.  Returns True when everything is clean."""
    from .bounds import bound_check, lemma_orbit_bound
    from .galois import verify_galois_identities

    def emit(line: str):
        if out is not None:
            out.write(line + "\n")

    clean = True
    data = [(name, builtin(name)) for name in builtin_names()]
    for name, md in data:
        rep = verify(md)
        if not rep.ok:
            clean = False
            emit(f"[FAIL] {name}: " + "; ".join(c.name for c in rep.failures))
            continue
        verdict = bound_check(md, classify=True)
        if not verdict.bound_holds:
            clean = False
        grep = verify_galois_identities(md)
        if not grep.ok:
            clean = False
            emit(f"[FAIL] {name} galois: " + "; ".join(c.name for c in grep.failures))
        if _integral(md):
            for label in md.labels:
                lv = lemma_orbit_bound(md, label)
                if lv.applicable and not lv.holds:
                    clean = False
                    emit(f"[FAIL] {name} orbit bound at {label}")
        emit(str(verdict))
    pairs = 0
    extremal_pairs = 0
    product_violations = 0
    for i, (na, a) in enumerate(data):
        for nb, b in data[i:]:
            v = _product_bound(a, b)
            if v is None:
                continue
            pairs += 1
            if v.extremal:
                extremal_pairs += 1
            if not v.bound_holds:
                clean = False
                product_violations += 1
                emit(f"[FAIL] product {v.name}: FSexp {v.fsexp} > cap")
    emit(
        f"products with prime power T order: {pairs} checked, "
        f"{extremal_pairs} extremal, {product_violations} violations"
    )
    return clean


# ---------------------------------------------------------------------------
# command line


def _float_str(e: Cyc) -> str:
    iv = e.embed(64)
    re, im = float(iv.re), float(iv.im)
    if abs(im) < 1e-15:
        return f"{re:.10g}"
    return f"{re:.10g}{im:+.10g}i"


def _report_dict(md: ModularDatum) -> dict:
    d = dims(md)
    D = global_dim(md)
    gamma, n_t = normalized_t_order(md)
    xi = anomaly(md)
    fp, pu = fpdim_pseudounitary(md)
    ft = verlinde_fusion(md)
    return {
        "name": md.name,
        "rank": md.rank,
        "labels": list(md.labels),
        "dims": [str(v) for v in d],
        "dims_float": [_float_str(v) for v in d],
        "global_dim": str(D),
        "global_dim_float": _float_str(D),
        "ndim": ndim(md),
        "fs_exponent": fs_exponent(md),
        "normalized_t_order": n_t,
        "gamma": str(gamma),
        "anomaly": str(xi),
        "anomaly_order": xi.order,
        "gauss_sum_plus": str(gauss_sum(md, 1)),
        "gauss_sum_minus": str(gauss_sum(md, -1)),
        "fpdim": fp,
        "pseudounitary": pu,
        "invertibles": sorted(invertibles(ft)),
        "symmetric_center": sorted(symmetric_center(md)),
    }


def _report_text(rep: dict) -> str:
    return "\n".join([
        f"name:            {rep['name']}",
        f"rank:            {rep['rank']}",
        *(f"  dim({lab}) = {ds}  ~ {df}"
          for lab, ds, df in zip(rep["labels"], rep["dims"], rep["dims_float"])),
        f"global dim:      {rep['global_dim']}  ~ {rep['global_dim_float']}",
        f"Ndim (norm):     {rep['ndim']}",
        f"FSexp:           {rep['fs_exponent']}",
        f"normalized T:    order {rep['normalized_t_order']}, gamma = {rep['gamma']}",
        f"anomaly:         {rep['anomaly']} (order {rep['anomaly_order']})",
        f"gauss sums:      {rep['gauss_sum_plus']} / {rep['gauss_sum_minus']}",
        f"FPdim:           {rep['fpdim']:.12g} (pseudounitary: {rep['pseudounitary']})",
        f"invertibles:     {', '.join(rep['invertibles'])}",
        f"symmetric center: {', '.join(rep['symmetric_center'])}",
    ])


# Each command returns (exit code, record, text); `main` prints the record
# as JSON under --json and otherwise the text, if any.


def _datum_result(md: ModularDatum, path: str | None):
    """Save md to path, or return its datum line as the text."""
    if path:
        save(md, path)
        return 0, None, None
    return 0, None, _datum_line(md)


def _cmd_construct(args):
    from .construct import MetricGroup, double_abelian, fibonacci, ising, pointed, so5_level9

    try:
        if args.family == "pointed":
            orders = tuple(args.orders)
            exps = tuple(args.exps) if args.exps else (1,) * len(orders)
            md = pointed(MetricGroup.generator_form(orders, exps))
        elif args.family == "ising":
            md = ising(args.j, args.eps)
        elif args.family == "fibonacci":
            md = fibonacci(args.j)
        elif args.family == "so5level9":
            md = so5_level9(args.j)
        else:
            md = double_abelian(tuple(args.orders))
    except ValueError as e:
        raise DataFormatError(str(e)) from None
    return _datum_result(md, args.output)


def _cmd_verify(args):
    md = _resolve(args.datum)
    rep = verify(md)
    record = {"name": md.name, "ok": rep.ok, "checks": [c._asdict() for c in rep.checks]}
    return 0 if rep.ok else 1, record, str(rep)


def _cmd_report(args):
    rep = _report_dict(_resolve(args.datum))
    return 0, rep, _report_text(rep)


def _cmd_fusion(args):
    md = _resolve(args.datum)
    ft = verlinde_fusion(md)
    labels = ft.labels
    entries, lines = [], []
    for x in range(ft.rank):
        for y in range(x, ft.rank):
            terms = []
            for z, n in enumerate(ft.N[x][y]):
                if n:
                    entries.append({"x": labels[x], "y": labels[y], "z": labels[z], "n": n})
                    terms.append(labels[z] if n == 1 else f"{n}*{labels[z]}")
            lines.append(f"{labels[x]} * {labels[y]} = {' + '.join(terms)}")
    return 0, {"name": md.name, "fusion": entries}, "\n".join(lines)


def _cmd_orbits(args):
    from .galois import orbit, orbit_t, working_conductor

    md = _resolve(args.datum)
    N = working_conductor(md)
    rows, lines = [], [f"working conductor: {N}"]
    for lab in md.labels:
        full = sorted(orbit(md, lab))
        sub_labels, sub_sum = orbit_t(md, lab)
        squared = sorted(sub_labels)
        rows.append(
            {"label": lab, "orbit": full, "squared_orbit": squared, "squared_orbit_dim_sum": str(sub_sum)}
        )
        lines.append(
            f"{lab}: orbit {{{', '.join(full)}}}, squared orbit {{{', '.join(squared)}}} "
            f"(dim^2 sum {sub_sum})"
        )
    return 0, {"name": md.name, "working_conductor": N, "orbits": rows}, "\n".join(lines)


def _cmd_conjugate(args):
    from .galois import conjugate_category

    md = _resolve(args.datum)
    try:
        res = conjugate_category(md, args.k)
    except ValueError as e:
        raise DataFormatError(str(e)) from None
    return _datum_result(res, args.output)


def _cmd_product(args):
    from .construct import deligne_product

    a = _resolve(args.left)
    b = _resolve(args.right)
    _check_conductor_cap([e.n for md in (a, b) for row in md.S for e in row]
                         + [t.order for md in (a, b) for t in md.T])
    return _datum_result(deligne_product(a, b), args.output)


def _cmd_bound_check(args):
    from .bounds import bound_check

    v = bound_check(_resolve(args.datum), classify=args.classify)
    return 0 if v.bound_holds else 1, v._asdict(), str(v)


def _cmd_catalog(args):
    if args.all:
        # the sweep streams its text lines as it goes
        clean = catalog_sweep(None if args.json else sys.stdout)
        return 0 if clean else 1, {"ok": clean}, None
    rows = []
    for entry in catalog_entries():
        md = entry.datum
        rows.append(
            {
                "name": entry.name,
                "rank": md.rank,
                "fs_exponent": fs_exponent(md),
                "ndim": ndim(md),
                "notes": entry.notes,
            }
        )
    text = "\n".join(
        f"{row['name']:16} rank {row['rank']:3}  FSexp {row['fs_exponent']:3}  "
        f"Ndim {row['ndim']:3}  {row['notes']}"
        for row in rows
    )
    return 0, rows, text


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mdtk",
        description="Exact computations with modular data: invariants, "
        "Galois orbits, and the prime power bound on the T order.",
    )
    p.set_defaults(json=False)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a datum from a named family")
    c.set_defaults(run=_cmd_construct)
    cs = c.add_subparsers(dest="family", required=True)
    cp = cs.add_parser("pointed", help="pointed datum from a quadratic form")
    cp.add_argument("--orders", type=int, nargs="+", required=True)
    cp.add_argument("--exps", type=int, nargs="+", default=None)
    ci = cs.add_parser("ising", help="rank 3 datum at conductor 16")
    ci.add_argument("--j", type=int, default=1)
    ci.add_argument("--eps", type=int, default=1, choices=(1, -1))
    cf = cs.add_parser("fibonacci", help="rank 2 golden ratio datum")
    cf.add_argument("--j", type=int, default=1)
    cso = cs.add_parser("so5level9", help="rank 6 datum at conductor 9")
    cso.add_argument("--j", type=int, default=1)
    cd = cs.add_parser("double-abelian", help="hyperbolic double of an abelian group")
    cd.add_argument("--orders", type=int, nargs="+", required=True)
    for sp in (cp, ci, cf, cso, cd):
        sp.add_argument("-o", "--output", default=None)

    for name, run, text in (
        ("verify", _cmd_verify, "run the consistency battery"),
        ("report", _cmd_report, "print the invariants of a datum"),
        ("fusion", _cmd_fusion, "print the fusion rules"),
        ("orbits", _cmd_orbits, "Galois orbits of the objects"),
        ("bound-check", _cmd_bound_check, "check the prime power T order bound"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("datum")
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(run=run)
    # sp is the bound-check parser
    sp.add_argument("--classify", action="store_true")

    cj = sub.add_parser("conjugate", help="apply a Galois automorphism")
    cj.add_argument("datum")
    cj.add_argument("--k", type=int, required=True)
    cj.add_argument("-o", "--output", default=None)
    cj.set_defaults(run=_cmd_conjugate)

    pr = sub.add_parser("product", help="tensor product of two data")
    pr.add_argument("left")
    pr.add_argument("right")
    pr.add_argument("-o", "--output", default=None)
    pr.set_defaults(run=_cmd_product)

    cat = sub.add_parser("catalog", help="list builtins; --all runs the full sweep")
    cat.add_argument("--all", action="store_true")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(run=_cmd_catalog)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, record, text = args.run(args)
        if args.json:
            print(json.dumps(record))
        elif text is not None:
            print(text)
    except (MdtkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


# the entry points are `python -m mdtk` and the `mdtk` script
if __name__ == "__main__":
    sys.exit("error: mdtk.catalog_cli is not runnable; use `python -m mdtk` or `mdtk`")
