"""Child process of the benchmark: builds seeded data and times calls into mdtk.

    python3 worker.py MODE WORKLOAD SEED OUT [SPANS]

MODE is one of
    setup   set up the workload, print "ready" and exit; for cli-session
            the set-up writes the session's in-process references to OUT
    pass    set up, print "ready", run one pass over the items
    trace   as pass, with the tracing wrappers installed after set-up
    probe   the cyclo kernel probe (ignores WORKLOAD)

Results go to the JSON file OUT; a traced pass also writes its spans to
SPANS.  Every item builds a fresh datum: mdtk caches invariants per datum
object, so a reused datum would measure cache hits.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time

import mdtk

import calib
import inputs
import oracle
from cli_session import canonical_digest
from tracing import Tracer


def build(spec: tuple):
    kind = spec[0]
    if kind == "prod":
        return mdtk.deligne_product(build(spec[1]), build(spec[2]))
    if kind == "ising":
        return mdtk.ising(spec[1], spec[2])
    if kind == "fib":
        return mdtk.fibonacci(spec[1])
    if kind == "so5":
        return mdtk.so5_level9(spec[1])
    n, a = spec[1], spec[2]
    if kind == "pointed":
        return mdtk.pointed(mdtk.MetricGroup.generator_form((n,), (a,)))
    q = tuple(
        mdtk.RootOfUnity.make(n, a * g * h) for g, h in itertools.product(range(n), repeat=2)
    )
    return mdtk.pointed(mdtk.MetricGroup((n, n), q), name=f"double-c{n}")


def _index_sets(md, groups) -> list[set[int]]:
    return [{md.index(lab) for lab in g} for g in groups]


# ---------------------------------------------------------------------------
# verify-ladder


def _fusion_table(spec: tuple):
    kind = spec[0]
    if kind == "ising":
        return oracle.ISING_FUSION
    if kind == "fib":
        return oracle.FIB_FUSION
    if kind == "pointed":
        return oracle.group_fusion((spec[1],))
    if kind == "double":
        return oracle.group_fusion((spec[1], spec[1]))
    return mdtk.verlinde_fusion(build(spec)).N


def ladder_setup(seed: int) -> list[dict]:
    items = []
    for label, spec in inputs.verify_ladder(seed):
        fs = oracle.family_fsexp(spec)
        D = None
        N = None
        for f in inputs.factors(spec):
            Df = mdtk.global_dim(build(f))
            D = Df if D is None else D * Df
            Nf = _fusion_table(f)
            N = Nf if N is None else oracle.kron_fusion(N, Nf)
        items.append({"label": label, "spec": spec, "fs": fs, "D": D, "N": N})
    return items


def ladder_item(item: dict, tracer: Tracer, clock):
    tracer.active = True
    t0 = clock()
    md = build(item["spec"])
    rep = mdtk.verify(md)
    _, n_t = mdtk.normalized_t_order(md)
    verdict = mdtk.bound_check(md, classify=True)
    dt = clock() - t0
    tracer.active = False
    fs = item["fs"]
    if not rep.ok:
        return dt, "verify failed: " + "; ".join(c.name for c in rep.failures)
    if mdtk.fs_exponent(md) != fs:
        return dt, f"FSexp {mdtk.fs_exponent(md)} is not the lcm {fs} of the factors"
    if mdtk.global_dim(md) != item["D"]:
        return dt, "global dimension is not the product of the factors'"
    if mdtk.verlinde_fusion(md).N != item["N"]:
        return dt, "fusion rules are not the Kronecker product of the factors'"
    if n_t % fs or (12 * fs) % n_t:
        return dt, f"normalized T order {n_t} is not between {fs} and {12 * fs}"
    if not verdict.bound_holds or verdict.fsexp != fs:
        return dt, f"bound verdict {verdict} is wrong"
    return dt, ""


# ---------------------------------------------------------------------------
# galois-sweep


def _orbits(md):
    full = [mdtk.orbit(md, lab) for lab in md.labels]
    squared = [mdtk.orbit_t(md, lab)[0] for lab in md.labels]
    return full, squared


def galois_setup(seed: int) -> list[dict]:
    items = []
    factor_orbits = {}
    for label, spec, full in inputs.galois_sweep(seed):
        fos = []
        for f in inputs.factors(spec):
            if f not in factor_orbits:
                md = build(f)
                factor_orbits[f] = _index_sets(md, _orbits(md)[0])
            fos.append(factor_orbits[f])
        items.append(
            {"label": label, "spec": spec, "full": full,
             "fs": oracle.family_fsexp(spec), "factor_orbits": fos}
        )
    return items


def galois_item(item: dict, tracer: Tracer, clock):
    tracer.active = True
    t0 = clock()
    md = build(item["spec"])
    if item["full"]:
        rep = mdtk.verify_galois_identities(md)
        full, squared = _orbits(md)
    else:
        rep = mdtk.verify_galois_identities(md, generators_only=True)
        _, n_t = mdtk.normalized_t_order(md)
        verdict = mdtk.bound_check(md)
    dt = clock() - t0
    tracer.active = False
    if not rep.ok:
        return dt, "Galois identities fail: " + "; ".join(c.name for c in rep.failures)
    fs = item["fs"]
    if item["full"]:
        err = oracle.orbit_errors(
            _index_sets(md, full), _index_sets(md, squared), item["factor_orbits"]
        )
        return dt, err
    if n_t % fs or (12 * fs) % n_t:
        return dt, f"normalized T order {n_t} is not between {fs} and {12 * fs}"
    if not verdict.bound_holds or verdict.fsexp != fs:
        return dt, f"bound verdict {verdict} is wrong"
    return dt, ""


# ---------------------------------------------------------------------------
# cli-session references


def cli_refs(seed: int) -> dict:
    """The in-process values that a session's outputs are compared with:
    digests of the data it writes, and report, bound and orbit fields."""
    from mdtk.catalog_cli import to_dict

    p = inputs.cli_params(seed)
    data = {
        "d4.json": mdtk.double_abelian((4,)),
        "ising.json": mdtk.ising(p["ising_j"], p["ising_eps"]),
        "fib.json": mdtk.fibonacci(p["fib_j"]),
        "so5.json": mdtk.so5_level9(p["so5_j"]),
    }
    data["if.json"] = mdtk.deligne_product(data["ising.json"], data["fib.json"])
    data["ifc.json"] = mdtk.conjugate_category(data["if.json"], p["conj_k"])
    refs = {f"digest:{k}": canonical_digest(to_dict(md)) for k, md in data.items()}

    def report(md):
        gamma, n_t = mdtk.normalized_t_order(md)
        xi = mdtk.anomaly(md)
        return {
            "rank": md.rank, "labels": list(md.labels),
            "dims": [str(v) for v in mdtk.dims(md)], "global_dim": str(mdtk.global_dim(md)),
            "ndim": mdtk.ndim(md), "fs_exponent": mdtk.fs_exponent(md),
            "normalized_t_order": n_t, "gamma": str(gamma),
            "anomaly": str(xi), "anomaly_order": xi.order,
        }

    def bound(md):
        v = mdtk.bound_check(md, classify=True)
        return {
            "fsexp": v.fsexp, "ndim": v.ndim, "prime": v.prime,
            "bound_holds": v.bound_holds, "extremal": v.extremal,
            "tier": v.tier, "extremal_class": v.extremal_class,
        }

    def orbits(md):
        rows = []
        for lab in md.labels:
            sub, total = mdtk.orbit_t(md, lab)
            rows.append({
                "label": lab, "orbit": sorted(mdtk.orbit(md, lab)),
                "squared_orbit": sorted(sub), "squared_orbit_dim_sum": str(total),
            })
        return {"working_conductor": mdtk.working_conductor(md), "orbits": rows}

    refs["report:if"] = report(data["if.json"])
    refs["report:so5"] = report(data["so5.json"])
    refs["report:builtin_ising"] = report(mdtk.builtin(p["builtin_ising"]))
    refs["bound:builtin_so5"] = bound(mdtk.builtin(p["builtin_so5"]))
    refs["bound:builtin_ising"] = bound(mdtk.builtin(p["builtin_ising"]))
    refs["orbits:builtin_fib"] = orbits(mdtk.builtin(p["builtin_fib"]))
    refs["orbits:builtin_so5"] = orbits(mdtk.builtin(p["builtin_so5"]))
    return refs


# ---------------------------------------------------------------------------


SETUP = {"verify-ladder": (ladder_setup, ladder_item), "galois-sweep": (galois_setup, galois_item)}


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "probe":
        import probe

        _write(out, probe.run(seed))
        return 0
    if workload == "cli-session":  # its set-up computes the references
        _write(out, cli_refs(seed))
        _ready()
        return 0
    setup, run_item = SETUP[workload]
    items = setup(seed)
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    _ready()
    if mode == "setup":
        return 0
    results = []
    # an untraced pass samples the CPU speed while it runs; its item times
    # leave out the time of the calibration loops
    sampler = calib.Sampler() if mode == "pass" else None
    clock = sampler.clock if sampler else time.perf_counter
    if sampler:
        sampler.start()
    for i, item in enumerate(items):
        tracer.item = i
        try:
            dt, err = run_item(item, tracer, clock)
        except Exception as e:  # an item that raises is a failed item
            tracer.active = False
            dt, err = None, f"{type(e).__name__}: {e}"
        results.append({"label": item["label"], "seconds": dt, "error": err})
    if sampler:
        sampler.stop()
    res = {
        "items": results,
        "spins": sampler.spins if sampler else [],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if mode == "trace":
        totals, rows = tracer.summary()
        res["totals"] = totals
        _write(argv[4], rows)
    _write(out, res)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
