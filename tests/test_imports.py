"""What importing mdtk and running a command loads.

Each `mdtk` command starts a fresh interpreter, so every module it imports
is paid on every command.  The checks run in a subprocess started with
`python -S`, so no site file has loaded a module first."""

import json
import os
import subprocess
import sys

import pytest

import mdtk
from mdtk.catalog_cli import builtin, save
from mdtk.construct import MetricGroup, deligne_product, pointed

SRC = os.path.dirname(os.path.dirname(mdtk.__file__))

WATCHED = ("dataclasses", "inspect", "typing", "mdtk.construct", "mdtk.galois", "mdtk.bounds")

# `from mdtk import *` binds these names, as it did when `import mdtk`
# imported every layer eagerly: the five layers and their public names
STAR = {
    "cyclo", "modular", "construct", "galois", "bounds",
    "ComplexInterval", "Cyc", "RootOfUnity", "cyclotomic_poly", "divisors", "euler_phi",
    "rational", "real_subfield_degree", "root_of_unity", "unit_group_generators",
    "units_mod",
    "Check", "DataFormatError", "DegenerateDataError", "FusionTensor", "MdtkError",
    "ModularDatum", "NotModularError", "VerificationReport", "anomaly", "centralizes",
    "data_equal", "dims", "fpdim_pseudounitary", "fs_exponent", "gauss_sum", "global_dim",
    "invertibles", "ndim", "normalized_t", "normalized_t_order", "subcategory_generated",
    "symmetric_center", "verify", "verlinde_fusion",
    "CocycleSpec", "MetricGroup", "deligne_product", "double_abelian", "fibonacci",
    "fsexp_vec_g_omega", "ising", "pointed", "so5_level9",
    "GaloisPermutation", "bar_category", "conjugate_category", "galois_permutation",
    "orbit", "orbit_t", "verify_galois_identities", "working_conductor",
    "BoundVerdict", "LemmaVerdict", "bound_check", "extremal_classify", "key_object",
    "lemma_orbit_bound", "prime_power", "siegel_check",
}


def run_bare(code: str, *args: str) -> str:
    """Run code in `python -S` with mdtk on the path; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_load_only_the_layers_they_run(tmp_path):
    path = tmp_path / "ising.json"
    save(builtin("ising-1-p"), str(path))
    product = tmp_path / "ising-c4.json"
    save(deligne_product(builtin("ising-1-p"), pointed(MetricGroup.generator_form((4,), (1,)))),
         str(product))
    code = f"""
import contextlib, io, json, sys
from mdtk.catalog_cli import main

def loaded():
    return [m for m in {WATCHED!r} if m in sys.modules]

seen = {{"import": loaded()}}
for key, argv in (("verify", ["verify", sys.argv[1], "--json"]),
                  ("fusion", ["fusion", sys.argv[1], "--json"]),
                  ("classify", ["bound-check", sys.argv[2], "--classify", "--json"]),
                  ("bound-check", ["bound-check", "double-c3", "--json"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    seen[key] = loaded()
print(json.dumps(seen))
"""
    seen = json.loads(run_bare(code, str(path), str(product)).splitlines()[-1])
    assert seen["import"] == []
    # a saved file is verified and fused without the constructors
    assert seen["verify"] == []
    assert seen["fusion"] == []
    # and a saved extremal product is classified from its own split tree
    assert seen["classify"] == ["mdtk.bounds"]
    # double-c3 is not extremal (FSexp 3 < Ndim 9): the builtin needs
    # construct and the verdict bounds, and nothing asks for galois
    assert seen["bound-check"] == ["mdtk.construct", "mdtk.bounds"]


def test_package_names_resolve_on_first_use():
    code = """
import json, sys
import mdtk
layers = sorted(m for m in sys.modules if m.startswith("mdtk."))
star = {}
exec("from mdtk import *", star)
print(json.dumps({
    "layers": layers,
    "all": mdtk.__all__,
    "dir": dir(mdtk),
    "star": sorted(k for k in star if k != "__builtins__"),
    "missing": [n for n in mdtk.__all__ if getattr(mdtk, n, None) is None],
}))
"""
    out = json.loads(run_bare(code).splitlines()[-1])
    assert out["layers"] == []
    assert set(out["star"]) == set(out["all"]) == STAR
    assert out["missing"] == []
    assert set(out["all"]) <= set(out["dir"])
    assert {"CatalogEntry", "builtin", "builtin_names", "catalog_entries", "load",
            "save"} <= set(out["dir"])


def test_package_attributes_are_the_layer_objects():
    from mdtk import bounds, catalog_cli, cyclo, galois

    assert mdtk.Cyc is cyclo.Cyc
    assert mdtk.orbit_t is galois.orbit_t
    assert mdtk.bound_check is bounds.bound_check
    assert mdtk.builtin is catalog_cli.builtin
    assert mdtk.galois is galois
    with pytest.raises(AttributeError, match="no_such_name"):
        mdtk.no_such_name
