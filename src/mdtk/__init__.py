"""mdtk: exact computations with the modular data of fusion categories.

The package computes in cyclotomic fields without floating point (cyclo),
wraps S and T matrices with their invariants and consistency checks
(modular), constructs the standard families (construct), tracks the Galois
action on objects (galois), evaluates the prime power bound on the T order
(bounds), and ships serialization plus a catalog and CLI (catalog_cli).

`import mdtk` loads no layer: each name below is imported from its layer
on first use (PEP 562), and the layers import construct, galois and
bounds only in the functions that call them.  So an `mdtk` command loads
only what it runs: cyclo, modular and catalog_cli always; construct for
`construct`, `product` and a builtin name; galois for `orbits`,
`conjugate` and `catalog --all`; bounds for `bound-check` and
`catalog --all`.
"""

__version__ = "0.1.0"

# every public name, and the layer it is imported from
_HOME = {
    name: layer
    for layer, names in (
        ("cyclo", "ComplexInterval Cyc RootOfUnity cyclotomic_poly divisors euler_phi "
                  "rational real_subfield_degree root_of_unity unit_group_generators units_mod"),
        ("modular", "Check DataFormatError DegenerateDataError FusionTensor MdtkError "
                    "ModularDatum NotModularError VerificationReport anomaly centralizes "
                    "data_equal dims fpdim_pseudounitary fs_exponent gauss_sum global_dim "
                    "invertibles ndim normalized_t normalized_t_order subcategory_generated "
                    "symmetric_center verify verlinde_fusion"),
        ("construct", "CocycleSpec MetricGroup deligne_product double_abelian fibonacci "
                      "fsexp_vec_g_omega ising pointed so5_level9"),
        ("galois", "GaloisPermutation bar_category conjugate_category galois_permutation "
                   "orbit orbit_t verify_galois_identities working_conductor"),
        ("bounds", "BoundVerdict LemmaVerdict bound_check extremal_classify key_object "
                   "lemma_orbit_bound prime_power siegel_check"),
        ("catalog_cli", "CatalogEntry builtin builtin_names catalog_entries load save"),
    )
    for name in names.split()
}
_LAYERS = ("cyclo", "modular", "construct", "galois", "bounds")

# `from mdtk import *` binds the layers and their names; the catalog and
# CLI names are left to explicit imports
__all__ = [*_LAYERS, *(name for name, layer in _HOME.items() if layer != "catalog_cli")]


def __getattr__(name):
    if name in _LAYERS:
        layer = name
    elif name in _HOME:
        layer = _HOME[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{layer}", fromlist=[name])
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAYERS, *_HOME})
