"""mdtk: exact computations with the modular data of fusion categories.

The package computes in cyclotomic fields without floating point (cyclo),
wraps S and T matrices with their invariants and consistency checks
(modular), constructs the standard families (construct), tracks the Galois
action on objects (galois), evaluates the prime power bound on the T order
(bounds), and ships serialization plus a catalog and CLI (catalog_cli).
"""

from .cyclo import (
    ComplexInterval,
    Cyc,
    RootOfUnity,
    cyclotomic_poly,
    divisors,
    euler_phi,
    rational,
    real_subfield_degree,
    root_of_unity,
    unit_group_generators,
    units_mod,
)
from .modular import (
    Check,
    DataFormatError,
    DegenerateDataError,
    FusionTensor,
    MdtkError,
    ModularDatum,
    NotModularError,
    VerificationReport,
    anomaly,
    centralizes,
    data_equal,
    dims,
    fpdim_pseudounitary,
    fs_exponent,
    gauss_sum,
    global_dim,
    invertibles,
    ndim,
    normalized_t,
    normalized_t_order,
    subcategory_generated,
    symmetric_center,
    verify,
    verlinde_fusion,
)
from .construct import (
    CocycleSpec,
    MetricGroup,
    deligne_product,
    double_abelian,
    fibonacci,
    fsexp_vec_g_omega,
    ising,
    pointed,
    so5_level9,
)
from .galois import (
    GaloisPermutation,
    bar_category,
    conjugate_category,
    galois_permutation,
    orbit,
    orbit_t,
    verify_galois_identities,
    working_conductor,
)
from .bounds import (
    BoundVerdict,
    LemmaVerdict,
    bound_check,
    extremal_classify,
    key_object,
    lemma_orbit_bound,
    prime_power,
    siegel_check,
)
__version__ = "0.1.0"


def __getattr__(name):
    # imported on first use, so that `python -m mdtk.catalog_cli` runs it once
    if name in ("CatalogEntry", "builtin", "builtin_names", "catalog_entries", "load", "save"):
        from . import catalog_cli
        return getattr(catalog_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
