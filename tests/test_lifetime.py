"""Invariants are cached on the datum they describe: a datum and everything
computed from it are freed together, and no module-level cache is keyed by
a datum."""

import gc
import importlib
import inspect
import pkgutil
import weakref
from functools import lru_cache

import pytest

import mdtk
from mdtk.bounds import bound_check
from mdtk.construct import deligne_product, fibonacci, ising
from mdtk.cyclo import units_mod
from mdtk.galois import (
    conjugate_category,
    galois_permutation,
    orbit,
    verify_galois_identities,
    working_conductor,
)
from mdtk.modular import (
    ModularDatum,
    NotModularError,
    fpdim_pseudounitary,
    normalized_t_order,
    verify,
    verlinde_fusion,
)


def live_data():
    gc.collect()
    return sum(isinstance(o, ModularDatum) for o in gc.get_objects())


def test_datum_is_freed_after_the_whole_api_ran_on_it():
    md = deligne_product(ising(1, 1), fibonacci(1))
    assert verify(md).ok
    normalized_t_order(md)
    fpdim_pseudounitary(md)
    bound_check(md, classify=True)
    orbit(md, md.labels[1])
    assert verify_galois_identities(md, generators_only=True).ok
    assert set(vars(md)) == {"labels", "S", "T", "name", "_memo"}
    ref = weakref.ref(md)
    del md
    gc.collect()
    assert ref() is None


def test_conjugates_do_not_accumulate():
    md = ising(1, 1)
    units = [k for k in units_mod(working_conductor(md)) if k != 1][:50]
    assert len(units) == 50
    before = live_data()
    for k in units:
        conjugate_category(md, k)
    assert live_data() <= before


def test_a_raising_call_is_not_cached():
    md = ising(1, 1)
    S = [list(row) for row in md.S]
    S[1][2] = S[2][1] = S[1][2] + 1
    bad = ModularDatum(md.labels, S, md.T, name="perturbed")
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotModularError) as err:
            verlinde_fusion(bad)
        witnesses.append(str(err.value))
    assert witnesses[0] == witnesses[1] != ""
    assert not any(key[0] is verlinde_fusion.__wrapped__ for key in bad._memo)


def test_repeated_galois_permutation_is_the_same_object():
    md = fibonacci(1)
    assert galois_permutation(md, 7) is galois_permutation(md, 7)


def takes_a_datum(fn) -> bool:
    """Whether the first parameter of fn is a ModularDatum, read from its
    annotation (a string under postponed evaluation) or its name."""
    try:
        first = next(iter(inspect.signature(fn).parameters.values()))
    except (StopIteration, TypeError, ValueError):
        return False
    return first.annotation in (ModularDatum, "ModularDatum") or first.name == "md"


def test_no_module_level_cache_is_keyed_by_a_datum():
    @lru_cache(maxsize=None)
    def planted(md: ModularDatum) -> int:
        return md.rank

    assert takes_a_datum(planted)
    caches, keyed = [], []
    for info in pkgutil.iter_modules(mdtk.__path__):
        mod = importlib.import_module(f"mdtk.{info.name}")
        for name, obj in vars(mod).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                caches.append(f"{info.name}.{name}")
                if takes_a_datum(obj):
                    keyed.append(f"{info.name}.{name}")
    # the bounded caches keyed by integers and names are still seen
    assert {"cyclo.euler_phi", "modular._candidate_prime", "catalog_cli.builtin"} <= set(caches)
    assert keyed == []
