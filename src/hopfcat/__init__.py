"""Exact computations with Drinfeld doubles of finite groups.

Builds D(kG) over cyclotomic numbers, enumerates its coideal
subalgebras and fusion subcategories, and cross-checks centralizers
and factorization identities by independent methods.

The public names resolve on first use (PEP 562): ``import hopfcat``
loads no submodule, so a process that needs only the group catalog
and the result cache, such as a CLI call answered from the cache,
never compiles the algebra modules.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "CycloNumber": "cyclo",
    "Group": "groups",
    "Subgroup": "groups",
    "parse_group_spec": "groups",
    "CharacterTable": "chartab",
    "character_table": "chartab",
    "QTAlgebra": "hopf",
    "build_double": "hopf",
    "build_triangular": "hopf",
    "drinfeld_map": "hopf",
    "verify_axioms": "hopf",
    "verify_quasitriangular": "hopf",
    "CoidealSubalgebra": "coideal",
    "build_coideal": "coideal",
    "dual_coideal": "coideal",
    "enumerate_coideals": "coideal",
    "FusionSubcat": "fusion",
    "SimpleObject": "fusion",
    "centralizer": "fusion",
    "enumerate_subcats": "fusion",
    "smatrix": "fusion",
    "verify_identities": "verify",
    "summarize": "verify",
    "HopfcatError": "errors",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
