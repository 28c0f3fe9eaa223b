"""Selberg integrals, multiple zeta values, and the calculus connecting them.

The namespace is lazy (PEP 562): `import selzeta` loads no submodule, and a
name below is imported from its module on first access, so a command-line
call loads only the layers its command uses.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "braid": ("BraidFamily", "LinearMatrix", "build_tower", "ind_step", "pure_braid_defects", "spectrum"),
    "graphs": ("GraphSum", "IndexTuple", "OrderedRootedGraph", "principal_product", "residue_expand", "wedge", "wedge_chain"),
    "mzv": ("HRElement", "MZVCombo", "MZVIndex", "associator_symbolic", "mzv_eval", "shuffle_regularize", "stuffle_indices"),
    "ncalg": ("NCSeries", "associator_series", "grouplike_defect", "series_exp", "series_log", "series_mul", "shuffle_words"),
    "selberg": ("ExponentAssignment", "QuadratureResult", "integrate_graph", "integrate_sum", "taylor_coefficients"),
    "transport": ("ConnectionPair", "projection_identity_check", "rho_apply"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
