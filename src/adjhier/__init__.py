"""Exact enumeration of adjunction-built hierarchies of hereditarily
finite sets: interned set universes, brute-force level oracles, the
count recurrences and their refinements, bounded variants, and certified
extraction of the growth constant.

The public names below resolve on first use, each importing only its
own module, so ``import adjhier.cli`` loads no layer a command does not
run.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "asymptotics": ("ConstantEstimate", "constant_C", "sandwich_check"),
    "bounded": ("BoundFunction", "compute_bounded_table",
                "compute_minbounded"),
    "errors": ("BoundFunctionError", "CacheError", "ResourceCapError"),
    "hfs": ("SetEngine",),
    "oracle": ("LevelSets", "build_levels", "partition_counts",
               "partition_split", "profile_counts", "verify_ark_lemma"),
    "recurrence": ("CountTable", "a_sequence", "c_sequence",
                   "compute_b_table", "compute_table"),
    "refinements": ("RefinedTable", "compute_atoms_table", "compute_d_table",
                    "compute_r_table", "d_profile", "r_profile"),
    "variants": ("HierarchySpec",),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
