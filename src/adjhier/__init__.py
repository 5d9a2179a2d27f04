"""Exact enumeration of adjunction-built hierarchies of hereditarily
finite sets: interned set universes, brute-force level oracles, the
count recurrences and their refinements, bounded variants, and certified
extraction of the growth constant."""

from .asymptotics import (ConstantEstimate, HPReal, constant_C, ratio_check,
                          sandwich_check)
from .bounded import (BoundFunction, compute_bounded_table,
                      compute_minbounded)
from .errors import BoundFunctionError, CacheError, ResourceCapError
from .hfs import HFSet, SetEngine
from .oracle import (LevelSets, build_cumulative, build_levels,
                     partition_counts, partition_split, profile_counts,
                     verify_ark_lemma)
from .recurrence import (CountTable, a_sequence, c_sequence, compute_b_table,
                         compute_table)
from .refinements import (RefinedTable, compute_atoms_table, compute_d_table,
                          compute_r_table, d_profile, r_profile)
from .variants import HierarchySpec

__version__ = "0.1.0"
