"""Entropy vectors of finite groups and exact linear rank inequality checking.

Subgroup tuples of a finite group induce entropy vectors through the orders
of their intersections. This package evaluates linear information
inequalities on such vectors with exact big-integer arithmetic, and searches
groups for subgroup tuples that violate them, with theorem-derived pruning.
"""

from .perm_core import (
    Permutation,
    Group,
    Subgroup,
    SubgroupLattice,
    closure,
    all_subgroups,
    is_abelian,
    is_isomorphic,
)
from .ineq_dsl import InequalitySpec, parse, pretty_print, group_form, symmetry_group, builtin, BUILTIN_IDS
from .entropy_eval import EntropyVector, ExactVerdict, entropy_vector, evaluate, gi
from .catalog import GroupDef, CatalogIndex, cyclic, dihedral, symmetric, alternating, direct_product, semidirect_cyclic, load_catalog, realize
from .search_engine import SearchConfig, Witness, PruneReport, scan_group, order_class, check_simultaneous, survey

__version__ = "0.1.0"
