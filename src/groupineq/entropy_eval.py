"""Entropy vectors induced by subgroup tuples, and exact inequality verdicts.

A tuple (G_1, .., G_n) of subgroups of G induces joint entropies
H(X_A) = log(|G| / |G_A|) with G_A the intersection of the G_i for i in A.
Because every entropy is a log of a rational number, any integer-coefficient
inequality can be decided by comparing two big-integer products; nothing
here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from .ineq_dsl import InequalitySpec
from .perm_core import Group, Subgroup

__all__ = [
    "EntropyVector",
    "ExactVerdict",
    "entropy_vector",
    "evaluate",
    "gi",
]

Subset = FrozenSet[int]


@dataclass(frozen=True)
class EntropyVector:
    """All subset intersection orders |G_A| for one subgroup tuple."""

    parent_order: int
    n: int
    subset_orders: Dict[Subset, int]

    def order(self, subset: Iterable[int]) -> int:
        return self.subset_orders[frozenset(subset)]

    def __repr__(self) -> str:
        singles = tuple(self.subset_orders[frozenset([i])] for i in range(1, self.n + 1))
        return f"EntropyVector(|G|={self.parent_order}, |G_i|={singles})"


@dataclass(frozen=True)
class ExactVerdict:
    """Outcome of one inequality on one entropy vector.

    lhs_product is the product of |G_A| over positive coefficients and
    rhs_product the product over negative ones, each side absorbing any
    leftover power of |G| so that the inequality holds exactly when
    lhs_product <= rhs_product. A violation is strict. ratio_num/ratio_den
    is lhs_product/rhs_product in lowest terms.
    """

    holds: bool
    lhs_product: int
    rhs_product: int
    ratio_num: int
    ratio_den: int

    @property
    def is_violation(self) -> bool:
        return not self.holds


def entropy_vector(g: Group, subgroups: Sequence[Subgroup]) -> EntropyVector:
    """Intersection orders of every nonempty subset of a subgroup tuple.

    Orders are computed incrementally: the mask of A ∪ {j} is one AND of
    the mask of A with the mask of position j, so each of the 2^n - 1
    subsets costs a single AND plus popcount. The subsets are listed by
    size, then lexicographically.
    """
    n = len(subgroups)
    if not 1 <= n <= 5:
        raise ValueError(f"tuple arity must be 1..5, got {n}")
    for pos, sub in enumerate(subgroups, start=1):
        if sub.parent is not g:
            raise ValueError(f"subgroup at position {pos} has a different parent group")
    masks: Dict[Subset, int] = {}
    orders: Dict[Subset, int] = {}
    for i, sub in enumerate(subgroups, start=1):
        key = frozenset([i])
        masks[key] = sub.mask
        orders[key] = sub.order
    for size in range(2, n + 1):
        for combo in combinations(range(1, n + 1), size):
            prefix = frozenset(combo[:-1])
            key = frozenset(combo)
            m = masks[prefix] & masks[frozenset([combo[-1]])]
            masks[key] = m
            orders[key] = m.bit_count()
    return EntropyVector(parent_order=g.order, n=n, subset_orders=orders)


def evaluate(spec: InequalitySpec, ev: EntropyVector) -> ExactVerdict:
    """Decide sum c_A * log(|G|/|G_A|) >= 0 by big-integer cross-multiplication.

    Substituting H(X_A) = log(|G|/|G_A|) and exponentiating turns the
    inequality into a comparison of two integer products of subgroup
    orders; a net power of |G| (when the coefficients do not cancel)
    lands on whichever side keeps both integral.
    """
    if spec.n_vars > ev.n:
        raise ValueError(
            f"inequality uses X{spec.n_vars} but the tuple has arity {ev.n}")
    lhs = 1
    rhs = 1
    balance = 0
    for subset, c in spec.coeffs.items():
        o = ev.subset_orders[subset]
        balance += c
        if c > 0:
            lhs *= o ** c
        else:
            rhs *= o ** (-c)
    if balance > 0:
        rhs *= ev.parent_order ** balance
    elif balance < 0:
        lhs *= ev.parent_order ** (-balance)
    common = gcd(lhs, rhs)
    return ExactVerdict(holds=lhs <= rhs, lhs_product=lhs, rhs_product=rhs,
                        ratio_num=lhs // common, ratio_den=rhs // common)


def gi(g: Group, a: Subgroup, b: Subgroup, c: Optional[Subgroup] = None) -> Fraction:
    """The conditional quantity |G_abc| |G_c| / (|G_ac| |G_bc|), exactly,
    as a positive Fraction in lowest terms.

    With c omitted (or the full group) this is the unconditional case
    |G_ab| |G| / (|G_a| |G_b|).
    """
    if c is None:
        c = g.full_subgroup()
    for name, sub in (("a", a), ("b", b), ("c", c)):
        if sub.parent is not g:
            raise ValueError(f"subgroup {name} has a different parent group")
    ac = (a.mask & c.mask).bit_count()
    bc = (b.mask & c.mask).bit_count()
    abc = (a.mask & b.mask & c.mask).bit_count()
    return Fraction(abc * c.order, ac * bc)
