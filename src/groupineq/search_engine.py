"""Exhaustive scans over subgroup tuples, with theorem and symmetry pruning.

A scan enumerates all arity-4 or arity-5 tuples over a group's subgroup
lattice and evaluates the selected inequalities exactly. Four optional
prune rules cut the space:

  theory_common_info  skip tuples whose (G1, G2) pair makes the product
                      G1 G2 a subgroup, i.e. |G1||G2| = |G1∩G2|·|G1∨G2|;
                      (X1, X2) then has a common information and the ten
                      five-variable inequalities hold, so the rule only
                      arms when every selected inequality is one of the ten.
  order_class         group-level classification: all ten hold on abelian
                      groups and groups of order pq, and on p^2 q / p q^2
                      groups with normal Sylow q-subgroup they can only fail
                      when |G1| = |G2| = p, so positions 1 and 2 shrink to
                      the order-p subgroups. Armed under the same
                      all-selected-are-dfz condition.
  conjugacy           keep one tuple per simultaneous-conjugation orbit
                      (the lexicographically least); entropy vectors are
                      conjugation-invariant, so this is verdict-preserving
                      for every inequality. With C the stabilizer of the
                      chosen prefix, s survives at the next position when
                      no x in C has lower[x, s] (x Gs x^-1 precedes Gs),
                      and the longer prefix has stabilizer
                      {x in C : fixes[x, s]} (x normalizes Gs).
  ineq_symmetry       per inequality, count only tuples least in their
                      orbit under its variable symmetries; the rule
                      filters the tallies and saves no arithmetic.

An inequality Σ_A c_A·H(X_A) >= 0 with H(X_A) = log(|G|/|G_A|) (the
coefficients sum to 0) fails exactly when Σ_A c_A·log|G_A| > 0 and is
tight when that sum is 0. The scan computes the sum exactly with integer
logs: ℓ(o) = Σ_p v_p(o)·w_p over the primes p of |G|, where the weights
w_p are chosen per prime signature of |G| and largest inequality degree
and proved, in exact integer arithmetic, to give the sign of
∏_p p^x_p - 1 for every exponent vector x an inequality can produce
(_log_weights). The sums are narrow integers (int16 for S4 and S5, int8
for 2-groups) with a checked bound, so no float, no int64 product and no
Python-int fallback is on the verdict path, at any order the lattice cap
admits.

Every intersection of subgroups is itself a subgroup, so a subset's
intersection is a chain of lookups in the lattice's own meet table
(SubgroupLattice.meet, the lattice index of Gi ∩ Gj), and one meet-log
table holds ℓ(|Gi ∩ Gj|). Positions are counted from 1, as in G1..Gn.
Positions 1 to n-3 of a tuple are its prefix; the last three, n-2 (C),
n-1 (D) and n (E), are evaluated together in (rows, D, E) numpy blocks,
D = E the whole lattice. The plan holds every prefix in lexicographic
order with its chosen indices, meets, stabilizer movers and rows, its
surviving position n-2 subgroups, so a block is a slice of at most
_BLOCK_CELLS cells of one task's rows, which bounds the scan's memory (a
D x E slice above that is a block alone). A block gathers each subset's
logs once, over only the block axes it contains: the terms without C
per prefix at (D, E), those with C but not on both D and E per row at D
or at E, each group summed for every inequality at once by one product
with their coefficients, and the terms on all three axes at the full
block. An inequality's value is then one add chain: its per-prefix sum
taken to its prefixes' rows, then each other part added in place, a
term on all three axes |c| times (subtracted when c < 0). Every partial
sum is a sub-sum of one inequality's signed terms, so it stays within
the table's bound.
The conjugacy rule kills a (c, d, e) cell when some element x of its
prefix's stabilizer normalizes Gc and moves Gd lower, or normalizes Gd
too and moves Ge lower: each such mover kills the same (D, E) cells in
every row whose C it normalizes, so the live-cell mask costs one pass
per mover of the block, and a block with none skips it.

An inequality with variable symmetries counts a tight or violating cell
only if no symmetry's image is lexicographically smaller, tested with a
canon mask over the block that it builds only when the block has such a
cell. The mask compares lattice indices lexicographically, in broadcast
comparisons of the rows' subgroups and the D and E axes, so it has no
limit on the lattice's size. When the symmetries are the full products
of the symmetric groups on some blocks of positions (ingleton, dfz1,
dfz8 and dfz9), that is the tuple ascending along each block; otherwise
each symmetry is one chain of comparisons (dfz2, dfz6). A cell is
evaluated when some inequality keeps it, so every live cell is once one
selected inequality has no symmetry (dfz3, dfz4, dfz5, dfz7 and dfz10,
or any without the ineq_symmetry rule); when every one has symmetries
(ingleton alone, say), each block builds their canon masks up front and
counts their union.

A scan runs in three steps: plan (lattice, order class, which refuses a
lattice of another group, scan state), run, finish (sum the tallies,
rebuild and sort the witnesses, check the prune accounting). scan_group
does them for one group; survey plans every group first, runs all of
their tasks, then finishes each. One function, _cut, cuts each of
positions 1 to n-2 once per plan, for all of the group's prefixes of
that length at once, each under its stabilizer, and charges the cuts to
the plan's tally, so no task starts only to be pruned. A task is the
rows of one position 1 subgroup, the least of its conjugacy class when
the conjugacy rule is on, and a subgroup with no rows makes none.
Position 2's survivors times m**(n-2) bound a plan's block cells. The
tasks run inline at jobs 1, and at jobs >= 2 too unless the bounds of
all the run's tasks sum to at least _POOL_CELLS: below that, a fork
pool's start-up and result round trips cost more than a second worker
saves. When a pool does start, it is one fork pool for the whole run,
started after every group's state is built; the workers inherit the
states through fork, and the pool hands out tasks as workers free up.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import CatalogIndex
from .entropy_eval import EntropyVector, entropy_vector, evaluate
from .ineq_dsl import DFZ_IDS, InequalitySpec, builtin, resolve_ids, symmetry_group
from .perm_core import (Group, Subgroup, SubgroupLattice, all_subgroups, int_valuation,
                        is_abelian, prime_factors)

__all__ = [
    "PRUNE_RULES",
    "SearchConfig",
    "Witness",
    "PruneReport",
    "OrderClass",
    "SurveyEntry",
    "scan_group",
    "order_class",
    "check_simultaneous",
    "survey",
]

PRUNE_RULES = ("theory_common_info", "order_class", "conjugacy", "ineq_symmetry")


@dataclass(frozen=True)
class SearchConfig:
    """What to scan: inequalities, prune rules, parallelism, output cap.

    tuple_arity is derived, not set: the largest variable index of the
    selected inequalities.
    """

    inequality_ids: Tuple[str, ...]
    prune_flags: FrozenSet[str] = frozenset(PRUNE_RULES)
    worker_count: int = 1
    emit_limit: Optional[int] = None
    tuple_arity: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.inequality_ids:
            raise ValueError("at least one inequality id is required")
        if len(set(self.inequality_ids)) != len(self.inequality_ids):
            raise ValueError(
                f"repeated inequality ids: {', '.join(self.inequality_ids)}")
        object.__setattr__(self, "tuple_arity",
                           max(builtin(i).n_vars for i in self.inequality_ids))
        unknown = set(self.prune_flags) - set(PRUNE_RULES)
        if unknown:
            raise ValueError(f"unknown prune flags: {', '.join(sorted(unknown))}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if self.emit_limit is not None and self.emit_limit < 0:
            raise ValueError(f"emit_limit must be >= 0, got {self.emit_limit}")

    @staticmethod
    def make(ineqs: Sequence[str] | str = "all", prune: Sequence[str] | str = "all",
             jobs: int = 1, emit_limit: Optional[int] = None) -> "SearchConfig":
        ids = resolve_ids(ineqs)
        if isinstance(prune, str):
            if prune == "all":
                flags = frozenset(PRUNE_RULES)
            elif prune == "none":
                flags = frozenset()
            else:
                flags = frozenset(s.strip() for s in prune.split(",") if s.strip())
                if not flags:
                    raise ValueError(f"no prune rules selected by {prune!r}; "
                                     "use all, none or a comma list of rules")
        else:
            flags = frozenset(prune)
        return SearchConfig(inequality_ids=ids, prune_flags=flags,
                            worker_count=jobs, emit_limit=emit_limit)


@dataclass(frozen=True)
class Witness:
    """A reproducible violation record; masks are the subgroup bitsets."""

    group_name: str
    subgroup_generators: Tuple[Tuple[str, ...], ...]
    inequality_id: str
    lhs_product: int
    rhs_product: int
    subset_orders: EntropyVector
    masks: Tuple[int, ...]

    def sort_key(self) -> Tuple[str, Tuple[int, ...]]:
        return (self.inequality_id, self.masks)


@dataclass
class PruneReport:
    """Where every tuple of the scan space went.

    tuples_total = sum of tuples_pruned_by_rule values + tuples_evaluated.
    A tuple counts as evaluated if at least one selected inequality was
    evaluated on it; violations_found and equality_cases count
    (tuple, inequality) pairs, before any emit_limit truncation.

    wall_time from scan_group is the call's elapsed seconds. On a survey
    entry it is the group's own set-up and finish seconds plus the seconds
    its scan tasks took: when the tasks run inline that is what scan_group
    would report, and when a pool runs them it sums work done in parallel,
    so entries can add up to more than the survey's elapsed time.
    """

    tuples_total: int
    tuples_pruned_by_rule: Dict[str, int]
    tuples_evaluated: int
    violations_found: int
    equality_cases: int
    wall_time: float

    def check_invariant(self) -> None:
        split = sum(self.tuples_pruned_by_rule.values()) + self.tuples_evaluated
        if split != self.tuples_total:
            raise AssertionError(
                f"prune accounting broken: {self.tuples_total} total vs "
                f"{split} pruned+evaluated")


@dataclass(frozen=True)
class OrderClass:
    """Which of the order-based theorems applies to a group."""

    kind: str  # abelian | pq_safe | p2q_normal_sylow_q | pq2_normal_sylow_q | unconstrained
    p: Optional[int] = None
    q: Optional[int] = None

    @property
    def skips_group(self) -> bool:
        return self.kind in ("abelian", "pq_safe")

    @property
    def pair_order(self) -> Optional[int]:
        """Positions 1 and 2 may be restricted to subgroups of this order."""
        if self.kind in ("p2q_normal_sylow_q", "pq2_normal_sylow_q"):
            return self.p
        return None


@dataclass(frozen=True)
class SurveyEntry:
    group_name: str
    order: int
    witness_count: int
    violated_ids: Tuple[str, ...]
    report: Optional[PruneReport]
    error: Optional[str] = None


def order_class(g: Group, lattice: Optional[SubgroupLattice] = None) -> OrderClass:
    """Classify |G| against the order-based theorems.

    Order pq (distinct primes) wins over the abelian label because it
    needs no further inspection; abelian comes next; then the two
    squared-prime shapes, which also need the right Sylow subgroup to be
    normal (equivalently unique). A lattice of another group is refused.
    """
    if lattice is not None and lattice.group is not g:
        raise ValueError(f"the subgroup lattice of {lattice.group.name} is not one of "
                         f"{g.name}: it was built from another group object")
    factors = prime_factors(g.order)
    exps = sorted(factors.values())
    if len(factors) == 2 and exps == [1, 1]:
        p, q = sorted(factors)
        return OrderClass("pq_safe", p=p, q=q)
    if is_abelian(g):
        return OrderClass("abelian")
    if len(factors) == 2 and exps == [1, 2]:
        squared = next(p for p, e in factors.items() if e == 2)
        plain = next(p for p, e in factors.items() if e == 1)
        sylow = (lattice if lattice is not None else all_subgroups(g)).sylow_index
        if len(sylow[plain]) == 1:
            return OrderClass("p2q_normal_sylow_q", p=squared, q=plain)
        if len(sylow[squared]) == 1:
            return OrderClass("pq2_normal_sylow_q", p=plain, q=squared)
    return OrderClass("unconstrained")


# ---------------------------------------------------------------------------
# Scan internals

@dataclass(frozen=True)
class _SpecPlan:
    """One inequality compiled for block evaluation at a fixed arity."""

    spec_id: str
    # the signed terms (position bitmask, coefficient) of Σ_A c_A·ℓ(|G_A|)
    # in six groups by the block axes they hold (see _compile_spec)
    groups: Tuple[Tuple[Tuple[int, int], ...], ...]
    degree: int   # positive coefficients' sum: each side is at most |G|**degree
    # each symmetry as source indices: coordinate j of the permuted tuple
    # is coordinate src[j] of the original (identity omitted)
    sym_sources: Tuple[Tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _compile_spec(spec: InequalitySpec, arity: int) -> _SpecPlan:
    # cached: a survey's scans share one compiled plan per inequality
    # builtins are sums of mutual informations, so both sides carry the
    # same number of H() terms and no power of |G| is left over
    assert sum(spec.coeffs.values()) == 0, spec.id
    # A term broadcasts over the block axes (C, D, E) among its positions,
    # and the signed terms of both sides fall in six groups by those axes.
    # Without C a term is the same for every row of one prefix: those with
    # neither D nor E or with D alone, with E alone, and with D and E, so a
    # block sums each group at (prefixes, D), (prefixes, E) or (prefixes,
    # D, E). With C: those without E, those with E but not D, and last
    # those on all three axes, which a block gathers together at its full
    # (rows, D, E) shape.
    groups: List[List[Tuple[int, int]]] = [[] for _ in range(6)]
    for subset, c in sorted(spec.coeffs.items(),
                            key=lambda kv: (sum(i > arity - 3 for i in kv[0]),
                                            sorted(kv[0]))):
        on_c, on_d, on_e = (i in subset for i in range(arity - 2, arity + 1))
        group = (5 if on_d and on_e else 4 if on_e else 3) if on_c else \
            (2 if on_d else 1) if on_e else 0
        groups[group].append((sum(1 << (i - 1) for i in subset), c))
    sources = []
    for perm in symmetry_group(spec):
        ext = tuple(perm) + tuple(range(len(perm) + 1, arity + 1))
        src = tuple(ext.index(j + 1) for j in range(arity))
        if src != tuple(range(arity)):
            sources.append(src)
    return _SpecPlan(spec_id=spec.id, groups=tuple(tuple(g) for g in groups),
                     degree=sum(c for c in spec.coeffs.values() if c > 0),
                     sym_sources=tuple(sources))


def _signs_agree(signature: Tuple[Tuple[int, int], ...], degree: int,
                 weights: Tuple[int, ...]) -> bool:
    """Whether sign(Σ_p x_p·w_p) = sign(∏_p p^x_p - 1) for every integer
    vector x with |x_p| <= e_p·degree, (p, e_p) running over `signature`.

    Exact and complete, in integer arithmetic. x -> -x maps the box onto
    itself and flips both signs, so it is enough that the weighted sum is
    zero only at the origin (where ∏ p^x_p = 1) and that the product is
    below 1 wherever the sum is negative. One prime q (the one with the
    most exponent values) is the free axis and the others fix a row y.
    Along a row both the sum and the product grow with x_q, so the second
    check needs only the largest x_q whose sum is negative.
    """
    if not signature:
        return True
    if min(weights) <= 0:
        return False
    axis = max(range(len(signature)), key=lambda k: signature[k][1])
    (q, e), w = signature[axis], weights[axis]
    top = e * degree
    rest = [pe for k, pe in enumerate(signature) if k != axis]
    rest_w = [v for k, v in enumerate(weights) if k != axis]
    for y in itertools.product(*(range(-f * degree, f * degree + 1) for _, f in rest)):
        # the row's product as num/den, and x_q·w + part its weighted sum
        num = math.prod(p ** v for (p, _), v in zip(rest, y) if v > 0)
        den = math.prod(p ** -v for (p, _), v in zip(rest, y) if v < 0)
        part = sum(v * u for v, u in zip(y, rest_w))
        cut, r = divmod(-part, w)
        if r == 0 and -top <= cut <= top and any(y):
            return False   # a weighted zero off the origin
        x = min(cut - (r == 0), top)   # the largest x_q with a negative sum
        if x >= -top and (q ** x * num >= den if x >= 0 else num >= q ** -x * den):
            return False
    return True


# _log_weights gives up after this many proposals. At degree 9, the most
# any order up to LATTICE_ORDER_CAP needs is k = 2,027 (order 630), so a
# search that runs out has met a fault in the proof, not a hard order
_LOG_WEIGHT_PROPOSALS = 4096


@functools.lru_cache(maxsize=None)
def _log_weights(signature: Tuple[Tuple[int, int], ...], degree: int) -> Tuple[int, ...]:
    """Integer log weights w_p for a group order with prime signature
    `signature` ((p, e_p) pairs), exact for inequalities of degree at most
    `degree`.

    An inequality's sum Σ_A c_A·ℓ(|G_A|) is Σ_p x_p·w_p with
    x_p = Σ_A c_A·v_p(|G_A|), and lhs/rhs = ∏_p p^x_p. Each side's
    exponents sum to at most `degree` and v_p(|G_A|) <= e_p, so
    |x_p| <= e_p·degree. The proposal is w_p = round(k·log2 p), computed
    exactly as the bit length of p^2k halved, over their gcd, for
    k = 1, 2, 3, ...; the first that _signs_agree proves on that box is
    returned, so the weights (and the log table) are about as small as
    the box allows. Some k proves: an error of at most 1/2 per unit of x_p
    is outgrown by k times the least nonzero |Σ_p x_p·log2 p| on the box.
    Past _LOG_WEIGHT_PROPOSALS proposals it raises ValueError instead.
    """
    for k in range(1, _LOG_WEIGHT_PROPOSALS + 1):
        weights = [(p ** (2 * k)).bit_length() // 2 for p, _ in signature]
        common = math.gcd(*weights) or 1
        weights = tuple(w // common for w in weights)
        if _signs_agree(signature, degree, weights):
            return weights
    raise ValueError(f"no log weights proved for prime signature {signature} at "
                     f"degree {degree} in {_LOG_WEIGHT_PROPOSALS} proposals")


@functools.lru_cache(maxsize=None)
def _product_blocks(key: Tuple[Tuple[int, ...], ...], restricted: bool
                    ) -> Optional[List[List[int]]]:
    """The position blocks B (each sorted, two or more positions) when the
    symmetries in `key` with the identity are exactly the product of the
    symmetric groups on them; None when they are not, and under order_class
    (`restricted`) when a block mixes positions 1 or 2 with later ones.

    A tuple is least in its orbit under such a group exactly when it
    ascends (not strictly) along each block: a descent at two positions of
    one block is undone by the transposition of them, which makes the
    tuple smaller, and the tuple sorted along each block is the least
    arrangement. Under order_class an image must also lie in the scan
    space, which a block within positions 1 and 2, or within the later
    ones, guarantees.
    """
    # key with the identity is a group, so a position's orbit is its images
    orbits = {frozenset({j, *(src[j] for src in key)}) for j in range(len(key[0]))}
    blocks = sorted(sorted(o) for o in orbits if len(o) > 1)
    if len(key) + 1 != math.prod(math.factorial(len(b)) for b in blocks):
        return None
    if restricted and any(b[0] < 2 <= b[-1] for b in blocks):
        return None
    return blocks


class _Canon:
    """The ineq_symmetry canon test of one set of variable symmetries (a
    plan's sym_sources) over (rows, D, E) blocks: mask() is True at the
    cells that no symmetry maps to a lexicographically smaller tuple.

    The test is a list of chains of position pairs; a chain keeps a cell
    when (t_a1, t_a2, ...) <= (t_b1, t_b2, ...) lexicographically, and a
    cell is canonical when every chain keeps it. When the symmetries form
    a product of symmetric groups on position blocks (_product_blocks),
    each chain is one ascent t_a <= t_b, a and b adjacent in a block.
    Otherwise each symmetry is one chain: it maps t to t' with
    t'_j = t_src[j], and t <= t' compares t_j with t_src[j] over the
    positions j it moves, in order. A swap of i < j needs no pair at j: the
    chain reaches j only when t_i = t_j.

    Under order_class an image must also be in the scan space: the
    subgroups a symmetry moves to positions 1 and 2 need the restricted
    order, so its chain also keeps the cells where one of them does not
    have it.
    """

    def __init__(self, key: Tuple[Tuple[int, ...], ...], m: int,
                 restricted: Optional[np.ndarray]) -> None:
        blocks = _product_blocks(key, restricted is not None)
        # each chain as (pairs, positions whose subgroups its image moves
        # to positions 1 or 2 from later ones)
        if blocks is not None:
            self.chains = [([(a, b)], []) for blk in blocks for a, b in zip(blk, blk[1:])]
        else:
            self.chains = [([(j, i) for j, i in enumerate(src)
                             if i != j and not (i < j and src[i] == j)],
                            [i for i in src[:2] if i > 1 and restricted is not None])
                           for src in key]
        self.restricted = restricted
        idx = np.arange(m)
        self.axes = (idx[:, None], idx)

    def mask(self, chosen: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Canonical cells of the block whose rows hold prefixes `chosen`
        ((rows, n-3) lattice indices) and position n-2 subgroups `c`; a
        bool array that broadcasts to (rows, m, m)."""
        # each position's lattice indices, broadcast over the block
        at = [*(x[:, None, None] for x in chosen.T), c[:, None, None], *self.axes]
        masks = []
        for pairs, outside in self.chains:
            (a, b), *rest = pairs[::-1]
            keep = at[a] <= at[b]
            for a, b in rest:
                keep = (at[a] < at[b]) | ((at[a] == at[b]) & keep)
            for i in outside:
                keep = keep | ~self.restricted[at[i]]
            masks.append(keep)
        return functools.reduce(operator.and_, masks)


@functools.lru_cache(maxsize=None)
def _layout(plans: Tuple[_SpecPlan, ...], n: int) -> list:
    """Where a block finds the logs of the plans' terms (cached: a
    survey's scans share it).

    Returns per term group (on_g, column, own): the group's distinct
    terms by position mask, each gathering row on_g[t]·m + x of
    log_rows, x the lattice index in column[t] of the block's `at`. For
    pm = low | hi << (n-3) that column is low, the prefix meet, or
    width + low, that meet with C; on_g[t] is True, for the G rows, when
    the term is on neither D nor E. In the first five groups own is
    (pick, has): pick[p, t] is plan p's coefficient of term t (0 when it
    lacks it), so that one product forms every plan's Σ c·ℓ, and has[p]
    is whether plan p holds any (in group 3, 2 when one of them is on D).
    In the last group own[p] is (add, sub), the terms plan p adds and
    those it subtracts, each listed |c| times.
    """
    width = 1 << (n - 3)
    groups = []
    for j in range(6):
        terms = list(dict.fromkeys(pm for p in plans for pm, _ in p.groups[j]))
        hi, low = np.divmod(np.array(terms, dtype=np.intp), width)
        if j < 5:
            own = (np.array([[dict(p.groups[j]).get(t, 0) for t in terms] for p in plans],
                            dtype=np.int8),
                   [bool(p.groups[j]) + any(pm >> (n - 2) & 1 for pm, _ in p.groups[j])
                    * (j == 3) for p in plans])
        else:
            own = [([terms.index(pm) for pm, c in p.groups[j] for _ in range(c)],
                    [terms.index(pm) for pm, c in p.groups[j] for _ in range(-c)])
                   for p in plans]
        groups.append(((hi & 6) == 0, low + width * (hi & 1), own))
    return groups


class _ScanState:
    """Everything a worker needs to scan one group.

    Built in the parent by _plan; a survey builds every scanned group's
    state before its one fork, so the pool's workers inherit them all.

    `restricted_order` is the subgroup order positions 1 and 2 shrink to
    under order_class (None when that rule is off or does not apply).
    `log_rows` is the one (2m, m) meet-log table that blocks gather from:
    row i holds ℓ(|Gi ∩ Gj|) at column j, and row m + i, a G row for the
    terms on neither D nor E, holds ℓ(|Gi|) at every column.
    """

    def __init__(self, g: Group, lattice: SubgroupLattice, cfg: SearchConfig,
                 restricted_order: Optional[int], tally: Dict[str, int]) -> None:
        self.group = g
        self.n = n = cfg.tuple_arity
        self.plans = [_compile_spec(builtin(i), n) for i in cfg.inequality_ids]
        # per plan, the variable symmetries ineq_symmetry quotients by
        self.sym_keys = [p.sym_sources if "ineq_symmetry" in cfg.prune_flags else ()
                         for p in self.plans]
        m = len(lattice)
        # meet[i, j]: lattice index of Gi ∩ Gj; the last subgroup is G itself
        self.meet = lattice.meet
        self.orders = np.array([s.order for s in lattice.subgroups], dtype=np.int64)
        # Every partial sum a block forms is a sub-sum of one plan's terms:
        # its positive terms add to at most degree·ℓ(|G|) and its negative
        # ones to at least -degree·ℓ(|G|), so the meet-log table takes the
        # narrowest signed type that holds ±degree·ℓ(|G|)
        degree = max(p.degree for p in self.plans)
        signature = tuple(sorted(prime_factors(g.order).items()))
        weights = _log_weights(signature, degree)

        def ell(order: int) -> int:
            return sum(int_valuation(order, p) * w for (p, _), w in zip(signature, weights))

        dtype = np.min_scalar_type(-degree * ell(g.order) - 1)
        if dtype.kind != "i":
            raise ValueError(f"integer logs of order {g.order} at degree {degree} "
                             "do not fit in 64 bits")
        ells = np.array([ell(s.order) for s in lattice.subgroups], dtype=dtype)
        table = ells[self.meet]
        self.log_rows = np.concatenate((table, np.repeat(table[:, -1:], m, axis=1)))
        # per term group: first rows, columns and each plan's terms (_layout)
        self.groups = [(on_g * m, column, own if j == 5 else (own[0].astype(dtype), own[1]))
                       for j, (on_g, column, own) in enumerate(_layout(tuple(self.plans), n))]
        # lower[x, s]: x Gs x^-1 precedes Gs; fixes[x, s]: x normalizes Gs.
        # Rows are the elements the scan quotients by; with conjugacy off
        # that is the identity alone, which prunes nothing.
        if "conjugacy" in cfg.prune_flags:
            table = lattice.conjugation_table()
            own = np.arange(m)
            self.lower, self.fixes = table < own, table == own
        else:
            self.lower = np.zeros((1, m), dtype=bool)
            self.fixes = ~self.lower
        full = np.arange(m, dtype=np.int64)
        self.domains = [full] * n
        restricted = None
        if restricted_order is not None:
            restricted = self.orders == restricted_order
            self.domains[:2] = [np.nonzero(restricted)[0]] * 2
        self.sizes = [len(d) for d in self.domains]
        self.tails = [math.prod(self.sizes[d + 1:]) for d in range(n)]
        self.pair_prunable = (_pair_prunable_matrix(self.meet, self.orders)
                              if _theory_armed(cfg, "theory_common_info") else None)
        self.canons = {key: _Canon(key, m, restricted) for key in set(self.sym_keys) if key}
        # whether every plan has symmetries, so that blocks build canon masks
        self.canon_masks = all(self.sym_keys)
        # Positions 1 to n-2 are cut in turn, each for every prefix at once
        # under its stabilizer (a column of stabs, all of G for the empty
        # prefix); a prefix extended by Gs keeps the elements that normalize
        # Gs. Position 2's survivors times m**(n-2) bound the block cells
        chosen = np.zeros((1, 0), dtype=np.intp)
        meets = np.full((1, 1), m - 1, dtype=np.intp)
        stabs = np.ones((len(self.lower), 1), dtype=bool)
        for depth in range(n - 2):
            dom = self.domains[depth]
            paired = (self.pair_prunable[chosen[:, :1], dom]
                      if depth == 1 and self.pair_prunable is not None else np.False_)
            keep = _cut(self, depth, stabs, tally, paired)
            if depth == 1:
                self.cells = self.tails[1] * int(np.count_nonzero(keep))
            if depth == n - 3:
                break
            k, s = np.nonzero(keep)
            s = dom[s]
            chosen = np.column_stack((chosen[k], s))
            meets = np.concatenate((meets[k], self.meet[meets[k], s[:, None]]), axis=1)
            stabs = stabs[:, k] & self.fixes[:, s]
        # per prefix, in lexicographic order: its subgroups, its meets ([pm]:
        # the meet of those at the positions in bitmask pm), its movers (the
        # elements of its stabilizer that move some subgroup lower, the only
        # ones that prune) and its block rows, the position n-2 subgroups it
        # keeps: one byte a candidate row, so a task makes its rows' indices
        self.chosen, self.prefix_meets, self.keep = chosen, meets, keep
        self.movers = (stabs & self.lower.any(axis=1)[:, None]).T
        # a task is the prefix range of one position 1 subgroup with rows
        starts = np.flatnonzero(np.diff(chosen[:, 0], prepend=-1)).tolist()
        self.tasks = [(a, b) for a, b in zip(starts, starts[1:] + [len(chosen)])
                      if keep[a:b].any()]


def _pair_prunable_matrix(meet: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """[i, j] is True when the product set Gi Gj is a subgroup.

    Gi Gj has |Gi||Gj| / |Gi ∩ Gj| elements and lies inside the join
    Gi ∨ Gj, so it is a subgroup exactly when |Gi||Gj| = |Gi ∩ Gj|·|Gi ∨ Gj|.
    The join is the first subgroup of the (order, mask)-sorted lattice
    that contains both, found for a band of rows i at a time, so that the
    (rows, m, m) containment products stay near 2**20 cells. The ten
    five-variable inequalities hold on every tuple with such a (G1, G2)
    pair, whatever occupies the other positions.
    """
    m = len(orders)
    # contains[j, k]: Gj is a subgroup of Gk
    contains = meet == np.arange(m)[:, None]
    step = max(1, (1 << 20) // (m * m))
    join = np.concatenate([np.argmax(contains[i:i + step, None] & contains, axis=2)
                           for i in range(0, m, step)])
    return orders[:, None] * orders == orders[meet] * orders[join]


_TALLY_KEYS = PRUNE_RULES + ("evaluated", "violations", "equalities")


def _cut(st: _ScanState, depth: int, stabs: np.ndarray, tally: Dict[str, int],
         paired: np.ndarray | np.bool_) -> np.ndarray:
    """The position depth+1 subgroups each of a batch of prefixes keeps, a
    (prefixes, st.domains[depth]) bool mask. Column k of `stabs` marks the
    rows of st.lower in prefix k's stabilizer: the conjugacy rule cuts s
    when one of them moves Gs lower, [k, s] of stabsᵀ @ lower, and at
    position 2 the pair rule first cuts s where `paired` is True. The cuts
    are charged to `tally` by rule."""
    moved = stabs.T @ st.lower[:, st.domains[depth]] & ~paired
    tally["theory_common_info"] += int(np.count_nonzero(paired)) * st.tails[depth]
    tally["conjugacy"] += int(np.count_nonzero(moved)) * st.tails[depth]
    return ~(moved | paired)


# most cells in one (rows, D, E) block. numpy's cost per call, not
# arithmetic, bounds the kernel, so larger blocks run faster until their
# arrays outgrow the CPU's cache: on a 2-vCPU box with a 2 MB L2 cache,
# 2**16 cells beat 2**15 and 2**17 on S4 dfz. There a block holds up to
# 72 x 30 x 30 cells, at about 16 bytes a cell at its peak: the terms on
# all three block axes (three for dfz) and the running sum, all int16 for
# S4 and S5 (int8 for 2-groups), the live-cell mask and the bool masks,
# near 1.05 MB in all.
_BLOCK_CELLS = 1 << 16


def _scan_task(st: _ScanState, i: int) -> Tuple[List[tuple], Dict[str, int]]:
    """Evaluate task i of st in blocks of at most _BLOCK_CELLS cells (one
    row when a D x E slice alone is larger). Returns raw violation cells
    (spec_id, index tuple) and the tally of the blocks: tuples pruned by
    rule, tuples evaluated, (tuple, inequality) violations and equalities."""
    tally = dict.fromkeys(_TALLY_KEYS, 0)
    cells: List[tuple] = []
    lo, hi = st.tasks[i]
    pre, c = np.nonzero(st.keep[lo:hi])
    pre, dom_c = pre + lo, st.domains[st.n - 3][c]
    budget = max(1, _BLOCK_CELLS // len(st.orders) ** 2)
    for r in range(0, len(pre), budget):
        _evaluate_block(st, pre[r:r + budget], dom_c[r:r + budget], tally, cells)
    return cells, tally


def _conjugacy_alive(st: _ScanState, pre: np.ndarray, dom_c: np.ndarray
                     ) -> Optional[np.ndarray]:
    """The (rows, D, E) cells of a block that the conjugacy rule keeps, or
    None when no row's stabilizer holds an element that moves some
    subgroup lower, so that it keeps them all (rows as in _evaluate_block).

    (c, d) dies when some x in its prefix's stabilizer normalizes Gc and
    moves Gd lower; (c, d, e) when some x normalizes Gc and Gd and moves
    Ge lower. A mover x so kills the same (D, E) cells, lower[x, d] or
    fixes[x, d] and lower[x, e], in every row of a prefix it belongs to
    whose Gc it normalizes: one pass per distinct mover of the block,
    whose cost follows the block's few movers, not its rows.
    """
    member = st.movers[pre]
    xs = np.flatnonzero(member.any(axis=0)).tolist()
    if not xs:
        return None
    alive = np.ones((len(dom_c), len(st.orders), len(st.orders)), dtype=bool)
    for x in xs:
        rows = member[:, x] & st.fixes[x, dom_c]
        if rows.any():
            lower = st.lower[x]
            alive[rows] &= ~(lower[:, None] | (st.fixes[x][:, None] & lower))
    return alive


def _evaluate_block(st: _ScanState, pre: np.ndarray, dom_c: np.ndarray,
                    tally: Dict[str, int], cells: List[tuple]) -> None:
    """Vectorized evaluation over the last three tuple positions of one
    (rows, D, E) block; its arrays die on return.

    Row r is position n-2 subgroup dom_c[r] after prefix pre[r], and the
    prefixes ascend. Positions n-1 and n range over the whole lattice
    (order_class only restricts positions 1 and 2), so D = E = m.
    """
    m = len(st.orders)
    # the block's prefixes are consecutive; seg[r] is row r's among them
    seg = pre - pre[0]
    chosen = st.chosen[pre]
    prefixes = st.prefix_meets[pre[0]:pre[-1] + 1]
    size = len(dom_c) * m * m

    alive, alive_n = _conjugacy_alive(st, pre, dom_c), size
    if alive is not None:
        alive_n = int(np.count_nonzero(alive))
        tally["conjugacy"] += size - alive_n
        if not alive_n:
            return
        if alive_n == size:
            alive = None

    # the logs c·ℓ(|G_A|) of the plans' distinct terms, one row gather per
    # term group (see _layout). A term's row is indexed by the intersection
    # of the subgroups it holds off the axes it spans: a prefix meet, or
    # one met with C (a column of `at`); the terms without C are gathered
    # per prefix
    meets = st.prefix_meets[pre]
    at = np.concatenate((meets, st.meet[meets, dom_c[:, None]]), axis=1)
    (pd_row, pd_col, pd_own), (pe_row, pe_col, pe_own), (pde_row, pde_col, pde_own), \
        (rd_row, rd_col, rd_own), (re_row, re_col, re_own), (full_row, full_col, full_own) \
        = st.groups
    # per plan, the sum of its terms without C at (prefixes, D, E), and
    # those with C but not on both D and E at (rows, D) and (rows, E);
    # np.take gathers whole rows several times faster than indexing
    def logs(index: np.ndarray) -> np.ndarray:
        return np.take(st.log_rows, index, axis=0)

    per_prefix = (_pick_sums(pd_own[0], logs(pd_row[:, None] + prefixes[:, pd_col].T))
                  [:, :, :, None]
                  + _pick_sums(pe_own[0], logs(pe_row[:, None] + prefixes[:, pe_col].T))
                  [:, :, None, :]
                  + _pick_sums(pde_own[0], logs(pde_row[:, None, None]
                                                + st.meet[prefixes[:, pde_col].T])))
    rd_sums = _pick_sums(rd_own[0], logs(rd_row[:, None] + at[:, rd_col].T))
    re_sums = _pick_sums(re_own[0], logs(re_row[:, None] + at[:, re_col].T))
    # each term on all three axes at (rows, D, E)
    full = logs(full_row[:, None, None] + st.meet[at[:, full_col].T])

    # ineq_symmetry. Each plan with symmetries counts only those of its
    # tight and violating cells that no symmetry maps lower. A cell is
    # evaluated when some plan keeps it: every alive cell once some plan
    # has no symmetry, else the live part of the union of the plans'
    # canon masks
    masks: Dict[tuple, np.ndarray] = {}

    def canon(key: tuple) -> Optional[np.ndarray]:
        # the cells a plan with symmetries `key` counts, None for all;
        # each mask is built once per block, on first use
        if key and key not in masks:
            masks[key] = st.canons[key].mask(chosen, dom_c)
        return masks.get(key)

    evaluated_n = alive_n
    if st.canon_masks:
        union = functools.reduce(operator.or_, map(canon, set(st.sym_keys)))
        evaluated_n = _count(union if alive is None else union & alive, size)
    tally["evaluated"] += evaluated_n
    tally["ineq_symmetry"] += alive_n - evaluated_n

    for p, plan in enumerate(st.plans):
        # Σ_A c_A·ℓ(|G_A|) over the block; > 0 is a violation and 0 an
        # equality. Violations are rare, so one max rules most blocks
        # out, and a block with no cell at 0 or above needs no tally at all.
        # The value goes before the masks apply, which keeps the peak low
        value = _plan_value(*full_own[p], full, rd_sums[p], rd_own[1][p], re_sums[p],
                            re_own[1][p], per_prefix[p], seg)
        top = value.max()
        if top < 0:
            continue
        tight = value == 0
        found = value > 0 if top > 0 else None
        del value
        for keep in (alive, canon(st.sym_keys[p])):
            if keep is not None:
                tight &= keep
                if found is not None:
                    found &= keep
        tally["equalities"] += _count(tight, size)
        if found is not None:
            r, d, e = np.nonzero(found)
            tally["violations"] += len(r)
            for head, cde in zip(chosen[r].tolist(),
                                zip(dom_c[r].tolist(), d.tolist(), e.tolist())):
                cells.append((plan.spec_id, (*head, *cde)))


def _plan_value(add: List[int], sub: List[int], full: np.ndarray, rd: np.ndarray,
                rd_has: int, re: np.ndarray, re_has: bool, per_prefix: np.ndarray,
                seg: np.ndarray) -> np.ndarray:
    """A plan's sum over a (rows, D, E) block, a new array of that shape:
    per_prefix, its Σ c·ℓ over its terms without C at (prefixes, D, E),
    taken to each prefix's rows (seg), plus its terms on all three axes,
    full[k] added for k in `add` and subtracted for k in `sub`, and its
    sums over its other terms with C, rd at (rows, D) (at (rows,) alone
    when none of them is on D, rd_has 1) and re at (rows, E), each applied
    in place."""
    value = np.take(per_prefix, seg, axis=0)
    for k in add:
        value += full[k]
    for k in sub:
        value -= full[k]
    if rd_has:
        value += rd[:, :, None] if rd_has > 1 else rd[:, :1, None]
    if re_has:
        value += re[:, None, :]
    return value


def _pick_sums(pick: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Row p is Σ_t pick[p, t]·logs[t], in the logs' integer type."""
    shape = logs.shape[1:]
    return np.einsum("pt,tn->pn", pick, logs.reshape(len(logs), math.prod(shape))
                     ).reshape(len(pick), *shape)


def _count(mask: np.ndarray, size: int) -> int:
    """The True cells of a mask that broadcasts to a block of `size` cells."""
    return int(np.count_nonzero(mask)) * (size // mask.size)


def _theory_armed(cfg: SearchConfig, rule: str) -> bool:
    """Whether a theorem-derived rule is on: selected, and every selected
    inequality is one of the ten five-variable ones it is proved for."""
    return rule in cfg.prune_flags and set(cfg.inequality_ids) <= set(DFZ_IDS)


def _build_witness(g: Group, lattice: SubgroupLattice, spec: InequalitySpec,
                   idx: Tuple[int, ...]) -> Witness:
    subs = [lattice.subgroups[i] for i in idx]
    ev = entropy_vector(g, subs)
    verdict = evaluate(spec, ev)
    if verdict.holds:
        raise AssertionError(
            f"witness re-evaluation does not violate {spec.id} on {idx}")
    return Witness(group_name=g.name,
                   subgroup_generators=tuple(tuple(s.generator_strings())
                                             for s in subs),
                   inequality_id=spec.id,
                   lhs_product=verdict.lhs_product,
                   rhs_product=verdict.rhs_product,
                   subset_orders=ev,
                   masks=tuple(s.mask for s in subs))


@dataclass
class _Plan:
    """One group's scan between set-up (_plan) and completion (_finish)."""

    group: Group
    lattice: SubgroupLattice
    cls: OrderClass
    by_class: bool   # order_class armed
    tally: Dict[str, int]
    state: Optional[_ScanState]   # None when order_class skips the group
    seconds: float   # set-up time


def _plan(g: Group, cfg: SearchConfig,
          lattice: Optional[SubgroupLattice]) -> _Plan:
    t0 = time.perf_counter()
    if lattice is None:
        lattice = all_subgroups(g)
    cls = order_class(g, lattice)
    total = len(lattice.subgroups) ** cfg.tuple_arity
    tally = dict.fromkeys(_TALLY_KEYS, 0)
    by_class = _theory_armed(cfg, "order_class")
    state = None
    if by_class and cls.skips_group:
        tally["order_class"] = total
    else:
        state = _ScanState(g, lattice, cfg, cls.pair_order if by_class else None, tally)
        tally["order_class"] = total - math.prod(state.sizes)
    return _Plan(g, lattice, cls, by_class, tally, state, time.perf_counter() - t0)


# the scanned plans' states while _run runs; fork workers inherit them
_STATES: List[Optional[_ScanState]] = []

# the fewest planned block cells (the sum of the plans' bounds) for
# which _run starts a pool at jobs >= 2. Timed in fresh processes on a
# 2-vCPU box (medians of 7), a pool made S4 dfz (0.97 M cells) 13 ms and
# survey 2..23 dfz (1.74 M) 11 ms slower, and S4 with every inequality
# (4.19 M) 31 ms faster, so it pays from about 2 M cells. The workers
# also add their own memory (S4's peak went from 35 to 59 MB), so the
# threshold sits above that
_POOL_CELLS = 3_000_000


def _fork_pool(workers: int):
    """A process pool whose workers fork from this process. Imported here,
    so that only a run that starts a pool pays for the import."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    return ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"))


def _run_task(task: Tuple[int, int]
              ) -> Tuple[List[tuple], Dict[str, int], float] | Exception:
    """_scan_task over task i of _STATES[k], timed; an error other than an
    AssertionError is returned as the task's result."""
    k, i = task
    t0 = time.perf_counter()
    try:
        cells, tally = _scan_task(_STATES[k], i)
    except AssertionError:
        raise
    except Exception as e:  # noqa: BLE001 - charged to plan k alone
        return e
    return cells, tally, time.perf_counter() - t0


def _run(plans: List[_Plan], jobs: int) -> List[list]:
    """Scan every plan's tuples, one task per row range that _plan stored.

    The tasks run inline through map unless jobs >= 2, there are at least
    two tasks and the plans' bounds on their block cells sum to at least
    _POOL_CELLS; then they run through one fork pool's map, which hands
    them to its workers as they free up. Returns, per plan, each of its
    tasks' results or errors, in task order; an AssertionError cancels the
    pending tasks and propagates.
    """
    global _STATES
    tasks = [(k, i) for k, p in enumerate(plans) if p.state
             for i in range(len(p.state.tasks))]
    cells = sum(p.state.cells for p in plans if p.state)
    out: List[list] = [[] for _ in plans]
    _STATES = [p.state for p in plans]
    pool = None
    try:
        if jobs >= 2 and len(tasks) >= 2 and cells >= _POOL_CELLS:
            pool = _fork_pool(min(jobs, len(tasks)))
        for (k, _), result in zip(tasks, (pool.map if pool else map)(_run_task, tasks)):
            out[k].append(result)
        return out
    finally:
        _STATES = []
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _finish(plan: _Plan, cfg: SearchConfig, results: list
            ) -> Tuple[List[Witness], PruneReport]:
    """Sum a plan's task tallies, rebuild and sort its witnesses, and check
    the prune accounting; re-raise the first error a task raised.
    wall_time is the plan's set-up and finish seconds plus the seconds its
    tasks took."""
    for part in results:
        if isinstance(part, Exception):
            raise part
    t0 = time.perf_counter()
    g, lattice, cls, tally = plan.group, plan.lattice, plan.cls, plan.tally
    spec_by_id = {i: builtin(i) for i in cfg.inequality_ids}
    witnesses: List[Witness] = []
    task_seconds = 0.0
    for cells, part, seconds in results:
        task_seconds += seconds
        for key, c in part.items():
            tally[key] += c
        for spec_id, idx in cells:
            witnesses.append(_build_witness(g, lattice, spec_by_id[spec_id], idx))

    witnesses.sort(key=Witness.sort_key)
    if cfg.emit_limit is not None:
        witnesses = witnesses[:cfg.emit_limit]

    # the theorem order_class rests on: a dfz witness in such a group has
    # |G1| = |G2| = p. With the rule armed, positions 1 and 2 only ever
    # held order-p subgroups, so the check can only fail with it off.
    if cls.pair_order is not None and not plan.by_class:
        for w in witnesses:
            if w.inequality_id in DFZ_IDS:
                o1, o2 = (w.subset_orders.order([i]) for i in (1, 2))
                if not (o1 == o2 == cls.p):
                    raise AssertionError(
                        f"{cls.kind} witness in {g.name} breaks the "
                        f"|G1|=|G2|={cls.p} shape: got {o1}, {o2}")

    report = PruneReport(
        tuples_total=len(lattice.subgroups) ** cfg.tuple_arity,
        tuples_pruned_by_rule={r: tally[r] for r in PRUNE_RULES},
        tuples_evaluated=tally["evaluated"],
        violations_found=tally["violations"],
        equality_cases=tally["equalities"],
        wall_time=plan.seconds + task_seconds + time.perf_counter() - t0)
    report.check_invariant()
    return witnesses, report


def scan_group(g: Group, cfg: SearchConfig,
               lattice: Optional[SubgroupLattice] = None
               ) -> Tuple[List[Witness], PruneReport]:
    """All violations of the selected inequalities over g's subgroup tuples.

    Complete up to the enabled prunings, each of which is verdict
    preserving; the witness list is sorted by (inequality id, subgroup
    bitsets) so output does not depend on worker_count. The report's
    wall_time is the call's elapsed time.
    """
    t0 = time.perf_counter()
    plan = _plan(g, cfg, lattice)
    (results,) = _run([plan], cfg.worker_count)
    witnesses, report = _finish(plan, cfg, results)
    report.wall_time = time.perf_counter() - t0
    return witnesses, report


def check_simultaneous(g: Group, pair: Tuple[InequalitySpec, InequalitySpec],
                       lattice: Optional[SubgroupLattice] = None
                       ) -> List[Tuple[Subgroup, ...]]:
    """Tuples violating both inequalities at once, up to conjugacy.

    One scan_group call with every prune rule except ineq_symmetry, which
    is relative to a single inequality; a tuple is reported only if it is
    a witness for both. The scan reads each spec as builtin(spec.id).
    """
    ids = tuple(s.id for s in pair)
    if any(not s.id or s.coeffs != builtin(s.id).coeffs for s in pair):
        raise ValueError("check_simultaneous needs builtin inequalities: each spec "
                         "must have the id and the coefficients of one")
    cfg = SearchConfig(inequality_ids=tuple(dict.fromkeys(ids)),
                       prune_flags=frozenset(PRUNE_RULES) - {"ineq_symmetry"})
    witnesses, _ = scan_group(g, cfg, lattice)
    hits: Dict[str, set] = {i: set() for i in ids}
    for w in witnesses:
        hits[w.inequality_id].add(w.masks)
    return [tuple(g.subgroup(m) for m in masks)
            for masks in sorted(hits[ids[0]] & hits[ids[1]])]


def survey(cat: CatalogIndex, orders: Iterable[int], cfg: SearchConfig,
           lattice_for=None) -> Dict[str, SurveyEntry]:
    """scan_group over every catalog entry in the order range.

    Every group is set up first, then one run scans them all (in one
    fork pool at jobs >= 2 when the planned work pays for it, see _run),
    then each is finished. A failure inside one group is recorded on its
    entry and the survey moves on; an AssertionError (a broken internal
    consistency check, such as a witness that does not re-evaluate)
    propagates. `lattice_for(g)`, when given, supplies subgroup lattices
    (letting callers plug in a cache); by default each group builds its
    own. An entry's wall_time is its set-up and finish seconds plus the
    seconds of its tasks, so when they run inline it is the time
    scan_group would take.
    """
    rows: List[Tuple[str, int, object]] = []   # name, order, _Plan or error
    for order in sorted(set(orders)):
        for name in cat.by_order.get(order, ()):
            try:
                g = cat.realize(name)
                lat = lattice_for(g) if lattice_for is not None else None
                rows.append((name, order, _plan(g, cfg, lat)))
            except AssertionError:
                raise  # an internal consistency check failed: not a bad input
            except Exception as e:  # noqa: BLE001 - survey must keep going
                rows.append((name, order, e))

    plans = [p for _, _, p in rows if isinstance(p, _Plan)]
    outcomes = iter(_run(plans, cfg.worker_count))
    results: Dict[str, SurveyEntry] = {}
    for name, order, plan in rows:
        try:
            if not isinstance(plan, _Plan):
                raise plan
            witnesses, report = _finish(plan, cfg, next(outcomes))
            violated = tuple(sorted({w.inequality_id for w in witnesses}))
            results[name] = SurveyEntry(group_name=name, order=order,
                                        witness_count=len(witnesses),
                                        violated_ids=violated, report=report)
        except AssertionError:
            raise
        except Exception as e:  # noqa: BLE001 - survey must keep going
            results[name] = SurveyEntry(group_name=name, order=order,
                                        witness_count=0, violated_ids=(),
                                        report=None, error=str(e))
    return results
