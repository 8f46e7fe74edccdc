"""Permutation groups, subgroups as bitsets, and the subgroup lattice.

Permutations act on points 1..d (stored 0-based internally) with d <= 32.
A Group materializes its full element list plus multiplication and inverse
tables as Python lists, so everything downstream is index arithmetic. A
Subgroup is a plain integer bitmask over the parent's element indices, so
intersection is an AND.
The subgroup lattice indexes every subgroup and owns the two tables that
scans read: the meet table (the lattice index of each Gi ∩ Gj) and the
conjugation table (the lattice index of each x Gi x^-1).

Composition convention: (a * b) applies b first, then a.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "AMBIENT_ORDER_CAP",
    "LATTICE_ORDER_CAP",
    "Permutation",
    "Group",
    "Subgroup",
    "SubgroupLattice",
    "closure",
    "parse_generators",
    "all_subgroups",
    "is_abelian",
    "is_isomorphic",
    "prime_factors",
    "int_valuation",
]

MAX_DEGREE = 32
AMBIENT_ORDER_CAP = 5040
LATTICE_ORDER_CAP = 1000


def prime_factors(n: int) -> Dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}, expected a positive integer")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n >= 1."""
    if n < 1:
        raise ValueError(f"int_valuation needs a positive integer, got {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..d}, stored as a tuple of 0-based images."""

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.images)
        if not 1 <= d <= MAX_DEGREE:
            raise ValueError(f"degree {d} outside supported range 1..{MAX_DEGREE}")
        if sorted(self.images) != list(range(d)):
            raise ValueError(f"images {self.images} are not a bijection on 0..{d - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def cycles(self) -> List[Tuple[int, ...]]:
        """Nontrivial cycles as tuples of 1-based points, each starting at
        its smallest point, listed by smallest point."""
        seen = [False] * self.degree
        out: List[Tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(pt + 1 for pt in cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(pt) for pt in cyc) + ")" for cyc in cycs)

    @staticmethod
    def from_cycles(text: str, degree: int) -> "Permutation":
        """Parse cycle notation like "(1,2)(3,4)" into one permutation.

        Points are 1-based; commas or spaces separate points; cycles must be
        disjoint. "()" or an empty string is the identity.
        """
        return _permutation_from_cycles([c for c, _ in _tokenize_cycles(text)], degree, text)


def _tokenize_cycles(text: str) -> List[Tuple[Tuple[int, ...], bool]]:
    """Split cycle notation into its cycles of 1-based points, in order.

    Commas, spaces or tabs separate points inside a cycle; "()" is an empty
    cycle. Each cycle is paired with a flag that is True when a comma
    outside parentheses stands between it and the previous cycle.
    """
    cycles: List[Tuple[Tuple[int, ...], bool]] = []
    current: List[int] = []
    number = ""
    depth = 0
    comma = False
    for pos, ch in enumerate(text):
        if ch == "(":
            if depth != 0:
                raise ValueError(f"nested '(' at position {pos} in {text!r}")
            depth = 1
            current = []
        elif ch == ")":
            if depth != 1:
                raise ValueError(f"unmatched ')' at position {pos} in {text!r}")
            if number:
                current.append(int(number))
                number = ""
            depth = 0
            cycles.append((tuple(current), comma))
            comma = False
        elif "0" <= ch <= "9":
            if depth != 1:
                raise ValueError(f"digit outside cycle at position {pos} in {text!r}")
            number += ch
        elif ch in ", \t":
            if number:
                current.append(int(number))
                number = ""
            elif depth == 0 and ch == ",":
                comma = True
        else:
            raise ValueError(f"unexpected character {ch!r} at position {pos} in {text!r}")
    if depth != 0:
        raise ValueError(f"unclosed '(' in {text!r}")
    return cycles


def _permutation_from_cycles(cycles: Sequence[Sequence[int]], degree: int,
                             text: str) -> Permutation:
    """The product of disjoint cycles of 1-based points; `text` names the
    input in error messages."""
    top = max((pt for cyc in cycles for pt in cyc), default=1)
    if top > degree:
        raise ValueError(f"point {top} exceeds degree {degree} in {text!r}")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the supported maximum {MAX_DEGREE}")
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for pt in cyc:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree} in {text!r}")
            if pt in seen:
                raise ValueError(f"cycles are not disjoint at point {pt} in {text!r}")
            seen.add(pt)
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return Permutation(tuple(images))


def parse_generators(text: str, degree: int) -> List[Permutation]:
    """Parse a list of generators in cycle notation into permutations of
    the given degree.

    Cycles are grouped greedily: a cycle joins the current generator while
    it is disjoint from it, and an overlap or a comma between cycles starts
    a new generator. "(3 4)(2 4 3)" is therefore two generators, "(1 2)(3 4)"
    one double transposition, "(1 2),(3 4)" two transpositions, and "()"
    no generator at all.
    """
    generators: List[List[Tuple[int, ...]]] = []
    bucket: List[Tuple[int, ...]] = []
    seen: set = set()
    for points, comma in _tokenize_cycles(text):
        if bucket and (comma or seen & set(points)):
            generators.append(bucket)
            bucket, seen = [], set()
        if points:
            bucket.append(points)
            seen |= set(points)
    if bucket:
        generators.append(bucket)
    return [_permutation_from_cycles(cycles, degree, text) for cycles in generators]


class Group:
    """A finite permutation group with precomputed multiplication tables.

    Elements are sorted canonically (identity first, then by image tuples),
    so two constructions of the same element set are identical. Immutable
    after construction and safe to share across worker processes.
    """

    def __init__(self, name: str, elements: Sequence[Permutation],
                 generator_indices: Sequence[int]) -> None:
        self.name = name
        self.elements: Tuple[Permutation, ...] = tuple(elements)
        self.degree = self.elements[0].degree
        self.order = len(self.elements)
        self.generator_indices: Tuple[int, ...] = tuple(generator_indices)
        self._index: Dict[Tuple[int, ...], int] = {
            p.images: i for i, p in enumerate(self.elements)
        }
        # _mul_rows[a][b] is the index of a * b, whose images are a's images
        # read at b's: one getter per right factor b. itemgetter with a
        # single index returns an item, not a tuple, so at degree 1 (the
        # identity alone, a * b = a) each getter returns a's images as they are
        if self.degree == 1:
            right = [lambda t: t] * self.order
        else:
            right = [operator.itemgetter(*b.images) for b in self.elements]
        self._mul_rows: List[List[int]] = [
            [self._index[f(a.images)] for f in right] for a in self.elements]
        self._inv: List[int] = [row.index(0) for row in self._mul_rows]
        self._element_orders: Optional[Tuple[int, ...]] = None
        self.full_mask = (1 << self.order) - 1

    @staticmethod
    def from_generators(name: str, generators: Sequence[Permutation],
                        degree: int) -> "Group":
        """Close generators of the given degree into a full Group, breadth-first."""
        ident = Permutation.identity(degree)
        seen: Dict[Tuple[int, ...], Permutation] = {ident.images: ident}
        frontier = [ident]
        while frontier:
            nxt: List[Permutation] = []
            for a in frontier:
                for g in generators:
                    b = g * a
                    if b.images not in seen:
                        seen[b.images] = b
                        nxt.append(b)
                        if len(seen) > AMBIENT_ORDER_CAP:
                            raise ValueError(f"group {name!r} exceeds the ambient "
                                             f"order cap {AMBIENT_ORDER_CAP}")
            frontier = nxt
        ordered = [ident] + sorted(
            (p for p in seen.values() if not p.is_identity()), key=lambda p: p.images)
        index = {p.images: i for i, p in enumerate(ordered)}
        gen_idx = sorted({index[g.images] for g in generators if not g.is_identity()})
        return Group(name, ordered, gen_idx)

    def element_index(self, perm: Permutation) -> int:
        idx = self._index.get(perm.images)
        if idx is None:
            raise ValueError(f"{perm.cycle_string()} is not an element of {self.name}")
        return idx

    def mul(self, i: int, j: int) -> int:
        return self._mul_rows[i][j]

    def element_orders(self) -> Tuple[int, ...]:
        if self._element_orders is None:
            orders = []
            for i in range(self.order):
                n, x = 1, i
                while x != 0:
                    x = self.mul(x, i)
                    n += 1
                orders.append(n)
            self._element_orders = tuple(orders)
        return self._element_orders

    def subgroup(self, mask: int) -> "Subgroup":
        return Subgroup(self, mask, mask.bit_count())

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(self.full_mask)

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order}, degree={self.degree})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent`, stored as a bitmask over element indices."""

    parent: Group = field(compare=False)
    mask: int
    order: int

    def __post_init__(self) -> None:
        if not self.mask & 1:
            raise ValueError("subgroup mask must contain the identity (bit 0)")

    def member_indices(self) -> List[int]:
        m = self.mask
        out = []
        i = 0
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return out

    def generator_indices(self) -> List[int]:
        """A small deterministic generating list (greedy, ascending indices)."""
        gens: List[int] = []
        current = 1
        for i in self.member_indices():
            if current >> i & 1:
                continue
            gens.append(i)
            current = closure(self.parent, gens).mask
            if current == self.mask:
                break
        return gens

    def generator_strings(self) -> List[str]:
        return [self.parent.elements[i].cycle_string() for i in self.generator_indices()]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def closure(parent: Group, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup of `parent` containing the given element indices.

    Breadth-first from the identity, right-multiplying every member found
    so far by every generator. In a finite group each element of the
    subgroup is a product of generators, so this reaches all of them.
    """
    gens = list(dict.fromkeys(generators))
    for g in gens:
        if not 0 <= g < parent.order:
            raise ValueError(f"element index {g} outside 0..{parent.order - 1}")
    mul = parent._mul_rows
    mask = 1
    members = [0]
    for x in members:
        row = mul[x]
        for g in gens:
            y = row[g]
            if not mask >> y & 1:
                mask |= 1 << y
                members.append(y)
    return parent.subgroup(mask)


def _image_mask(perm: Sequence[int], members: Iterable[int]) -> int:
    """Bitmask of the image of a subgroup's members under a permutation of
    element indices; under conjugation by x that is x H x^-1."""
    m = 0
    for i in members:
        m |= 1 << perm[i]
    return m


def is_abelian(g: Group) -> bool:
    """True iff the generators commute pairwise (all elements when g
    records no generators)."""
    gens = g.generator_indices or range(g.order)
    mul = g._mul_rows
    return all(mul[a][b] == mul[b][a] for a in gens for b in gens)


def _require_lattice_cap(g: Group) -> None:
    """Raise ValueError when g is too large for a subgroup lattice. The one
    place LATTICE_ORDER_CAP is read."""
    if g.order > LATTICE_ORDER_CAP:
        raise ValueError(f"group {g.name!r} of order {g.order} exceeds the "
                         f"lattice cap {LATTICE_ORDER_CAP}")


@dataclass(frozen=True)
class SubgroupLattice:
    """Every subgroup of a group, deduplicated and sorted by (order, mask).

    The subgroup list is all a lattice stores, and construction checks its
    shape and refuses a group above LATTICE_ORDER_CAP. The mask -> index
    map, the meet and conjugation tables, the conjugacy classes, the
    normal flags and the Sylow index are derived from it on first use and
    kept.
    """

    group: Group = field(compare=False)
    subgroups: Tuple[Subgroup, ...]

    def __post_init__(self) -> None:
        g, subs = self.group, self.subgroups
        _require_lattice_cap(g)
        keys = [(s.order, s.mask) for s in subs]
        if not (keys and keys[0] == (1, 1) and keys[-1] == (g.order, g.full_mask)
                and keys == sorted(set(keys))
                and all(s.parent is g and 0 < s.mask <= g.full_mask for s in subs)):
            raise ValueError(f"not a subgroup lattice of {g.name}: the subgroups must run "
                             "from 1 to G, lie in G and strictly increase in (order, mask)")

    def __len__(self) -> int:
        return len(self.subgroups)

    @cached_property
    def index(self) -> Dict[int, int]:
        """Lattice index of each subgroup, by mask."""
        return {s.mask: i for i, s in enumerate(self.subgroups)}

    def _table(self, rows: Iterable[Iterable[int]], what: str) -> np.ndarray:
        """The lattice index of each mask in `rows`, in the narrowest unsigned
        type that holds every index; ValueError when the list misses one."""
        try:
            table = [[self.index[mask] for mask in row] for row in rows]
        except KeyError:
            raise ValueError(f"the subgroups of {self.group.name} miss {what}") from None
        return np.array(table, dtype=np.min_scalar_type(len(self) - 1))

    @cached_property
    def meet(self) -> np.ndarray:
        """(#subgroups, #subgroups) table: entry [i, j] is the lattice index of Gi ∩ Gj."""
        masks = [s.mask for s in self.subgroups]
        return self._table(((x & y for y in masks) for x in masks), "an intersection")

    def conjugation_table(self) -> np.ndarray:
        """(|G|, #subgroups) table: entry [x, s] is the lattice index of x S x^-1."""
        return self._conjugation

    @cached_property
    def _conjugation(self) -> np.ndarray:
        g = self.group
        mul, inv = g._mul_rows, g._inv
        members = [s.member_indices() for s in self.subgroups]
        gens = g.generator_indices or range(1, g.order)
        # the generators' rows by their masks: row x of `perms` maps element
        # index i to that of x i x^-1. The list is closed under conjugation
        # exactly when it is closed under the generators', so a missing
        # conjugate shows here
        perms = ([mul[xi][inv[x]] for xi in mul[x]] for x in gens)
        gen_rows = self._table(((_image_mask(perm, m) for m in members) for perm in perms),
                               "a conjugate")
        # conjugation is an action, so row[x·y] = row_x[row_y]: every other
        # row follows breadth-first from the identity's
        table = np.empty((g.order, len(self)), dtype=gen_rows.dtype)
        table[0] = np.arange(len(self))
        reached = [0]
        seen = 1
        for x in reached:
            for y, row in zip(gens, gen_rows):
                z = mul[x][y]
                if not seen >> z & 1:
                    seen |= 1 << z
                    reached.append(z)
                    table[z] = table[x][row]
        if len(reached) != g.order:
            raise ValueError(f"the generators of {g.name} do not generate it")
        return table

    @cached_property
    def conjugacy_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """The classes partition the indices; column s of the conjugation
        table is the class of s. Sorted by least member."""
        return tuple(sorted({tuple(sorted(set(col))) for col
                             in self.conjugation_table().T.tolist()}))

    @cached_property
    def normal_flags(self) -> Tuple[bool, ...]:
        """A subgroup is normal when every conjugate is itself."""
        table = self.conjugation_table()
        return tuple((table == table[0]).all(axis=0).tolist())

    @cached_property
    def sylow_index(self) -> Dict[int, Tuple[int, ...]]:
        """Each prime p dividing |G| -> indices of the Sylow p-subgroups."""
        return {p: tuple(i for i, s in enumerate(self.subgroups) if s.order == p ** e)
                for p, e in prime_factors(self.group.order).items()}


def all_subgroups(g: Group) -> SubgroupLattice:
    """Enumerate the complete subgroup lattice of g.

    Seeds with all cyclic subgroups, then repeatedly extends each known
    subgroup by one cyclic generator from outside it and closes, until
    fixpoint. This finds everything: any subgroup K is some maximal
    subgroup H < K (found by induction on order) extended by any element
    of K outside H. Each subgroup keeps the generator list it was found
    with, so an extension closes that list plus one element. A group above
    LATTICE_ORDER_CAP is refused before anything is enumerated.
    """
    _require_lattice_cap(g)
    gens_of: Dict[int, List[int]] = {}
    cyclic_reps: List[Tuple[int, int]] = []  # (mask of <x>, x)
    for x in range(g.order):
        mask = 1
        y = x
        while y != 0:
            mask |= 1 << y
            y = g.mul(y, x)
        if mask not in gens_of:
            gens_of[mask] = [x] if x else []
            cyclic_reps.append((mask, x))
    worklist = list(gens_of)
    while worklist:
        mask = worklist.pop()
        for cyc_mask, x in cyclic_reps:
            if cyc_mask & mask == cyc_mask:
                continue
            ext = gens_of[mask] + [x]
            bigger = closure(g, ext).mask
            if bigger not in gens_of:
                gens_of[bigger] = ext
                worklist.append(bigger)
    subs = tuple(sorted((g.subgroup(m) for m in gens_of),
                        key=lambda s: (s.order, s.mask)))
    return SubgroupLattice(g, subs)


def _extend_isomorphism(g: Group, h: Group, gens: List[int], images: List[int]) -> bool:
    """Check that mapping gens[i] -> images[i] extends to an isomorphism.

    Builds the image of every g-element generated so far by parallel BFS;
    fails on any multiplication conflict or collision.
    """
    mapping = {0: 0}
    frontier = [0]
    pending = list(zip(gens, images))
    for a, b in pending:
        if a in mapping:
            if mapping[a] != b:
                return False
            continue
        mapping[a] = b
        frontier.append(a)
    while frontier:
        a = frontier.pop()
        fa = mapping[a]
        for b, fb in list(mapping.items()):
            for x, fx in ((g.mul(a, b), h.mul(fa, fb)), (g.mul(b, a), h.mul(fb, fa))):
                known = mapping.get(x)
                if known is None:
                    mapping[x] = fx
                    frontier.append(x)
                elif known != fx:
                    return False
    if len(mapping) != len(set(mapping.values())):
        return False
    return True


def is_isomorphic(g: Group, h: Group) -> bool:
    """Isomorphism test: cheap invariants first, then backtracking search
    over generator images (order-preserving candidates only)."""
    if g.order != h.order:
        return False
    if is_abelian(g) != is_abelian(h):
        return False
    if Counter(g.element_orders()) != Counter(h.element_orders()):
        return False
    if g.order <= 100 and (Counter(s.order for s in all_subgroups(g).subgroups)
                           != Counter(s.order for s in all_subgroups(h).subgroups)):
        return False
    gens = g.full_subgroup().generator_indices()
    g_orders = g.element_orders()
    h_orders = h.element_orders()
    candidates = [
        [j for j in range(h.order) if h_orders[j] == g_orders[a]] for a in gens
    ]

    def backtrack(level: int, chosen: List[int]) -> bool:
        if level == len(gens):
            return _extend_isomorphism(g, h, gens, chosen)
        for j in candidates[level]:
            chosen.append(j)
            # Partial consistency: the prefix must already extend cleanly.
            if _extend_isomorphism(g, h, gens[: level + 1], chosen) and backtrack(level + 1, chosen):
                return True
            chosen.pop()
        return False

    if not gens:
        return True  # both trivial
    return backtrack(0, [])
