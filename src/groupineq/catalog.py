"""Named group constructors and the shipped registry of small groups.

The registry (data/catalog.json) holds one permutation realization per
isomorphism class of order up to 24, plus S5. load_catalog() re-validates
the whole file: every entry must close to its advertised order and carry
the "abelian" tag exactly when it is abelian, entries of equal order must be
pairwise non-isomorphic, and the per-order class counts must match the
known table. The named constructors below cover the common
families; classes they cannot reach (most of order 16) live only in the
data file, regenerated by tools/build_catalog.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .perm_core import (Group, Permutation, Subgroup, closure, is_abelian, is_isomorphic,
                        is_prime, prime_factors)

__all__ = [
    "EXPECTED_CLASS_COUNTS",
    "CatalogError",
    "GroupDef",
    "CatalogIndex",
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "direct_product",
    "semidirect_cyclic",
    "pgl2",
    "realize",
    "load_catalog",
    "realize_paper_tuple",
    "PAPER_TUPLE_NAMES",
]

# Number of isomorphism classes for each order up to 24.
EXPECTED_CLASS_COUNTS: Dict[int, int] = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1, 20: 5,
    21: 2, 22: 2, 23: 1, 24: 15,
}

_DATA_PATH = Path(__file__).parent / "data" / "catalog.json"

# Established in the literature: PGL2(F5) is isomorphic to S5 (and PGL2(F3)
# to S4), so the projective names resolve to the symmetric-group entries.
ALIASES: Dict[str, str] = {
    "PGL2(5)": "S5",
    "PGL2(F5)": "S5",
}


class CatalogError(ValueError):
    """Raised when a catalog file fails validation."""


@dataclass(frozen=True)
class GroupDef:
    """A named group given by generators in cycle notation on 1..degree."""

    name: str
    degree: int
    generators: Tuple[str, ...]
    expected_order: int
    tags: Tuple[str, ...] = ()

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def realize(gdef: GroupDef) -> Group:
    """Close a GroupDef's generators into a Group on its declared points."""
    perms = [Permutation.from_cycles(text, gdef.degree) for text in gdef.generators]
    return Group.from_generators(gdef.name, perms, degree=gdef.degree)


def _def(name: str, degree: int, gens: Sequence[str], order: int,
         *tags: str) -> GroupDef:
    return GroupDef(name=name, degree=degree, generators=tuple(gens),
                    expected_order=order, tags=("order:%d" % order,) + tags)


def _cycle(points: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in points) + ")"


def cyclic(n: int) -> GroupDef:
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    gens = [] if n == 1 else [_cycle(range(1, n + 1))]
    return _def(f"C{n}", max(n, 1), gens, n, "abelian", "cyclic")


def dihedral(n: int) -> GroupDef:
    """The dihedral group of order 2n acting on an n-gon (degenerate n < 3 allowed)."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    if n == 1:
        return _def("D2", 2, ["(1,2)"], 2, "abelian", "dihedral")
    if n == 2:
        return _def("D4", 4, ["(1,2)", "(3,4)"], 4, "abelian", "dihedral")
    rotation = _cycle(range(1, n + 1))
    reflection = "".join(_cycle((i, n + 2 - i)) for i in range(2, n // 2 + 2)
                         if i != n + 2 - i)
    return _def(f"D{2 * n}", n, [rotation, reflection], 2 * n, "dihedral")


def symmetric(n: int) -> GroupDef:
    if n < 1:
        raise ValueError(f"symmetric parameter must be >= 1, got {n}")
    if n == 1:
        return _def("S1", 1, [], 1, "abelian", "symmetric")
    if n == 2:
        return _def("S2", 2, ["(1,2)"], 2, "abelian", "symmetric")
    return _def(f"S{n}", n, ["(1,2)", _cycle(range(1, n + 1))], factorial(n),
                "symmetric")


def alternating(n: int) -> GroupDef:
    if n < 1:
        raise ValueError(f"alternating parameter must be >= 1, got {n}")
    if n <= 2:
        return _def(f"A{n}", max(n, 1), [], 1, "abelian", "alternating")
    if n == 3:
        return _def("A3", 3, ["(1,2,3)"], 3, "abelian", "alternating")
    second = _cycle(range(1, n + 1)) if n % 2 == 1 else _cycle(range(2, n + 1))
    return _def(f"A{n}", n, ["(1,2,3)", second], factorial(n) // 2, "alternating")


def direct_product(a: GroupDef, b: GroupDef) -> GroupDef:
    """A x B on the disjoint union of their points."""
    shifted = []
    for text in b.generators:
        perm = Permutation.from_cycles(text, b.degree)
        images = tuple(range(a.degree)) + tuple(i + a.degree for i in perm.images)
        shifted.append(Permutation(images).cycle_string())
    tags = ["direct-product"]
    if a.has_tag("abelian") and b.has_tag("abelian"):
        tags.insert(0, "abelian")
    return _def(f"{a.name}x{b.name}", a.degree + b.degree,
                list(a.generators) + shifted,
                a.expected_order * b.expected_order, *tags)


def semidirect_cyclic(n: int, m: int, action_exponent: int) -> GroupDef:
    """C_n semidirect C_m where the C_m generator acts by x -> x^k on C_n.

    Realized on n + m points: the n-cycle a on the first block, and b = the
    m-cycle on the second block composed with the action permutation of the
    first block, so that b a b^-1 = a^k. Requires k^m = 1 (mod n). The
    default name does not encode k; rename via dataclasses.replace when two
    actions of the same shape are needed side by side.
    """
    if n < 1 or m < 1:
        raise ValueError(f"semidirect parameters must be >= 1, got n={n}, m={m}")
    k = action_exponent
    if k < 1 or pow(k, m, n) != 1 % n:
        raise ValueError(
            f"action exponent {k} does not define an order-dividing-{m} "
            f"automorphism of C{n} ({k}^{m} != 1 mod {n})")
    gens = []
    if n > 1:
        gens.append(_cycle(range(1, n + 1)))
    images = [((p * k) % n) for p in range(n)] + \
             [n + ((p + 1) % m) for p in range(m)]
    b = Permutation(tuple(images))
    if not b.is_identity():
        gens.append(b.cycle_string())
    tags = ["semidirect"]
    if k % n == 1 % n:
        tags.insert(0, "abelian")
    return _def(f"C{n}:C{m}", n + m, gens, n * m, *tags)


def pgl2(q: int) -> GroupDef:
    """PGL(2, F_q) acting on the q + 1 points of the projective line.

    Points 1..q are the field values 0..q-1 and point q+1 is infinity.
    Generated by x -> x+1, x -> rx (r a primitive root) and x -> 1/x; the
    scaling generator matters, since for q = 1 (mod 4) inversion alone
    only reaches PSL.
    """
    if not is_prime(q):
        raise ValueError(f"pgl2 requires a prime field size, got {q}")
    inf = q + 1

    def point(value: int) -> int:
        return value % q + 1

    translate = _cycle(range(1, q + 1))
    invert_images = [inf - 1] + [point(pow(v, q - 2, q)) - 1 for v in range(1, q)] + [0]
    invert = Permutation(tuple(invert_images)).cycle_string()
    gens = [translate, invert]
    if q > 2:
        root = next(r for r in range(2, q + 1)
                    if all(pow(r, (q - 1) // p, q) != 1 for p in prime_factors(q - 1)))
        scale_images = [point(root * v) - 1 for v in range(q)] + [inf - 1]
        gens.insert(1, Permutation(tuple(scale_images)).cycle_string())
    return _def(f"PGL2({q})", q + 1, [g for g in gens if g != "()"],
                q * (q - 1) * (q + 1), "projective-linear")


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class CatalogIndex:
    """Validated registry: entries by name plus an order index and aliases."""

    entries: Dict[str, GroupDef]
    by_order: Dict[int, Tuple[str, ...]]
    aliases: Dict[str, str] = field(default_factory=dict)
    _realized: Dict[str, Group] = field(default_factory=dict, repr=False)

    def canonical_name(self, name: str) -> str:
        return self.aliases.get(name, name)

    def get(self, name: str) -> GroupDef:
        canon = self.canonical_name(name)
        if canon not in self.entries:
            raise KeyError(f"no catalog group named {name!r}")
        return self.entries[canon]

    def realize(self, name: str) -> Group:
        canon = self.canonical_name(name)
        if canon not in self._realized:
            self._realized[canon] = realize(self.get(canon))
        return self._realized[canon]

    def names(self) -> List[str]:
        return [n for order in sorted(self.by_order) for n in self.by_order[order]]


_INDEX_CACHE: Dict[str, CatalogIndex] = {}


def load_catalog(path: Optional[str] = None) -> CatalogIndex:
    """Load and fully validate a catalog file (default: the shipped one).

    Validation failures raise CatalogError naming the offending entry:
    unparseable file, an entry whose closure misses expected_order or
    whose "abelian" tag disagrees with the group, two entries of one order
    that are isomorphic, or a per-order class count differing from the
    known table.
    """
    resolved = Path(path) if path is not None else _DATA_PATH
    key = str(resolved.resolve())
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    try:
        raw = json.loads(resolved.read_text("utf-8"))
    except FileNotFoundError:
        raise CatalogError(f"catalog file not found: {resolved}")
    except json.JSONDecodeError as e:
        raise CatalogError(f"catalog file {resolved} is not valid JSON: {e}")
    if not isinstance(raw, list):
        raise CatalogError(f"catalog file {resolved} must be a JSON array of records")

    entries: Dict[str, GroupDef] = {}
    realized: Dict[str, Group] = {}
    order_names: Dict[int, List[str]] = {}
    for i, rec in enumerate(raw):
        try:
            gdef = GroupDef(name=rec["name"], degree=int(rec["degree"]),
                            generators=tuple(rec["generators"]),
                            expected_order=int(rec["expected_order"]),
                            tags=tuple(rec.get("tags", ())))
        except (TypeError, KeyError, ValueError) as e:
            raise CatalogError(f"catalog record {i} is malformed: {e!r}")
        if gdef.name in entries:
            raise CatalogError(f"duplicate catalog entry name {gdef.name!r}")
        try:
            g = realize(gdef)
        except ValueError as e:
            raise CatalogError(f"entry {gdef.name!r} failed to realize: {e}")
        if g.order != gdef.expected_order:
            raise CatalogError(
                f"entry {gdef.name!r} closes to order {g.order}, "
                f"expected {gdef.expected_order}")
        if gdef.has_tag("abelian") != is_abelian(g):
            raise CatalogError(f"entry {gdef.name!r} has a wrong abelian tag")
        entries[gdef.name] = gdef
        realized[gdef.name] = g
        order_names.setdefault(gdef.expected_order, []).append(gdef.name)

    for order, names in order_names.items():
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if is_isomorphic(realized[names[i]], realized[names[j]]):
                    raise CatalogError(
                        f"entries {names[i]!r} and {names[j]!r} of order "
                        f"{order} are isomorphic duplicates")

    for order, expected in EXPECTED_CLASS_COUNTS.items():
        got = order_names.get(order, [])
        if len(got) != expected:
            raise CatalogError(
                f"order {order}: catalog has {len(got)} classes "
                f"({', '.join(got) or 'none'}), expected {expected}")

    index = CatalogIndex(entries=entries,
                         by_order={o: tuple(ns) for o, ns in sorted(order_names.items())},
                         aliases=dict(ALIASES))
    index._realized.update(realized)
    _INDEX_CACHE[key] = index
    return index


# ---------------------------------------------------------------------------
# The worked examples: exact generator tuples, in source order.

_PAPER_TUPLES: Dict[str, Tuple[str, Tuple[Tuple[str, ...], ...]]] = {
    "s4-dfz1": ("S4", (
        ("(3,4)", "(2,4,3)"),
        ("(1,3)", "(1,3,2)"),
        ("(1,2)(3,4)", "(3,4)"),
        ("(1,3)(2,4)", "(2,4)"),
        ("(1,4)(2,3)", "(1,3)(2,4)"),
    )),
    "s4-dfz3": ("S4", (
        ("(3,4)", "(2,4,3)"),
        ("(1,2)(3,4)", "(3,4)"),
        ("(1,2)(3,4)", "(1,4)(2,3)", "(1,3)"),
        ("(1,3)", "(1,3,2)"),
        ("(1,3)(2,4)", "(2,4)"),
    )),
    "d20-example": ("D20", (
        ("(1,3)(4,10)(5,9)(6,8)",),
        ("(2,10)(3,9)(4,8)(5,7)",),
        ("(2,10)(3,9)(4,8)(5,7)", "(1,6)(2,7)(3,8)(4,9)(5,10)"),
    )),
}

PAPER_TUPLE_NAMES: Tuple[str, ...] = tuple(_PAPER_TUPLES)


def realize_paper_tuple(name: str) -> Tuple[Group, List[Subgroup]]:
    """The ambient group and subgroup tuple for a worked example: one
    subgroup per generator set (cycle notation) of the tuple."""
    if name not in _PAPER_TUPLES:
        raise ValueError(
            f"unknown tuple name {name!r}; known: {', '.join(PAPER_TUPLE_NAMES)}")
    ambient_name, sets = _PAPER_TUPLES[name]
    gdef = symmetric(4) if ambient_name == "S4" else dihedral(10)
    g = realize(gdef)
    subs = []
    for gen_set in sets:
        idx = [g.element_index(Permutation.from_cycles(t, g.degree)) for t in gen_set]
        subs.append(closure(g, idx))
    return g, subs
