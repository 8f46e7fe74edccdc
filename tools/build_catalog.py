#!/usr/bin/env python3
"""Regenerate src/groupineq/data/catalog.json.

Assembles one permutation realization per isomorphism class of order <= 24
(plus S5) and renders the JSON registry sorted by (order, name) into a
temporary file. That file must pass `load_catalog`'s validation (advertised
order, abelian tags, pairwise non-isomorphism within each order, class
counts) before it replaces the shipped catalog. Rerunning must be
a no-op unless the construction list changed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from groupineq import catalog as cat
from groupineq.catalog import CatalogError, GroupDef, load_catalog
from groupineq.perm_core import Permutation

OUT_PATH = ROOT / "src" / "groupineq" / "data" / "catalog.json"


def regular_def(name: str, size: int, mult: Callable[[int, int], int],
                gens: List[int], *tags: str) -> GroupDef:
    """Left-regular permutation realization of an abstract multiplication."""
    strs = []
    for g in gens:
        images = tuple(mult(g, x) for x in range(size))
        strs.append(Permutation(images).cycle_string())
    return GroupDef(name=name, degree=size, generators=tuple(strs),
                    expected_order=size, tags=(f"order:{size}",) + tags)


def dicyclic(n: int, name: str) -> GroupDef:
    """Dic_n = <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>, order 4n.

    Element (i, j) stands for a^i b^j with i mod 2n, j mod 2; the index is
    i + 2n*j and multiplication follows from b a = a^-1 b.
    """
    two_n = 2 * n

    def mult(x: int, y: int) -> int:
        i, j = x % two_n, x // two_n
        k, l = y % two_n, y // two_n
        if j == 0:
            return (i + k) % two_n + two_n * l
        if l == 0:
            return (i - k) % two_n + two_n
        return (i - k + n) % two_n

    return regular_def(name, 4 * n, mult, [1, two_n], "dicyclic")


def central_product_d8_c4() -> GroupDef:
    """D8 and C4 glued over a shared center: (D8 x C4) / <(r^2, z^2)>."""
    big = cat.realize(cat.direct_product(cat.dihedral(4), cat.cyclic(4)))
    center = big.element_index(Permutation.from_cycles("(1,3)(2,4)(5,7)(6,8)", 8))
    n_members = [0, center]
    coset_id = {}
    reps: List[int] = []
    for i in range(big.order):
        if i in coset_id:
            continue
        coset_id[i] = len(reps)
        for k in n_members:
            coset_id[big.mul(i, k)] = len(reps)
        reps.append(i)

    def mult(a: int, b: int) -> int:
        return coset_id[big.mul(reps[a], reps[b])]

    gens = sorted({coset_id[gi] for gi in big.generator_indices} - {0})
    return regular_def("D8oC4", len(reps), mult, gens, "central-product")


def sl23() -> GroupDef:
    """SL(2, F3) acting on the eight nonzero vectors of F3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vectors)}
    shear = tuple(idx[((a + b) % 3, b)] for a, b in vectors)
    rot = tuple(idx[((-b) % 3, a)] for a, b in vectors)
    return GroupDef(name="SL(2,3)", degree=8,
                    generators=(Permutation(shear).cycle_string(),
                                Permutation(rot).cycle_string()),
                    expected_order=24, tags=("order:24", "special-linear"))


def build_defs() -> List[GroupDef]:
    c = cat.cyclic
    dp = cat.direct_product
    sd = cat.semidirect_cyclic

    c2x2 = dp(c(2), c(2))
    c2x2x2 = dp(c2x2, c(2))
    q8 = dicyclic(2, "Q8")
    dic3 = dicyclic(3, "Dic3")
    s3 = cat.symmetric(3)

    defs = [
        c(1), c(2), c(3), c(4), c2x2, c(5), c(6), s3, c(7),
        # order 8
        c(8), dp(c(4), c(2)), c2x2x2, cat.dihedral(4), q8,
        # 9 .. 15
        c(9), dp(c(3), c(3)),
        c(10), cat.dihedral(5),
        c(11),
        c(12), dp(c(6), c(2)), cat.dihedral(6), cat.alternating(4), dic3,
        c(13),
        c(14), cat.dihedral(7),
        c(15),
        # order 16
        c(16), dp(c(8), c(2)), dp(c(4), c(4)), dp(dp(c(4), c(2)), c(2)),
        dp(c2x2x2, c(2)),
        cat.dihedral(8), dicyclic(4, "Q16"),
        replace(sd(8, 2, 3), name="SD16"),
        replace(sd(8, 2, 5), name="M16"),
        dp(cat.dihedral(4), c(2)), dp(q8, c(2)),
        central_product_d8_c4(),
        sd(4, 4, 3),
        GroupDef(name="C2xC2:C4", degree=8,
                 generators=("(1,2)", "(1,3)(2,4)(5,6,7,8)"),
                 expected_order=16, tags=("order:16", "semidirect")),
        # 17 .. 23
        c(17),
        c(18), dp(c(6), c(3)), cat.dihedral(9), dp(s3, c(3)),
        GroupDef(name="C3xC3:C2", degree=6,
                 generators=("(1,2,3)", "(4,5,6)", "(2,3)(5,6)"),
                 expected_order=18, tags=("order:18", "semidirect")),
        c(19),
        c(20), dp(c(10), c(2)), cat.dihedral(10),
        replace(sd(5, 4, 2), name="F20"), dicyclic(5, "Dic5"),
        c(21), sd(7, 3, 2),
        c(22), cat.dihedral(11),
        c(23),
        # order 24
        c(24), dp(c(12), c(2)), dp(dp(c(6), c(2)), c(2)),
        cat.symmetric(4), dp(cat.alternating(4), c(2)), sl23(),
        cat.dihedral(12), dicyclic(6, "Dic6"), sd(3, 8, 2),
        dp(c(3), cat.dihedral(4)), dp(c(3), q8), dp(c(4), s3),
        dp(c2x2, s3), dp(c(2), dic3),
        GroupDef(name="C3:D8", degree=7,
                 generators=("(1,2,3)", "(2,3)(4,5,6,7)", "(4,6)"),
                 expected_order=24, tags=("order:24", "semidirect")),
        # the one ambient above order 24 the scans need
        cat.symmetric(5),
    ]
    return defs


def render(defs: List[GroupDef]) -> str:
    """The catalog JSON text: one record per definition, sorted by (order, name)."""
    records = [{"name": d.name, "degree": d.degree, "generators": list(d.generators),
                "expected_order": d.expected_order, "tags": list(d.tags)}
               for d in sorted(defs, key=lambda d: (d.expected_order, d.name))]
    return json.dumps(records, indent=1) + "\n"


def main() -> int:
    defs = build_defs()
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    tmp = OUT_PATH.with_name(OUT_PATH.name + ".tmp")
    tmp.write_text(render(defs), encoding="utf-8")
    try:
        # the loader's own checks: advertised orders, abelian tags,
        # pairwise non-isomorphism within each order, class counts per order
        index = load_catalog(str(tmp))
        tmp.replace(OUT_PATH)
    except CatalogError as e:
        print(f"FAIL {e}")
        return 1
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {len(defs)} groups to {OUT_PATH}")
    counts = {o: len(ns) for o, ns in index.by_order.items()}
    print(f"classes per order: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
