#!/usr/bin/env python3
"""Walk through the dihedral group of order 20 and two mutual-information values."""

from groupineq.catalog import load_catalog, realize_paper_tuple
from groupineq.entropy_eval import entropy_vector, gi
from groupineq.perm_core import all_subgroups


def main():
    cat = load_catalog()
    g = cat.realize("D20")
    lat = all_subgroups(g)
    print(f"D20: order {g.order}, degree {g.degree}, {len(lat.subgroups)} subgroups")

    by_order = {}
    for s in lat.subgroups:
        by_order.setdefault(s.order, []).append(s)
    for order in sorted(by_order):
        n = len(by_order[order])
        normal = sum(
            1 for s in by_order[order] if lat.normal_flags[lat.index[s.mask]]
        )
        print(f"  order {order:>2}: {n} subgroup(s), {normal} normal")

    g, (a, b, c) = realize_paper_tuple("d20-example")
    print("\npicked subgroups:")
    for label, s in (("A", a), ("B", b), ("C", c)):
        print(f"  {label}: order {s.order}, members {sorted(s.member_indices())}")

    rab = gi(g, a, b)
    rac = gi(g, a, c)
    print(f"\nGI(A;B) = |A n B| |G| / (|A||B|) = {rab}")
    print(f"GI(A;C) = |A n C| |G| / (|A||C|) = {rac}")
    print("the second value is not an integer, which no abelian group can produce")

    ev = entropy_vector(g, [a, b, c])
    print("\nsubset intersection orders:")
    for subset in ev.subset_orders:
        print(f"  G_{''.join(map(str, sorted(subset)))} has order {ev.order(subset)}")


if __name__ == "__main__":
    main()
