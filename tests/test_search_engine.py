import functools
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from groupineq.catalog import (alternating, cyclic, dihedral, direct_product, load_catalog,
                               realize, realize_paper_tuple, semidirect_cyclic, symmetric)
from groupineq.entropy_eval import entropy_vector, evaluate
from groupineq import search_engine
from groupineq.ineq_dsl import _BUILTIN_TEXTS, DFZ_IDS, builtin, parse
from groupineq.perm_core import all_subgroups, prime_factors
from groupineq.search_engine import (
    PRUNE_RULES,
    OrderClass,
    SearchConfig,
    _ScanState,
    check_simultaneous,
    order_class,
    scan_group,
    survey,
)

import oracles
from property_suites import product_is_subgroup


def test_prune_rules_constant():
    assert PRUNE_RULES == ("theory_common_info", "order_class", "conjugacy", "ineq_symmetry")


def test_search_config_make():
    cfg = SearchConfig.make()
    assert set(cfg.inequality_ids) == {"ingleton"} | set(DFZ_IDS)
    assert cfg.prune_flags == frozenset(PRUNE_RULES)
    assert cfg.tuple_arity == 5 and cfg.worker_count == 1
    assert SearchConfig.make(ineqs="ingleton").tuple_arity == 4
    assert SearchConfig.make(ineqs="dfz").inequality_ids == DFZ_IDS
    assert SearchConfig.make(prune="none").prune_flags == frozenset()
    assert SearchConfig.make(prune="conjugacy").prune_flags == {"conjugacy"}
    assert SearchConfig.make(ineqs="dfz1, dfz1").inequality_ids == ("dfz1",)


def test_search_config_validation():
    with pytest.raises(ValueError, match="unknown prune flags"):
        SearchConfig.make(prune="bogus")
    with pytest.raises(ValueError, match="no inequalities"):
        SearchConfig.make(ineqs="")
    # a prune list that names no rule is refused, not read as "none"
    for prune in (",", "", " , "):
        with pytest.raises(ValueError, match="no prune rules"):
            SearchConfig.make(prune=prune)
    with pytest.raises(ValueError, match="worker_count"):
        SearchConfig.make(jobs=0)
    with pytest.raises(ValueError, match="unknown inequality id"):
        SearchConfig.make(ineqs="dfz99")
    with pytest.raises(ValueError, match="emit_limit"):
        SearchConfig.make(emit_limit=-1)
    # a repeated id would be scanned, and counted, twice
    with pytest.raises(ValueError, match="repeated inequality ids"):
        SearchConfig(("dfz1", "dfz1"))


def test_order_class_kinds(cat):
    expect = {
        "C6": ("pq_safe", 2, 3),
        "S3": ("pq_safe", 2, 3),
        "C15": ("pq_safe", 3, 5),
        "D22": ("pq_safe", 2, 11),
        "C12": ("abelian", None, None),
        "C8": ("abelian", None, None),
        "D12": ("p2q_normal_sylow_q", 2, 3),
        "Dic3": ("p2q_normal_sylow_q", 2, 3),
        "D20": ("p2q_normal_sylow_q", 2, 5),
        "F20": ("p2q_normal_sylow_q", 2, 5),
        "A4": ("pq2_normal_sylow_q", 3, 2),
        "D18": ("pq2_normal_sylow_q", 2, 3),
        "S3xC3": ("pq2_normal_sylow_q", 2, 3),
        "S4": ("unconstrained", None, None),
        "D8": ("unconstrained", None, None),
        "SL(2,3)": ("unconstrained", None, None),
    }
    for name, (kind, p, q) in expect.items():
        c = order_class(cat.realize(name))
        assert (c.kind, c.p, c.q) == (kind, p, q), name


def test_order_class_properties():
    assert OrderClass("abelian", None, None).skips_group
    assert OrderClass("pq_safe", 2, 3).skips_group
    assert not OrderClass("p2q_normal_sylow_q", 2, 3).skips_group
    assert OrderClass("p2q_normal_sylow_q", 2, 5).pair_order == 2
    assert OrderClass("pq2_normal_sylow_q", 3, 2).pair_order == 3
    assert OrderClass("unconstrained", None, None).pair_order is None


def test_order_class_q_is_the_normal_sylow(cat):
    # in both constrained kinds, q names the prime whose Sylow is normal
    for name in ("D12", "Dic3", "D20", "Dic5", "F20", "A4", "D18", "S3xC3", "C3xC3:C2"):
        g = cat.realize(name)
        c = order_class(g)
        lat = all_subgroups(g)
        assert len(lat.sylow_index[c.q]) == 1, name
        i = lat.sylow_index[c.q][0]
        assert lat.normal_flags[i], name


def scan_state(g, lat, cfg):
    # a group's scan state with order_class off; what positions 1 and 2
    # prune goes to a tally of its own
    return _ScanState(g, lat, cfg, None, dict.fromkeys(search_engine._TALLY_KEYS, 0))


def pair_prunable(g):
    lat = all_subgroups(g)
    state = scan_state(g, lat, SearchConfig.make(ineqs="dfz"))
    return lat, state.pair_prunable


def test_prune_applicable_matches_oracle(cat):
    # the pair-prune rule fires exactly when the product set is a subgroup
    g = cat.realize("S4")
    lat, prunable = pair_prunable(g)
    elems = [tuple(p.images) for p in g.elements]
    members = [{elems[i] for i in s.member_indices()} for s in lat.subgroups]
    for i, hs in enumerate(members):
        for j, ks in enumerate(members):
            closed = oracles.is_closed_under_mul(oracles.product_set(hs, ks))
            assert prunable[i, j] == closed, (i, j)

    assert pair_prunable(cat.realize("C12"))[1].all()

    # |Gi||Gj| = |Gi ∩ Gj|·|Gi ∨ Gj| against the explicit product check;
    # S5's 156 subgroups make the joins come in bands of rows, so it is
    # checked on a sample of pairs
    for order in range(1, 25):
        for name in cat.by_order.get(order, ()):
            lat, prunable = pair_prunable(cat.realize(name))
            for i, h in enumerate(lat.subgroups):
                for j, k in enumerate(lat.subgroups):
                    assert prunable[i, j] == product_is_subgroup(h, k), (name, i, j)
    lat, prunable = pair_prunable(cat.realize("S5"))
    rng = random.Random(5)
    for _ in range(300):
        i, j = rng.randrange(len(lat)), rng.randrange(len(lat))
        assert prunable[i, j] == product_is_subgroup(lat.subgroups[i], lat.subgroups[j]), (i, j)


def tuple_key(g, lat):
    # oracles.canonical_tuple_key on plain permutation tuples
    elems = [tuple(p.images) for p in g.elements]

    def members(subs):
        return [frozenset(elems[i] for i in s.member_indices()) for s in subs]

    lattice = members(lat.subgroups)
    return lambda subs: oracles.canonical_tuple_key(elems, lattice, members(subs))


def symmetry_orbits(g, lat, witnesses):
    # each witness's orbit under conjugation and its inequality's variable
    # symmetries, as (inequality id, least conjugacy key over the orbit)
    key = tuple_key(g, lat)
    out = set()
    for w in witnesses:
        t = [g.subgroup(mask) for mask in w.masks]
        form = oracles.expand_inequality(_BUILTIN_TEXTS[w.inequality_id])
        out.add((w.inequality_id,
                 min(key([t[j] for j in p] + t[len(p):])
                     for p in oracles.variable_symmetries(form))))
    return out


def test_scan_s4_finds_reference_witnesses(cat, lattice_for):
    g = cat.realize("S4")
    lat = lattice_for("S4")
    cfg = SearchConfig.make(ineqs="dfz", prune="all")
    witnesses, report = scan_group(g, cfg, lat)
    assert report.tuples_total == len(lat.subgroups) ** 5 == 24_300_000
    report.check_invariant()
    ids = sorted({w.inequality_id for w in witnesses})
    assert ids == ["dfz1", "dfz3"]
    assert len(witnesses) == 4
    assert sum(1 for w in witnesses if w.inequality_id == "dfz1") == 3
    for w in witnesses:
        assert w.lhs_product > w.rhs_product
        assert w.group_name == "S4"

    # both named reference tuples occur among the witnesses up to conjugacy
    key = tuple_key(g, lat)
    keys = {w.inequality_id: set() for w in witnesses}
    for w in witnesses:
        keys[w.inequality_id].add(key([g.subgroup(m) for m in w.masks]))
    for name, iid in (("s4-dfz1", "dfz1"), ("s4-dfz3", "dfz3")):
        _, subs = realize_paper_tuple(name)
        assert key([g.subgroup(s.mask) for s in subs]) in keys[iid], name


@pytest.fixture(scope="module")
def a5():
    g = realize(alternating(5))
    return g, all_subgroups(g)


def test_scan_a5_pinned(a5):
    # A5 is the first group where ineq_symmetry drops witnesses: 12 under
    # conjugacy alone, 9 with every rule. Up to conjugacy and each
    # inequality's variable symmetries the two lists are the same
    g, lat = a5
    assert (g.order, len(lat.subgroups)) == (60, 59)
    full, rep = scan_group(g, SearchConfig.make(ineqs="dfz"), lat)
    conj, _ = scan_group(g, SearchConfig.make(ineqs="dfz", prune="conjugacy"), lat)
    assert Counter(w.inequality_id for w in full) == {
        "dfz1": 4, "dfz3": 2, "dfz10": 2, "dfz9": 1}
    assert (rep.tuples_evaluated, rep.equality_cases, rep.violations_found) == (
        9_058_697, 490_308, 9)
    rep.check_invariant()
    assert len(conj) == 12
    assert {w.sort_key() for w in full} <= {w.sort_key() for w in conj}
    # each rule keeps the least tuple of its own orbits, so two of the
    # nine can share a joint orbit
    assert symmetry_orbits(g, lat, full) == symmetry_orbits(g, lat, conj)
    assert len(symmetry_orbits(g, lat, full)) == 8


def test_a5_prune_subsets_keep_conjugacy_orbits(a5):
    # every prune subset with conjugacy finds the conjugacy-only witnesses
    # up to each inequality's variable symmetries. The rules are filters
    # on the tuple, so with ineq_symmetry the witnesses are exactly the
    # conjugacy-only ones that no variable symmetry maps to a smaller
    # tuple of lattice indices: 9 of the 12 (dfz1 4 of 6, dfz9 1 of 2).
    # On S4 that rule drops no witness, so only a group like A5 shows a
    # symmetry filter that keeps too few tuples or too many
    g, lat = a5

    def least(w):
        t = [lat.index[mask] for mask in w.masks]
        form = oracles.expand_inequality(_BUILTIN_TEXTS[w.inequality_id])
        return all([t[j] for j in p] + t[len(p):] >= t
                   for p in oracles.variable_symmetries(form))

    conj, _ = scan_group(g, SearchConfig.make(ineqs="dfz", prune="conjugacy"), lat)
    kept = [w for w in conj if least(w)]
    assert (len(conj), len(kept)) == (12, 9)
    assert symmetry_orbits(g, lat, kept) == symmetry_orbits(g, lat, conj)
    others = ("theory_common_info", "order_class", "ineq_symmetry")
    for extra in itertools.chain.from_iterable(
            itertools.combinations(others, k) for k in range(1, len(others) + 1)):
        cfg = SearchConfig.make(ineqs="dfz", prune=("conjugacy",) + extra, jobs=2)
        witnesses, report = scan_group(g, cfg, lat)
        report.check_invariant()
        expected = kept if "ineq_symmetry" in extra else conj
        assert [w.sort_key() for w in witnesses] == [w.sort_key() for w in expected], extra


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_canon_paths_agree(cat, lattice_for, a5, name):
    # dfz1, dfz2, dfz6, dfz8 and dfz9 all have variable symmetries, so a
    # scan of them builds full canon masks; with dfz3 (none) among them
    # every live cell is evaluated and each symmetric plan is filtered at
    # its own tight and violating cells. Both ways, each inequality counts
    # the same tuples
    g, lat = a5 if name == "A5" else (cat.realize(name), lattice_for(name))
    sym, alone, mixed = ("dfz1,dfz2,dfz6,dfz8,dfz9", "dfz3",
                         "dfz1,dfz2,dfz3,dfz6,dfz8,dfz9")
    assert [scan_state(g, lat, SearchConfig.make(ineqs=i)).canon_masks
            for i in (sym, alone, mixed)] == [True, False, False]
    (sym_w, sym), (alone_w, alone), (mixed_w, mixed) = (
        scan_group(g, SearchConfig.make(ineqs=i), lat) for i in (sym, alone, mixed))
    assert mixed.equality_cases == sym.equality_cases + alone.equality_cases
    assert mixed.violations_found == sym.violations_found + alone.violations_found
    assert mixed.tuples_evaluated == alone.tuples_evaluated
    assert mixed.tuples_pruned_by_rule["ineq_symmetry"] == 0
    assert sym.tuples_pruned_by_rule["ineq_symmetry"] > 0
    assert mixed_w == sorted(sym_w + alone_w, key=lambda w: w.sort_key())


def test_scan_witnesses_reevaluate(cat, lattice_for):
    g = cat.realize("S4")
    witnesses, _ = scan_group(g, SearchConfig.make(ineqs="dfz"), lattice_for("S4"))
    for w in witnesses:
        subs = [g.subgroup(m) for m in w.masks]
        v = evaluate(builtin(w.inequality_id), entropy_vector(g, subs))
        assert not v.holds
        assert (v.lhs_product, v.rhs_product) == (w.lhs_product, w.rhs_product)
        assert w.subset_orders.order([1]) == subs[0].order


def test_scan_prune_variants_agree(cat, lattice_for):
    g = cat.realize("S4")
    lat = lattice_for("S4")
    full, _ = scan_group(g, SearchConfig.make(ineqs="dfz", prune="all"), lat)
    conj_only, rep = scan_group(g, SearchConfig.make(ineqs="dfz", prune="conjugacy"), lat)
    assert [w.sort_key() for w in full] == [w.sort_key() for w in conj_only]
    assert rep.tuples_pruned_by_rule["theory_common_info"] == 0
    assert rep.tuples_pruned_by_rule["ineq_symmetry"] == 0


def test_conjugacy_keeps_one_tuple_per_orbit(cat, lattice_for):
    # Burnside: G acting by simultaneous conjugation on n-tuples of
    # subgroups has (1/|G|)·Σ_x fix(x)^n orbits, where fix(x) is the
    # number of subgroups x normalizes
    cases = 0
    for order in range(1, 25):
        for name in cat.by_order.get(order, ()):
            g = cat.realize(name)
            lat = lattice_for(name)
            m = len(lat.subgroups)
            fix = [int(f) for f in (lat.conjugation_table() == np.arange(m)).sum(axis=1)]
            for ineqs, n in (("ingleton", 4), ("dfz3", 5)):
                if n == 5 and m > 12:
                    continue
                _, rep = scan_group(g, SearchConfig.make(ineqs=ineqs, prune="conjugacy"), lat)
                orbits, rest = divmod(sum(f ** n for f in fix), g.order)
                assert rest == 0, (name, n)
                assert rep.tuples_evaluated == orbits, (name, n)
                cases += 1
    assert cases == 118


def _force_pool(monkeypatch):
    # below search_engine._POOL_CELLS planned cells a run stays inline at
    # every jobs; a threshold of 0 makes every jobs >= 2 run fork its pool
    monkeypatch.setattr(search_engine, "_POOL_CELLS", 0)


def _count_pools(monkeypatch):
    # the worker counts of the pools _run starts; forked workers are real
    made = []
    real = search_engine._fork_pool

    def counting_pool(workers):
        made.append(workers)
        return real(workers)

    monkeypatch.setattr(search_engine, "_fork_pool", counting_pool)
    return made


def test_scan_workers_deterministic(cat, lattice_for, monkeypatch):
    _force_pool(monkeypatch)
    g = cat.realize("S4")
    lat = lattice_for("S4")
    w1, r1 = scan_group(g, SearchConfig.make(ineqs="dfz", jobs=1), lat)
    w4, r4 = scan_group(g, SearchConfig.make(ineqs="dfz", jobs=4), lat)
    assert [w.sort_key() for w in w1] == [w.sort_key() for w in w4]
    assert w1 == w4
    assert r1.tuples_total == r4.tuples_total
    assert r1.tuples_pruned_by_rule == r4.tuples_pruned_by_rule
    assert r1.tuples_evaluated == r4.tuples_evaluated
    assert r1.violations_found == r4.violations_found
    assert r1.equality_cases == r4.equality_cases


def test_scan_a4_exhaustive_no_pruning(cat, lattice_for):
    g = cat.realize("A4")
    lat = lattice_for("A4")
    witnesses, report = scan_group(g, SearchConfig.make(ineqs="dfz", prune="none"), lat)
    assert witnesses == []
    assert report.tuples_total == len(lat.subgroups) ** 5 == 100_000
    assert report.tuples_evaluated == report.tuples_total
    assert all(v == 0 for v in report.tuples_pruned_by_rule.values())
    report.check_invariant()


@pytest.mark.parametrize("name, ineqs", [("S3", "dfz"), ("A4", "ingleton"),
                                         ("Q8", "all")])
def test_scan_counts_match_evaluate(cat, lattice_for, name, ineqs):
    # the block kernel's per-tuple verdicts against the reference
    # evaluator; with "all", ingleton's sides never reach position 5
    g = cat.realize(name)
    lat = lattice_for(name)
    cfg = SearchConfig.make(ineqs=ineqs, prune="none")
    _, report = scan_group(g, cfg, lat)
    specs = [builtin(i) for i in cfg.inequality_ids]
    violations = equalities = 0
    for subs in itertools.product(lat.subgroups, repeat=cfg.tuple_arity):
        ev = entropy_vector(g, subs)
        for spec in specs:
            v = evaluate(spec, ev)
            violations += not v.holds
            equalities += v.lhs_product == v.rhs_product
    assert report.tuples_evaluated == len(lat.subgroups) ** cfg.tuple_arity
    assert (report.violations_found, report.equality_cases) == (violations, equalities)


# groups outside the catalog that the tests scan, by name
EXTRA_GROUPS = {"C5xS3": direct_product(cyclic(5), symmetric(3))}


def group_and_lattice(cat, lattice_for, name):
    if name in EXTRA_GROUPS:
        g = realize(EXTRA_GROUPS[name])
        return g, all_subgroups(g)
    return cat.realize(name), lattice_for(name)


@pytest.mark.parametrize("name, ineqs, prune", [
    ("S3", "dfz", "ineq_symmetry"), ("A4", "ingleton", "ineq_symmetry"),
    ("Q8", "dfz8", "ineq_symmetry"),
    ("A4", "dfz2,dfz6,dfz8", "ineq_symmetry,order_class"),
    ("C5xS3", "ingleton", "ineq_symmetry")])
def test_ineq_symmetry_counts_match_oracle(cat, lattice_for, name, ineqs, prune):
    # the canon masks against a from-scratch count of orbit-least tuples
    # under each inequality's variable symmetries (dfz8 has 11 besides
    # the identity). With dfz3 among the ten nothing is pruned, but each
    # inequality's equalities and violations still count only its own
    # least tuples. On A4 order_class keeps positions 1 and 2 at order 3,
    # and an image outside that region does not prune. C5xS3's order has
    # three distinct primes, so its integer logs weigh three of them.
    g, lat = group_and_lattice(cat, lattice_for, name)
    cfg = SearchConfig.make(ineqs=ineqs, prune=prune)
    _, report = scan_group(g, cfg, lat)
    region = order_class(g).pair_order if "order_class" in prune else None
    specs = [builtin(i) for i in cfg.inequality_ids]
    forms = [oracles.expand_inequality(_BUILTIN_TEXTS[s.id]) for s in specs]
    assert [len(oracles.variable_symmetries(f)) for f in forms] == [
        len(search_engine._compile_spec(s, cfg.tuple_arity).sym_sources) + 1
        for s in specs]

    @functools.lru_cache(maxsize=1)
    def vector(t):
        return entropy_vector(g, [lat.subgroups[i] for i in t])

    def verdict(t, k):
        v = evaluate(specs[k], vector(t))
        return v.holds, v.lhs_product == v.rhs_product

    def domain(t):
        return region is None or all(lat.subgroups[i].order == region for i in t[:2])

    want = oracles.symmetry_quotient_counts(len(lat.subgroups), cfg.tuple_arity,
                                            forms, verdict, domain)
    outside = report.tuples_total - want["evaluated"] - want["pruned"]
    assert report.tuples_pruned_by_rule["order_class"] == outside
    assert (region is not None) == (outside > 0)
    assert (report.tuples_evaluated, report.tuples_pruned_by_rule["ineq_symmetry"],
            report.equality_cases, report.violations_found) == (
        want["evaluated"], want["pruned"], want["equalities"], want["violations"])
    report.check_invariant()


def test_meet_table_past_eight_bits():
    # C2^5 has 374 subgroups, so lattice indexes need 16 bits; the scan
    # reads the lattice's own meet table
    g = realize(functools.reduce(direct_product, [cyclic(2)] * 5))
    lat = all_subgroups(g)
    masks = [s.mask for s in lat.subgroups]
    assert len(masks) == 374
    assert lat.meet.dtype == np.uint16
    assert lat.meet.tolist() == [[lat.index[x & y] for y in masks] for x in masks]
    state = scan_state(g, lat, SearchConfig.make(ineqs="dfz", prune="none"))
    assert state.meet is lat.meet


def test_block_memory_stays_lean(cat, lattice_for):
    # an S4 dfz block holds the rows of two or three prefixes, up to
    # 72 x 30 x 30 cells; the int16 kernel gathers the three dfz terms on
    # all three block axes at once, and peaks near 1.05 MB traced here
    g, lat = cat.realize("S4"), lattice_for("S4")
    cfg = SearchConfig.make(ineqs="dfz")
    scan_group(g, cfg, lat)   # compile and cache the plans first
    tracemalloc.start()
    try:
        witnesses, _ = scan_group(g, cfg, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(witnesses) == 4
    assert peak < 1.6e6, peak


def alive_reference(table, low, fix, chosen, c):
    """Per D index, the bitmask of the E indices that the conjugacy rule
    kills after prefix `chosen` and C subgroup c: a cell dies when some x
    normalizing the prefix's subgroups and Gc moves Gd lower, or
    normalizes Gd too and moves Ge lower. Plain Python on the
    conjugation table; low[x] and fix[x] are the bitmasks of the
    subgroups that x moves lower and that it normalizes."""
    m = len(table[0])
    xs = [x for x, row in enumerate(table) if all(row[s] == s for s in (*chosen, c))]
    lines = 0
    for x in xs:
        lines |= low[x]
    out = []
    for d in range(m):
        dead = (1 << m) - 1 if lines >> d & 1 else 0
        for x in xs:
            if fix[x] >> d & 1:
                dead |= low[x]
        out.append(dead)
    return out


def block_prefixes(st, pre):
    # a block's prefixes, each as (its subgroups, its row count), in order
    return [(tuple(st.chosen[k].tolist()), len(list(rows)))
            for k, rows in itertools.groupby(pre.tolist())]


@pytest.mark.parametrize("name", ["S4", "A5", "D16"])
@pytest.mark.parametrize("budget", ["default", "2m2"])
def test_conjugacy_alive_matches_reference(cat, lattice_for, a5, monkeypatch, name, budget):
    # every block of the dfz scans of S4, A5 and D16 (which ties SD16 for
    # the most movers among the survey's scans), at the default block
    # budget and at 2·m² cells, where blocks split a prefix's rows: the
    # live-cell mask against a plain-Python one, cell by cell. At the
    # default budget an S4 block holds the rows of two or more prefixes
    g, lat = a5 if name == "A5" else (cat.realize(name), lattice_for(name))
    m = len(lat)
    if budget == "2m2":
        monkeypatch.setattr(search_engine, "_BLOCK_CELLS", 2 * m * m)
    st = search_engine._plan(g, SearchConfig.make(ineqs="dfz"), lat).state
    table = lat.conjugation_table().tolist()
    low = [sum(1 << s for s in range(m) if row[s] < s) for row in table]
    fix = [sum(1 << s for s in range(m) if row[s] == s) for row in table]
    seen = []

    def check(st, pre, dom_c, tally, cells):
        alive = search_engine._conjugacy_alive(st, pre, dom_c)
        if alive is None:
            alive = np.ones((len(dom_c), m, m), dtype=bool)
        # got[r][d]: the bitmask of row r's dead E indices at d
        got = [[int.from_bytes(b.tobytes(), "little") for b in row]
               for row in np.packbits(~alive, axis=2, bitorder="little")]
        want = [alive_reference(table, low, fix, st.chosen[k].tolist(), c)
                for k, c in zip(pre.tolist(), dom_c.tolist())]
        assert got == want
        seen.append(len(block_prefixes(st, pre)))

    monkeypatch.setattr(search_engine, "_evaluate_block", check)
    for i in range(len(st.tasks)):
        search_engine._scan_task(st, i)
    assert seen
    if (name, budget) == ("S4", "default"):
        assert max(seen) >= 2


@pytest.mark.parametrize("name, ineqs, prune", [("S4", "dfz", "all"),
                                                ("A4", "ingleton", "none"),
                                                ("A4", "all", "none")],
                         ids=["S4-dfz", "A4-ingleton-none", "A4-all-none"])
def test_plan_value_matches_plain_sum(cat, lattice_for, monkeypatch, name, ineqs, prune):
    # every plan's value over every block of the scan, cell by cell,
    # against a plain int64 Σ_A c_A·ℓ(|G_A|), G_A the meet of the tuple's
    # subgroups at the positions in A, read from the lattice's meet table.
    # An S4 dfz block holds the rows of two or three prefixes; A4 ingleton
    # runs in int8, where degree·ℓ(|G|) = 125; A4 with every inequality at
    # arity 5 holds a plan whose value lacks the E axis (ingleton) and
    # subsets that the plans weigh with different coefficients
    g, lat = cat.realize(name), lattice_for(name)
    st = search_engine._plan(g, SearchConfig.make(ineqs=ineqs, prune=prune), lat).state
    w = log_weights(g.order, max(p.degree for p in st.plans))
    ells = np.array([sum(e * w[p] for p, e in prime_factors(s.order).items())
                     for s in lat.subgroups], dtype=np.int64)
    meet, m = lat.meet.astype(np.int64), len(lat)
    plan_value, evaluate_block = search_engine._plan_value, search_engine._evaluate_block
    values, packed = [], []

    def record(*args):
        value = plan_value(*args)
        values.append(value.copy())
        return value

    def check(st, pre, dom_c, tally, cells):
        values.clear()
        evaluate_block(st, pre, dom_c, tally, cells)
        # a row per position n-2 subgroup; the last two positions span
        # the lattice
        rows = [(*st.chosen[k].tolist(), c) for k, c in zip(pre.tolist(), dom_c.tolist())]
        axes = [np.array(col)[:, None, None] for col in zip(*rows)]
        axes += [np.arange(m)[:, None], np.arange(m)]
        # none when the conjugacy rule kills every cell of the block
        assert len(values) in (0, len(st.plans))
        for plan, value in zip(st.plans, values):
            want = np.zeros((len(rows), m, m), dtype=np.int64)
            for subset, c in builtin(plan.spec_id).coeffs.items():
                at = functools.reduce(lambda x, i: meet[x, axes[i - 1]], sorted(subset), m - 1)
                want += c * ells[at]
            assert value.dtype == st.log_rows.dtype, plan.spec_id
            assert value.shape == want.shape and (value == want).all(), plan.spec_id
        packed.append(len(block_prefixes(st, pre)) if values else 0)

    monkeypatch.setattr(search_engine, "_plan_value", record)
    monkeypatch.setattr(search_engine, "_evaluate_block", check)
    for i in range(len(st.tasks)):
        search_engine._scan_task(st, i)
    assert any(packed)
    if name == "S4":
        assert max(packed) >= 2


def plain_descent(st, table):
    """The plan's prefix cuts in plain Python on the conjugation table
    (its identity row alone with conjugacy off): per position 1 to n-2,
    each prefix as (its subgroups, its stabilizer, the subgroups it keeps
    at that position), and the tally of the cuts. The pair rule cuts s at
    position 2 when G1 Gs is a subgroup, else the conjugacy rule cuts s
    when some x in the prefix's stabilizer moves Gs lower; the prefix
    extended by s has the x of that stabilizer that normalize Gs."""
    tally = dict.fromkeys(search_engine._TALLY_KEYS, 0)
    level, out = [((), list(range(len(table))))], []
    for depth in range(st.n - 2):
        out.append([])
        for prefix, stab in level:
            kept = []
            for s in st.domains[depth].tolist():
                if depth == 1 and st.pair_prunable is not None and st.pair_prunable[prefix[0], s]:
                    tally["theory_common_info"] += st.tails[depth]
                elif any(table[x][s] < s for x in stab):
                    tally["conjugacy"] += st.tails[depth]
                else:
                    kept.append(s)
            out[-1].append((prefix, stab, kept))
        level = [((*prefix, s), [x for x in stab if table[x][s] == s])
                 for prefix, stab, kept in out[-1] for s in kept]
    return out, tally


def test_plan_makes_tasks_of_class_representatives(cat, lattice_for):
    # at position 1 the conjugacy rule keeps the least subgroup of each
    # class and charges the rest; _plan makes tasks of those that have a
    # row. Against plain Python on the conjugation table: s is cut when
    # some x moves Gs lower, and the plan's conjugacy charge is position
    # 1's cuts plus position 2's, s cut under f's stabilizer unless the
    # pair rule cut it, plus position 3's
    g, lat = cat.realize("S4"), lattice_for("S4")
    cfg = SearchConfig.make(ineqs="dfz")
    plan = search_engine._plan(g, cfg, lat)
    st, m = plan.state, len(lat)
    table = lat.conjugation_table().tolist()
    classes = {frozenset(row[s] for row in table) for s in range(m)}
    firsts = [s for s in range(m) if all(row[s] >= s for row in table)]
    descent, _ = plain_descent(st, table)
    assert descent[0][0][2] == firsts
    assert sorted(firsts) == sorted(min(c) for c in classes)
    with_rows = sorted({prefix[0] for prefix, _, kept in descent[2] if kept})
    assert [st.chosen[lo, 0] for lo, _ in st.tasks] == with_rows
    assert len(with_rows) < len(firsts)
    second = sum(not st.pair_prunable[f, s] and any(table[x][s] < s for x in stab)
                 for (f,), stab, _ in descent[1] for s in range(m))
    third = sum(m - len(kept) for *_, kept in descent[2])
    assert plan.tally["conjugacy"] == ((30 - len(classes)) * 30 ** 4 + second * 30 ** 3
                                       + third * 30 ** 2)
    _, report = scan_group(g, cfg, lat)
    assert report.tuples_pruned_by_rule == {
        "theory_common_info": 6_129_000, "order_class": 0,
        "conjugacy": 17_644_860, "ineq_symmetry": 0}


def test_plan_prunes_positions_1_and_2_once(cat, lattice_for, monkeypatch):
    # _plan cuts each of positions 1 to n-2 with one _cut call for all of
    # its prefixes and charges the cuts to the plan's tally, which equals
    # the plain count of plain_descent; its prefixes, their movers and
    # the subgroups they keep at position n-2 equal the plain ones. A
    # task's scan calls _cut not at all, at arity 5 and at arity 4
    # (S4 ingleton)
    depths = []
    real = search_engine._cut
    monkeypatch.setattr(search_engine, "_cut", lambda st, depth, *args: (
        depths.append(depth), real(st, depth, *args))[1])
    for name, ineqs, prune in (("S4", "dfz", "all"), ("A4", "dfz", "order_class,conjugacy"),
                               ("S4", "dfz", "theory_common_info"),
                               ("S4", "ingleton", "all")):
        g, lat = cat.realize(name), lattice_for(name)
        cfg = SearchConfig.make(ineqs=ineqs, prune=prune)
        depths.clear()
        plan = search_engine._plan(g, cfg, lat)
        st = plan.state
        assert depths == list(range(cfg.tuple_arity - 2)), (name, prune)
        table = (lat.conjugation_table() if "conjugacy" in cfg.prune_flags
                 else np.arange(len(lat))[None, :]).tolist()
        descent, want = plain_descent(st, table)
        want["order_class"] = plan.tally["order_class"]
        assert plan.tally == want, (name, prune)
        if (ineqs, prune) == ("dfz", "all"):
            assert plan.tally["theory_common_info"] == 6_129_000
        last = descent[-1]
        assert st.chosen.tolist() == [list(prefix) for prefix, *_ in last]
        assert st.movers.tolist() == [[x in stab and any(s < i for i, s in enumerate(row))
                                       for x, row in enumerate(table)] for _, stab, _ in last]
        dom = st.domains[cfg.tuple_arity - 3].tolist()
        assert [[dom[c] for c in np.flatnonzero(k)] for k in st.keep] == \
            [kept for *_, kept in last]
        depths.clear()
        for i in range(len(st.tasks)):
            search_engine._scan_task(st, i)
        assert depths == [], (name, prune)


def test_position_3_survivors_match_plain_loop(cat, lattice_for, monkeypatch):
    # each arity-5 prefix (f, s) of S4 dfz: its subgroups, meets, movers
    # and position 3 survivors in the plan's flat arrays against a plain
    # loop, c cut when some x in f's stabilizer has fixes[x, s] and
    # table[x, c] < c, and the conjugacy charge of the position 3 cut
    # against the plain count
    g, lat = cat.realize("S4"), lattice_for("S4")
    m = len(lat)
    table = lat.conjugation_table().tolist()
    charged = []
    real = search_engine._cut

    def cut(st, depth, stabs, tally, *rest):
        before = tally["conjugacy"]
        keep = real(st, depth, stabs, tally, *rest)
        if depth == 2:
            charged.append(tally["conjugacy"] - before)
        return keep

    monkeypatch.setattr(search_engine, "_cut", cut)
    plan = search_engine._plan(g, SearchConfig.make(ineqs="dfz"), lat)
    st = plan.state
    pairs = [(f, s) for f in range(m) if all(row[f] >= f for row in table)
             for s in range(m) if not st.pair_prunable[f, s]
             and not any(table[x][s] < s for x in range(g.order) if table[x][f] == f)]
    assert st.chosen.tolist() == [list(p) for p in pairs]
    cut_n = 0
    for k, (f, s) in enumerate(pairs):
        sub = [x for x in range(g.order) if table[x][f] == f and table[x][s] == s]
        assert np.flatnonzero(st.movers[k]).tolist() == \
            [x for x in sub if any(table[x][c] < c for c in range(m))]
        assert st.prefix_meets[k].tolist() == [m - 1, f, s, lat.meet[f, s]]
        want = [c for c in range(m) if not any(table[x][c] < c for x in sub)]
        assert np.flatnonzero(st.keep[k]).tolist() == want
        cut_n += m - len(want)
    assert cut_n and charged == [cut_n * m * m]


def test_tasks_partition_the_rows(cat, lattice_for, monkeypatch):
    # a task is the prefix range of one position 1 subgroup, and only a
    # subgroup with rows makes one: the ranges ascend, share no position 1
    # subgroup, each holds a row, and their blocks give every row of the
    # plan (every kept cell of st.keep) once, in order. S4 dfz has 7
    # tasks and survey 2..23 dfz 39
    cfg = SearchConfig.make(ineqs="dfz")
    rows = []
    monkeypatch.setattr(search_engine, "_evaluate_block",
                        lambda st, pre, dom_c, tally, cells: rows.append((pre, dom_c)))

    def tasks(name):
        st = search_engine._plan(cat.realize(name), cfg, lattice_for(name)).state
        if st is None:
            return 0
        bounds = [b for task in st.tasks for b in task]
        assert bounds == sorted(bounds)
        assert all(st.keep[lo:hi].any() for lo, hi in st.tasks)
        firsts = [st.chosen[lo:hi, 0].tolist() for lo, hi in st.tasks]
        assert all(len(set(f)) == 1 for f in firsts)
        assert len({f[0] for f in firsts}) == len(firsts)
        rows.clear()
        for i in range(len(st.tasks)):
            search_engine._scan_task(st, i)
        pre, c = np.nonzero(st.keep)
        assert [r for p, _ in rows for r in p.tolist()] == pre.tolist()
        assert [r for _, d in rows for r in d.tolist()] == \
            st.domains[cfg.tuple_arity - 3][c].tolist()
        return len(st.tasks)

    assert tasks("S4") == 7
    assert sum(tasks(n) for o in range(2, 24) for n in cat.by_order.get(o, ())) == 39


@pytest.mark.parametrize("name, ineqs, prune", [
    ("S4", "dfz", "all"), ("S4", "ingleton", "all"), ("A4", "ingleton", "all"),
    ("S4", "all", "all"), ("A4", "dfz", "none")],
    ids=["S4-dfz", "S4-ingleton", "A4-ingleton", "S4-all", "A4-dfz-none"])
def test_block_splitting_keeps_results(cat, lattice_for, monkeypatch, name, ineqs, prune):
    # a block is a slice of up to _BLOCK_CELLS cells of one task's rows. A
    # budget below one (D, E) slice gives each row a block of its own;
    # 2·m² cells end blocks inside a prefix's rows; 2**17 cells hold the
    # rows of several prefixes in one block, each row with its own
    # prefix. S4 with every inequality mixes arities 4 and 5, and A4 with
    # no prune rule has no stabilizer to skip
    g, lat = cat.realize(name), lattice_for(name)
    m = len(lat.subgroups)
    cfg = SearchConfig.make(ineqs=ineqs, prune=prune)
    whole, whole_rep = scan_group(g, cfg, lat)
    whole_rep.wall_time = 0.0
    real = search_engine._evaluate_block
    for budget in (3, 2 * m * m, 1 << 17):
        blocks = []

        def evaluate_block(st, pre, dom_c, tally, cells):
            blocks.append(block_prefixes(st, pre))
            real(st, pre, dom_c, tally, cells)

        monkeypatch.setattr(search_engine, "_evaluate_block", evaluate_block)
        monkeypatch.setattr(search_engine, "_BLOCK_CELLS", budget)
        split, split_rep = scan_group(g, cfg, lat)
        assert [w.sort_key() for w in split] == [w.sort_key() for w in whole], budget
        split_rep.wall_time = 0.0
        assert split_rep == whole_rep, budget
        rows = [sum(n for _, n in b) for b in blocks]
        assert max(rows) <= max(1, budget // (m * m)), budget
        if budget == 2 * m * m:   # a prefix's rows carry on into the next block
            assert any(a[-1][0] == b[0][0] for a, b in zip(blocks, blocks[1:]))
        if budget == 1 << 17:
            # a block holds rows of several prefixes; at arity 4 a task has
            # one prefix, its first subgroup
            assert (max(len(b) for b in blocks) > 1) == (cfg.tuple_arity == 5)


@pytest.mark.parametrize("name, ineqs, prune", [
    ("S3", "dfz", "ineq_symmetry"), ("A4", "ingleton", "ineq_symmetry"),
    ("Q8", "dfz8", "ineq_symmetry"),
    ("A4", "dfz2,dfz6,dfz8", "ineq_symmetry,order_class"),
    ("C5xS3", "ingleton", "ineq_symmetry"), ("S4", "dfz", "all")])
def test_product_canon_matches_symmetry_chains(cat, lattice_for, monkeypatch, name, ineqs,
                                               prune):
    # ingleton, dfz1, dfz8 and dfz9 have symmetries that are full products
    # of symmetric groups on position blocks, so a block counts a cell as
    # canonical when it ascends along each block, one pair per chain; with
    # the detection off every symmetry is a chain of its own, and the
    # tallies agree
    g, lat = group_and_lattice(cat, lattice_for, name)
    cfg = SearchConfig.make(ineqs=ineqs, prune=prune)
    plan = search_engine._plan(g, cfg, lat)
    st = plan.state
    ascents = {p.spec_id for p, k in zip(st.plans, st.sym_keys)
               if k and all(len(pairs) == 1 for pairs, _ in st.canons[k].chains)}
    assert ascents == set(cfg.inequality_ids) & {"ingleton", "dfz1", "dfz8", "dfz9"}
    witnesses, report = scan_group(g, cfg, lat)
    monkeypatch.setattr(search_engine, "_product_blocks", lambda key, restricted: None)
    plan = search_engine._plan(g, cfg, lat)
    assert all(len(c.chains) == len(k) for k, c in plan.state.canons.items())
    chained, chained_rep = scan_group(g, cfg, lat)
    assert chained == witnesses
    report.wall_time = chained_rep.wall_time = 0.0
    assert chained_rep == report


def canonical(t, key, restricted):
    # no symmetry image of t is lexicographically smaller; under
    # order_class an image whose positions 1 and 2 lack the restricted
    # order lies outside the scan space and does not count
    for src in key:
        image = tuple(t[i] for i in src)
        if restricted is not None and not (restricted[image[0]] and restricted[image[1]]):
            continue
        if image < t:
            return False
    return True


@pytest.mark.parametrize("name", ["S4", "A4"])
def test_canon_mask_matches_plain_comparison(lattice_for, monkeypatch, name):
    # _Canon.mask cell by cell against canonical(), on blocks whose rows
    # share values so that comparisons tie. The keys are product groups
    # (dfz8, ingleton), involutions that are not (dfz2, dfz6) and a 3-cycle
    # on positions 3..5, each with and without the product detection and
    # with positions 1 and 2 free or restricted to order 3
    lat = lattice_for(name)
    m = len(lat)
    orders = np.array([s.order for s in lat.subgroups])
    keys = [search_engine._compile_spec(builtin(i), 5).sym_sources
            for i in ("dfz2", "dfz6", "dfz8")]
    keys += [search_engine._compile_spec(builtin("ingleton"), 4).sym_sources,
             ((0, 1, 3, 4, 2), (0, 1, 4, 2, 3))]
    real = search_engine._product_blocks
    rng = random.Random(21)
    for key, restricted, blocks in itertools.product(keys, (None, orders == 3),
                                                     (real, lambda key, restricted: None)):
        monkeypatch.setattr(search_engine, "_product_blocks", blocks)
        canon = search_engine._Canon(key, m, restricted)
        n = len(key[0])
        dom = list(range(m)) if restricted is None else np.flatnonzero(restricted).tolist()
        for _ in range(3):
            # positions 1 and 2 from two shared values, position 3 (at
            # arity 5) from one of them or any subgroup
            shared = rng.sample(dom, 2)
            pools = [shared] * 2 + [[shared[0], rng.randrange(m)]] * (n - 4)
            rows = list(itertools.product(*pools))
            chosen = np.array([r[:-1] for r in rows], dtype=np.intp)
            c = np.array([r[-1] for r in rows], dtype=np.int64)
            got = np.broadcast_to(canon.mask(chosen, c), (len(rows), m, m))
            want = [[[canonical((*r, d, e), key, restricted) for e in range(m)]
                     for d in range(m)] for r in rows]
            assert (got == np.array(want)).all(), (key, restricted is not None)


def test_product_blocks():
    # the blocks of a product of symmetric groups; a group that is not one
    # (a double transposition alone), or a block that mixes positions 1-2
    # with later ones under order_class, gets None
    assert search_engine._product_blocks(((1, 0, 2, 3),), False) == [[0, 1]]
    assert search_engine._product_blocks(
        ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)), True) == [[0, 1], [2, 3]]
    assert search_engine._product_blocks(((1, 0, 3, 2),), False) is None
    assert search_engine._product_blocks(((2, 1, 0, 3),), False) == [[0, 2]]
    assert search_engine._product_blocks(((2, 1, 0, 3),), True) is None


def test_scan_exact_above_int64():
    # order 280 = 2^3·5·7 at degree 9 (dfz10): 280**9 > 2**63, so side
    # products would wrap in int64; the integer logs' weights must be exact
    # on that exponent box. Abelian groups satisfy every dfz inequality
    g = realize(direct_product(direct_product(cyclic(5), cyclic(7)), cyclic(8)))
    assert g.order ** 9 >= 2 ** 63
    witnesses, report = scan_group(g, SearchConfig.make(ineqs="dfz10", prune="none"))
    assert witnesses == []
    assert report.violations_found == 0
    assert report.tuples_evaluated == report.tuples_total == 16 ** 5


def log_weights(order, degree):
    signature = tuple(sorted(prime_factors(order).items()))
    return dict(zip((p for p, _ in signature),
                    search_engine._log_weights(signature, degree)))


def test_log_weights_match_oracle(cat):
    # every (order, degree) a catalog scan meets (degree 5 for ingleton
    # alone up to 9 with dfz10), and orders past int64 side products
    cases = [(order, degree) for order in cat.by_order for degree in range(5, 10)]
    cases += [(280, 9), (360, 9)]
    for order, degree in cases:
        assert oracles.log_weights_exact(order, degree, log_weights(order, degree)), (
            order, degree)


def test_log_tables_are_narrow(cat, lattice_for):
    # the least k whose w_p = round(k·log2 p) passes the proof, and
    # degree·ℓ(|G|) sets the type: int16 for S4 and S5, int8 for 2-groups
    # and for A4 ingleton, where degree·ℓ(|G|) = 5·(2·7 + 11) = 125.
    # log_rows is one (2m, m) table whatever the coefficients: row i is
    # ℓ(|Gi ∩ Gj|) over j, and row m + i repeats ℓ(|Gi|)
    for name, ineqs, weights, dtype in (("S4", "dfz", (12, 19), np.int16),
                                        ("S5", "ingleton", (53, 84, 123), np.int16),
                                        ("S5", "dfz", (152, 241, 353), np.int16),
                                        ("A4", "ingleton", (7, 11), np.int8),
                                        ("A4", "all", (12, 19), np.int16),
                                        ("D8", "dfz", (1,), np.int8),
                                        ("C16", "dfz", (1,), np.int8)):
        g, lat = cat.realize(name), lattice_for(name)
        st = scan_state(g, lat, SearchConfig.make(ineqs=ineqs))
        w = log_weights(g.order, max(p.degree for p in st.plans))
        assert tuple(w.values()) == weights, (name, ineqs)
        assert st.log_rows.dtype == np.dtype(dtype), (name, ineqs)
        logs = [sum(e * w[p] for p, e in prime_factors(s.order).items())
                for s in lat.subgroups]
        m = len(logs)
        rows = st.log_rows.tolist()
        assert len(rows) == 2 * m, (name, ineqs)
        assert rows[:m] == [[logs[j] for j in row] for row in st.meet.tolist()], (name, ineqs)
        assert rows[m:] == [[x] * m for x in logs], (name, ineqs)


def test_layout_keys_terms_by_subset(cat, lattice_for):
    # each term group lists a subset once, whatever coefficients the plans
    # give it: dfz's 47 (subset, coefficient) terms are 30 subsets. The
    # pick matrices hold each plan's coefficients, and the terms on all
    # three block axes are listed |c| times, added for c > 0
    st = scan_state(cat.realize("S4"), lattice_for("S4"), SearchConfig.make(ineqs="dfz"))
    groups = search_engine._layout(tuple(st.plans), st.n)
    assert [len(column) for _, column, _ in groups] == [7, 4, 4, 8, 4, 3]
    for j, (_, column, own) in enumerate(groups):
        for p, plan in enumerate(st.plans):
            coeffs = dict(plan.groups[j])
            if j < 5:
                assert sum(own[0][p] != 0) == len(coeffs), (plan.spec_id, j)
                assert sorted(own[0][p][own[0][p] != 0].tolist()) == sorted(coeffs.values())
            else:
                add, sub = own[p]
                assert len(add) == sum(c for c in coeffs.values() if c > 0), plan.spec_id
                assert len(sub) == -sum(c for c in coeffs.values() if c < 0), plan.spec_id


@pytest.mark.parametrize("order, degree, weights", [
    (24, 9, (1, 1)),     # 2 and 3 weigh the same
    (24, 9, (3, 2)),     # x = (2, -3) sums to 0, yet 2^2 != 3^3
    (24, 5, (2, 3)),     # x = (3, -2) sums to 0
    (24, 9, (20, 31)),   # x = (-14, 9) sums to -1, yet 3^9 > 2^14
    (24, 9, (0, 1)),     # a weight of 0 loses the power of 2
    (120, 5, (3, 5, 7)),
])
def test_log_weights_mutations_rejected(order, degree, weights):
    signature = tuple(sorted(prime_factors(order).items()))
    assert not search_engine._signs_agree(signature, degree, weights)
    assert not oracles.log_weights_exact(order, degree,
                                         dict(zip(sorted(prime_factors(order)), weights)))


def test_log_weights_search_is_bounded(monkeypatch):
    # a proof that rejects every proposal ends in an error naming the
    # signature and degree, after a fixed number of proposals, not a hang
    calls = []
    monkeypatch.setattr(search_engine, "_signs_agree", lambda *a: calls.append(a) and False)
    search_engine._log_weights.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"signature \(\(2, 3\), \(3, 1\)\) at degree 9"):
            search_engine._log_weights(((2, 3), (3, 1)), 9)
    finally:
        search_engine._log_weights.cache_clear()
    assert len(calls) == search_engine._LOG_WEIGHT_PROPOSALS


def test_signs_agree_matches_oracle():
    # the row-wise proof against the whole-box walk on random weights,
    # most of them wrong, for one-, two- and three-prime orders
    rng = random.Random(9)
    cases = [(8, 5), (24, 5), (24, 6), (12, 9), (30, 5), (1000, 5)]
    for order, degree in cases:
        signature = tuple(sorted(prime_factors(order).items()))
        exact = search_engine._log_weights(signature, degree)
        for _ in range(40):
            weights = tuple(max(1, w + rng.randint(-2, 2)) for w in exact)
            want = oracles.log_weights_exact(order, degree,
                                             dict(zip((p for p, _ in signature), weights)))
            assert search_engine._signs_agree(signature, degree, weights) == want, (
                order, degree, weights)


def test_scan_order_class_skips_everything(cat, lattice_for):
    g = cat.realize("C6")
    witnesses, report = scan_group(g, SearchConfig.make(ineqs="dfz"), lattice_for("C6"))
    assert witnesses == []
    assert report.tuples_evaluated == 0
    assert report.tuples_pruned_by_rule["order_class"] == report.tuples_total


def test_scan_order_class_not_licensed_for_ingleton(cat, lattice_for):
    # with ingleton selected the theory prunes must stay dark
    g = cat.realize("C6")
    witnesses, report = scan_group(
        g, SearchConfig.make(ineqs="ingleton"), lattice_for("C6"))
    assert witnesses == []
    assert report.tuples_pruned_by_rule["order_class"] == 0
    assert report.tuples_pruned_by_rule["theory_common_info"] == 0
    report.check_invariant()


def test_scan_theory_prunes_sound_on_d20(cat, lattice_for):
    g = cat.realize("D20")
    lat = lattice_for("D20")
    full, _ = scan_group(g, SearchConfig.make(ineqs="dfz", prune="all"), lat)
    conj, _ = scan_group(g, SearchConfig.make(ineqs="dfz", prune="conjugacy"), lat)
    assert full == conj == []


@pytest.mark.parametrize("gdef, kind, p, q", [
    pytest.param(semidirect_cyclic(11, 5, 3), "pq_safe", 5, 11, id="C11:C5"),
    pytest.param(semidirect_cyclic(13, 3, 3), "pq_safe", 3, 13, id="C13:C3"),
    pytest.param(semidirect_cyclic(7, 9, 2), "p2q_normal_sylow_q", 3, 7, id="C7:C9"),
    pytest.param(semidirect_cyclic(13, 4, 5), "p2q_normal_sylow_q", 2, 13, id="C13:C4"),
    pytest.param(dihedral(14), "p2q_normal_sylow_q", 2, 7, id="D28"),
    pytest.param(semidirect_cyclic(19, 9, 4), "p2q_normal_sylow_q", 3, 19, id="C19:C9"),
    pytest.param(dihedral(22), "p2q_normal_sylow_q", 2, 11, id="D44"),
    pytest.param(direct_product(cyclic(3), semidirect_cyclic(7, 3, 2)), "p2q_normal_sylow_q",
                 3, 7, id="C3x(C7:C3)"),
    pytest.param(dihedral(25), "pq2_normal_sylow_q", 2, 5, id="D50"),
    pytest.param(direct_product(cyclic(5), dihedral(5)), "pq2_normal_sylow_q", 2, 5,
                 id="C5xD10")])
def test_order_class_theorems_beyond_catalog(gdef, kind, p, q):
    # the theorems order_class trusts, on groups of order pq, p^2 q and
    # p q^2 past the catalog's orders: a conjugacy-only dfz scan finds no
    # violation, so skipping the group or shrinking positions 1 and 2 to
    # order p loses none, and the all-prunes scan agrees
    g = realize(gdef)
    lat = all_subgroups(g)
    c = order_class(g, lat)
    assert (c.kind, c.p, c.q) == (kind, p, q)
    conj, conj_rep = scan_group(g, SearchConfig.make(ineqs="dfz", prune="conjugacy"), lat)
    full, _ = scan_group(g, SearchConfig.make(ineqs="dfz"), lat)
    assert conj_rep.tuples_evaluated > 0
    assert conj == full == []


def test_scan_emit_limit(cat, lattice_for):
    g = cat.realize("S4")
    lat = lattice_for("S4")
    witnesses, report = scan_group(
        g, SearchConfig.make(ineqs="dfz", emit_limit=2), lat)
    assert len(witnesses) == 2
    assert report.violations_found == 4
    allw, _ = scan_group(g, SearchConfig.make(ineqs="dfz"), lat)
    assert witnesses == allw[:2]


def test_witness_ordering(cat, lattice_for):
    g = cat.realize("S4")
    witnesses, _ = scan_group(g, SearchConfig.make(ineqs="dfz"), lattice_for("S4"))
    keys = [w.sort_key() for w in witnesses]
    assert keys == sorted(keys)


def test_check_simultaneous_s4(cat, lattice_for):
    g = cat.realize("S4")
    lat = lattice_for("S4")
    assert check_simultaneous(g, (builtin("dfz1"), builtin("dfz3")), lat) == []
    same = check_simultaneous(g, (builtin("dfz1"), builtin("dfz1")), lat)
    assert len(same) == 3
    for subs in same:
        ev = entropy_vector(g, list(subs))
        assert not evaluate(builtin("dfz1"), ev).holds


def test_check_simultaneous_refuses_specs_it_does_not_scan(cat, lattice_for):
    # the scan reads each spec as builtin(spec.id): an unnamed spec has no
    # builtin, and one named dfz1 with other coefficients is not dfz1
    g, lat = cat.realize("S4"), lattice_for("S4")
    for pair in ((parse("H(X1) >= 0"), builtin("dfz1")),
                 (parse("H(X1) >= 0", id="dfz1"), builtin("dfz1")),
                 (builtin("dfz1"), parse(_BUILTIN_TEXTS["dfz3"], id="dfz1"))):
        with pytest.raises(ValueError, match="needs builtin"):
            check_simultaneous(g, pair, lat)


def test_check_simultaneous_never_fires(cat, lattice_for):
    # scan a spread of orders, not just S4; the pair never violates together
    for name in ("S3", "D8", "A4", "D12", "C7:C3", "S4", "SL(2,3)"):
        g = cat.realize(name)
        hits = check_simultaneous(g, (builtin("dfz1"), builtin("dfz3")),
                                  lattice_for(name))
        assert hits == [], name


def test_canonical_tuple_key(cat, lattice_for):
    g = cat.realize("S4")
    lat = lattice_for("S4")
    key = tuple_key(g, lat)
    ct = lat.conjugation_table()
    rng = random.Random(4)
    for _ in range(30):
        subs = tuple(rng.choice(lat.subgroups) for _ in range(4))
        x = rng.randrange(g.order)
        assert key([lat.subgroups[ct[x, lat.index[s.mask]]] for s in subs]) == key(subs)
    a = (lat.subgroups[1], lat.subgroups[2])
    b = (lat.subgroups[1], lat.subgroups[1])
    assert key(a) != key(b)


def test_lattice_of_another_group_refused(cat, lattice_for):
    # every entry point refuses a lattice built from another group before
    # any work: A4's lattice, and that of a second realization of S4,
    # which has S4's name and subgroups but is a different group object
    g = cat.realize("S4")
    other = realize(symmetric(4))
    assert other is not g
    cfg = SearchConfig.make(ineqs="dfz")
    pair = (builtin("dfz1"), builtin("dfz3"))
    for lat, name in ((lattice_for("A4"), "A4"), (all_subgroups(other), "S4")):
        msg = f"the subgroup lattice of {name} is not one of S4"
        with pytest.raises(ValueError, match=msg):
            scan_group(g, cfg, lat)
        with pytest.raises(ValueError, match=msg):
            check_simultaneous(g, pair, lat)
        with pytest.raises(ValueError, match=msg):
            order_class(g, lat)
    # in a survey the bad lattice is one group's error entry, and the
    # group given its own lattice scans as usual
    results = survey(cat, [6], cfg, lattice_for=lambda h: lattice_for("S3"))
    assert results["C6"].error == ("the subgroup lattice of S3 is not one of C6: "
                                   "it was built from another group object")
    assert results["C6"].report is None
    assert results["S3"].error is None and results["S3"].report is not None


def test_survey_small_orders(cat, lattice_for):
    cfg = SearchConfig.make(ineqs="dfz")
    results = survey(cat, range(2, 9), cfg,
                     lattice_for=lambda g: lattice_for(g.name))
    names = {n for o in range(2, 9) for n in cat.by_order.get(o, ())}
    assert set(results) == names
    for entry in results.values():
        assert entry.error is None
        assert entry.witness_count == 0
        assert entry.violated_ids == ()
        entry.report.check_invariant()


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_records_errors(monkeypatch, jobs):
    _force_pool(monkeypatch)

    # D8 is scanned (order 8 is neither pq nor p^2 q, and D8 is not
    # abelian), so at jobs 2 its tasks go through the pool
    class Broken:
        by_order = {8: ("ok", "broken")}

        def realize(self, name):
            if name == "broken":
                raise ValueError("deliberately unbuildable")
            return load_catalog().realize("D8")

    results = survey(Broken(), [8], SearchConfig.make(ineqs="dfz", jobs=jobs))
    assert results["ok"].error is None
    assert results["ok"].report.tuples_evaluated > 0
    assert "deliberately unbuildable" in results["broken"].error
    assert results["broken"].report is None


def test_survey_propagates_assertion_errors():
    # an internal consistency failure is a bug, not a bad catalog entry.
    # This one is raised while the survey sets up, before any task runs;
    # test_survey_propagates_scan_assertion_errors covers the pool
    class Inconsistent:
        by_order = {6: ("broken",)}

        def realize(self, name):
            raise AssertionError("deliberately inconsistent")

    with pytest.raises(AssertionError, match="deliberately inconsistent"):
        survey(Inconsistent(), [6], SearchConfig.make(ineqs="dfz"))


def _fail_scanning(monkeypatch, group_name, error):
    # forked workers inherit the patched module attribute
    real = search_engine._scan_task

    def scan_task(st, i):
        if st.group.name == group_name:
            raise error("deliberately failing scan")
        return real(st, i)

    monkeypatch.setattr(search_engine, "_scan_task", scan_task)


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_charges_scan_errors_to_their_group(cat, lattice_for, monkeypatch, jobs):
    _force_pool(monkeypatch)
    # order 12: A4 and D12 have tasks, Dic3 has no rows to scan and the two
    # abelian groups are not scanned
    _fail_scanning(monkeypatch, "D12", ValueError)
    results = survey(cat, [12], SearchConfig.make(ineqs="dfz", jobs=jobs),
                     lattice_for=lambda g: lattice_for(g.name))
    assert list(results) == list(cat.by_order[12])
    assert "deliberately failing scan" in results["D12"].error
    assert results["D12"].report is None
    for name, entry in results.items():
        if name != "D12":
            assert entry.error is None, name
            entry.report.check_invariant()
    assert results["A4"].report.tuples_evaluated > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_propagates_scan_assertion_errors(cat, lattice_for, monkeypatch, jobs):
    _force_pool(monkeypatch)
    _fail_scanning(monkeypatch, "D12", AssertionError)
    with pytest.raises(AssertionError, match="deliberately failing scan"):
        survey(cat, [12], SearchConfig.make(ineqs="dfz", jobs=jobs),
               lattice_for=lambda g: lattice_for(g.name))


def test_survey_forks_one_pool(cat, lattice_for, monkeypatch):
    # every scanned group's tasks share one pool; jobs 1 runs inline, and
    # so does jobs 2 at the default threshold, as survey 2..8 plans too
    # few cells to pay for a pool
    made = _count_pools(monkeypatch)
    for forced, jobs, pools in ((True, 1, 0), (True, 2, 1), (False, 2, 0)):
        made.clear()
        with monkeypatch.context() as m:
            if forced:
                _force_pool(m)
            results = survey(cat, range(2, 9), SearchConfig.make(ineqs="dfz", jobs=jobs),
                             lattice_for=lambda g: lattice_for(g.name))
        assert sum(e.report.tuples_evaluated for e in results.values()) > 0
        assert len(made) == pools, (forced, jobs)


def test_planned_cells_pinned(cat, lattice_for):
    # the bound the pool decision reads: (position 2 survivors) x
    # m**(n-2) per task, summed over the run
    def planned(names):
        cfg = SearchConfig.make(ineqs="dfz")
        plans = [search_engine._plan(cat.realize(n), cfg, lattice_for(n)) for n in names]
        return sum(p.state.cells for p in plans if p.state)

    assert planned(["S4"]) == 972_000
    assert planned([n for o in range(2, 24) for n in cat.by_order.get(o, ())]) == 1_742_349


def test_pool_starts_exactly_at_threshold(cat, lattice_for, monkeypatch):
    made = _count_pools(monkeypatch)
    g, lat = cat.realize("S4"), lattice_for("S4")
    cfg = SearchConfig.make(ineqs="dfz", jobs=2)
    outs = []
    for threshold, pools in ((972_001, 0), (972_000, 1)):
        made.clear()
        monkeypatch.setattr(search_engine, "_POOL_CELLS", threshold)
        outs.append(scan_group(g, cfg, lat)[0])
        assert made == [2] * pools, threshold
    assert outs[0] == outs[1]


def test_survey_deterministic_across_jobs(cat, lattice_for, monkeypatch):
    _force_pool(monkeypatch)
    one, two = (survey(cat, range(2, 24), SearchConfig.make(ineqs="dfz", jobs=jobs),
                       lattice_for=lambda g: lattice_for(g.name))
                for jobs in (1, 2))
    assert list(one) == list(two)
    for entry in list(one.values()) + list(two.values()):
        assert entry.error is None
        entry.report.wall_time = 0.0
    assert one == two


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_finds_s4_witnesses(lattice_for, monkeypatch, jobs):
    _force_pool(monkeypatch)

    class OnlyS4:
        by_order = {24: ("S4",)}

        def realize(self, name):
            return load_catalog().realize(name)

    results = survey(OnlyS4(), [24], SearchConfig.make(ineqs="dfz", jobs=jobs),
                     lattice_for=lambda g: lattice_for(g.name))
    assert results["S4"].witness_count == 4
    assert results["S4"].violated_ids == ("dfz1", "dfz3")


def test_prune_report_invariant_violation():
    from groupineq.search_engine import PruneReport
    rep = PruneReport(tuples_total=10,
                      tuples_pruned_by_rule={r: 0 for r in PRUNE_RULES},
                      tuples_evaluated=3, violations_found=0,
                      equality_cases=0, wall_time=0.0)
    with pytest.raises(AssertionError):
        rep.check_invariant()
