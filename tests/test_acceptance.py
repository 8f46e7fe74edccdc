"""One test per acceptance criterion; pytest -v gives a line for each."""

import random
import time
from fractions import Fraction
from functools import lru_cache

import oracles
import property_suites as ps
from groupineq.catalog import EXPECTED_CLASS_COUNTS, load_catalog, realize_paper_tuple
from groupineq.cli import witnesses_json
from groupineq.entropy_eval import entropy_vector, evaluate, gi
from groupineq.ineq_dsl import BUILTIN_IDS, builtin
from groupineq.perm_core import all_subgroups
from groupineq.search_engine import (
    SearchConfig,
    check_simultaneous,
    scan_group,
    survey,
)


@lru_cache(maxsize=None)
def _cat():
    return load_catalog()


@lru_cache(maxsize=None)
def _lat(name):
    g = _cat().realize(name)
    return g, all_subgroups(g)


@lru_cache(maxsize=None)
def _s4_scan(jobs):
    g, lat = _lat("S4")
    return scan_group(g, SearchConfig.make(ineqs="dfz", prune="all", jobs=jobs), lat)


@lru_cache(maxsize=None)
def _a4_exhaustive(jobs):
    g, lat = _lat("A4")
    return scan_group(g, SearchConfig.make(ineqs="dfz", prune="none", jobs=jobs), lat)


@lru_cache(maxsize=None)
def _survey(jobs):
    cfg = SearchConfig.make(ineqs="dfz", prune="all", jobs=jobs)
    return survey(_cat(), range(2, 24), cfg)


def _names_up_to(max_order):
    return [n for o in range(1, max_order + 1) for n in _cat().by_order.get(o, ())]


def test_criterion_01_s4_dfz1_exact_products():
    t0 = time.perf_counter()
    g, subs = realize_paper_tuple("s4-dfz1")
    v = evaluate(builtin("dfz1"), entropy_vector(g, subs))
    elapsed = time.perf_counter() - t0
    assert (v.lhs_product, v.rhs_product, v.holds) == (128, 96, False)
    assert Fraction(v.ratio_num, v.ratio_den) == Fraction(4, 3)
    assert elapsed < 1.0


def test_criterion_02_s4_dfz3_exact_products():
    t0 = time.perf_counter()
    g, subs = realize_paper_tuple("s4-dfz3")
    v = evaluate(builtin("dfz3"), entropy_vector(g, subs))
    elapsed = time.perf_counter() - t0
    assert (v.lhs_product, v.rhs_product, v.holds) == (64, 48, False)
    assert elapsed < 1.0


def test_criterion_03_d20_gi_values():
    g, (g1, g2, g5) = realize_paper_tuple("d20-example")
    r12 = gi(g, g1, g2)
    r15 = gi(g, g1, g5)
    assert (r12.numerator, r12.denominator) == (5, 1)
    assert (r15.numerator, r15.denominator) == (5, 2)


def test_criterion_04_survey_finds_smallest_violator_at_24():
    t0 = time.perf_counter()
    results = _survey(4)
    s4_witnesses, _ = _s4_scan(4)
    elapsed = time.perf_counter() - t0
    assert set(results) == {n for n in _names_up_to(23) if _cat().realize(n).order >= 2}
    for entry in results.values():
        assert entry.error is None, entry.group_name
        assert entry.witness_count == 0, entry.group_name
        assert entry.violated_ids == (), entry.group_name
    assert sorted({w.inequality_id for w in s4_witnesses}) == ["dfz1", "dfz3"]
    assert elapsed < 600.0


def test_criterion_05_a4_exhaustive_scan_is_clean():
    witnesses, report = _a4_exhaustive(4)
    assert witnesses == []
    assert report.tuples_total == 10**5
    assert report.tuples_evaluated == 10**5


def test_criterion_06_no_simultaneous_s4_violators():
    g, lat = _lat("S4")
    assert check_simultaneous(g, (builtin("dfz1"), builtin("dfz3")), lat) == []


def test_criterion_07_property_suites():
    counts = {name: fn() for name, fn in ps.SUITES}
    assert len(counts) == 8
    assert all(n >= 1000 for n in counts.values()), counts


def test_criterion_08_oracle_equivalence():
    for name in _names_up_to(24):
        g, lat = _lat(name)
        elems = [tuple(p.images) for p in g.elements]
        want = oracles.brute_force_subgroups(elems, g.degree)
        got = {
            frozenset(elems[i] for i in s.member_indices()) for s in lat.subgroups
        }
        assert got == want, name

    rng = random.Random(1009)
    names = _names_up_to(24)
    for _ in range(10**4):
        g, lat = _lat(rng.choice(names))
        spec = builtin(rng.choice(BUILTIN_IDS))
        subs = [rng.choice(lat.subgroups) for _ in range(spec.n_vars)]
        ev = entropy_vector(g, subs)
        v = evaluate(spec, ev)
        value = oracles.evaluate_fraction(
            g.order,
            {frozenset(k): n for k, n in ev.subset_orders.items()},
            {frozenset(k): c for k, c in spec.coeffs.items()},
        )
        assert v.holds == (value >= 1)
        assert Fraction(v.rhs_product, v.lhs_product) == value


def test_criterion_09_catalog_class_counts():
    counts = {o: len(_cat().by_order[o]) for o in (8, 12, 16, 18, 20, 24)}
    assert counts == {8: 5, 12: 5, 16: 14, 18: 5, 20: 5, 24: 15}
    for order, expected in counts.items():
        assert EXPECTED_CLASS_COUNTS[order] == expected


def test_criterion_10_s5_ingleton_stretch():
    g, lat = _lat("S5")
    t0 = time.perf_counter()
    witnesses, report = scan_group(
        g, SearchConfig.make(ineqs="ingleton", prune="all", jobs=4), lat
    )
    elapsed = time.perf_counter() - t0
    assert len(witnesses) >= 1
    assert all(w.inequality_id == "ingleton" for w in witnesses)
    print(
        f"\nS5 ingleton: {elapsed:.1f}s wall, "
        f"{report.tuples_evaluated:,} of {report.tuples_total:,} tuples evaluated, "
        f"{len(witnesses)} witness(es)"
    )


def test_criterion_11_deterministic_witness_output():
    assert witnesses_json(_s4_scan(1)[0]) == witnesses_json(_s4_scan(4)[0])
    assert witnesses_json(_a4_exhaustive(1)[0]) == witnesses_json(_a4_exhaustive(4)[0])
    one, four = _survey(1), _survey(4)
    assert list(one) == list(four)
    for name in one:
        a, b = one[name], four[name]
        assert (a.group_name, a.order, a.witness_count, a.violated_ids, a.error) == (
            b.group_name,
            b.order,
            b.witness_count,
            b.violated_ids,
            b.error,
        )
