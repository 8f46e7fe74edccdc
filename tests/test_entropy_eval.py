import random
from fractions import Fraction

import pytest

import oracles
from groupineq.catalog import load_catalog, realize_paper_tuple
from groupineq.entropy_eval import (
    EntropyVector,
    entropy_vector,
    evaluate,
    gi,
)
from groupineq.ineq_dsl import BUILTIN_IDS, builtin, parse
from groupineq.perm_core import all_subgroups, closure


def tuple_orders(g, subs):
    elems = [tuple(p.images) for p in g.elements]
    sets = [frozenset(elems[i] for i in s.member_indices()) for s in subs]
    return oracles.subset_intersection_orders(sets)


def test_entropy_vector_s4_dfz1_tuple():
    g, subs = realize_paper_tuple("s4-dfz1")
    assert [s.order for s in subs] == [6, 6, 4, 4, 4]
    ev = entropy_vector(g, subs)
    assert ev.parent_order == 24 and ev.n == 5
    want = tuple_orders(g, subs)
    assert len(ev.subset_orders) == 31
    for positions, order in want.items():
        assert ev.order(positions) == order
    # the factors named in the two product sides
    assert ev.order({1, 2}) == 2
    assert ev.order({1, 5}) == 1
    assert ev.order({1, 2, 3}) == 1
    assert ev.order({3, 4, 5}) == 1


def test_entropy_vector_s4_dfz3_tuple():
    g, subs = realize_paper_tuple("s4-dfz3")
    assert [s.order for s in subs] == [6, 4, 8, 6, 4]
    ev = entropy_vector(g, subs)
    for positions, order in tuple_orders(g, subs).items():
        assert ev.order(positions) == order


def test_evaluate_paper_tuples():
    g, subs = realize_paper_tuple("s4-dfz1")
    v = evaluate(builtin("dfz1"), entropy_vector(g, subs))
    assert not v.holds
    assert (v.lhs_product, v.rhs_product) == (128, 96)
    assert (v.ratio_num, v.ratio_den) == (4, 3)

    g, subs = realize_paper_tuple("s4-dfz3")
    v = evaluate(builtin("dfz3"), entropy_vector(g, subs))
    assert not v.holds
    assert (v.lhs_product, v.rhs_product) == (64, 48)
    assert (v.ratio_num, v.ratio_den) == (4, 3)


def test_evaluate_equality_case():
    # identical subgroups at every position make each builtin exactly tight
    cat = load_catalog()
    g = cat.realize("S4")
    lat = all_subgroups(g)
    h = lat.subgroups[7]
    for iid in BUILTIN_IDS:
        spec = builtin(iid)
        ev = entropy_vector(g, [h] * spec.n_vars)
        v = evaluate(spec, ev)
        assert v.holds and v.lhs_product == v.rhs_product
        assert (v.ratio_num, v.ratio_den) == (1, 1)


def test_evaluate_unbalanced_form():
    # H(X1) >= 0 has coefficient sum 1, exercising the |G| balance factor
    cat = load_catalog()
    g = cat.realize("S4")
    lat = all_subgroups(g)
    spec = parse("H(X1) >= 0")
    for h in lat.subgroups:
        v = evaluate(spec, entropy_vector(g, [h]))
        assert v.holds
        assert Fraction(v.lhs_product, v.rhs_product) == Fraction(h.order, 24)


def test_evaluate_matches_fraction_oracle():
    cat = load_catalog()
    rng = random.Random(41)
    names = ["S4", "A4", "D20", "Q8", "C12", "SL(2,3)", "D18"]
    lats = {n: all_subgroups(cat.realize(n)) for n in names}
    checked = 0
    for _ in range(500):
        name = rng.choice(names)
        lat = lats[name]
        g = lat.group
        spec = builtin(rng.choice(BUILTIN_IDS))
        subs = [rng.choice(lat.subgroups) for _ in range(spec.n_vars)]
        ev = entropy_vector(g, subs)
        v = evaluate(spec, ev)
        value = oracles.evaluate_fraction(
            g.order, {frozenset(k): n for k, n in ev.subset_orders.items()},
            {frozenset(k): c for k, c in spec.coeffs.items()})
        assert v.holds == (value >= 1)
        assert Fraction(v.rhs_product, v.lhs_product) == value
        checked += 1
    assert checked == 500


def test_gi_d20_example_values():
    g, (g1, g2, g5) = realize_paper_tuple("d20-example")
    assert (g1.order, g2.order, g5.order) == (2, 2, 4)
    r = gi(g, g1, g2)
    assert (r.numerator, r.denominator) == (5, 1)
    r = gi(g, g1, g5)
    assert (r.numerator, r.denominator) == (5, 2)


def test_gi_formula_against_oracle():
    cat = load_catalog()
    g = cat.realize("S4")
    lat = all_subgroups(g)
    rng = random.Random(8)
    for _ in range(300):
        a, b, c = (rng.choice(lat.subgroups) for _ in range(3))
        r = gi(g, a, b, c)
        o = tuple_orders(g, (a, b, c))
        want = Fraction(o[frozenset({1, 2, 3})] * o[frozenset({3})],
                        o[frozenset({1, 3})] * o[frozenset({2, 3})])
        assert r == want
        # unconditioned form is conditioning on the whole group
        r2 = gi(g, a, b)
        assert r2 == gi(g, a, b, g.full_subgroup())


def test_gi_parent_mismatch():
    cat = load_catalog()
    g, h = cat.realize("S4"), cat.realize("A4")
    a = closure(g, [1])
    b = closure(h, [1])
    with pytest.raises(ValueError):
        gi(g, a, b)


def test_valuation():
    # the q-adic valuation the property suites read off gi values
    assert oracles.valuation(Fraction(5, 2), 5) == 1
    assert oracles.valuation(Fraction(5, 2), 2) == -1
    assert oracles.valuation(Fraction(5, 2), 3) == 0
    assert oracles.valuation(Fraction(1, 1), 7) == 0
    assert oracles.valuation(Fraction(12, 1), 2) == 2
    with pytest.raises(ValueError):
        oracles.valuation(Fraction(5, 2), 6)
    with pytest.raises(ValueError):
        oracles.valuation(Fraction(0), 2)
    with pytest.raises(ValueError):
        oracles.valuation(Fraction(-2, 1), 2)


def test_arity_errors():
    cat = load_catalog()
    g = cat.realize("S4")
    lat = all_subgroups(g)
    h = lat.subgroups[3]
    with pytest.raises(ValueError, match="arity"):
        entropy_vector(g, [h] * 6)
    with pytest.raises(ValueError, match="arity"):
        entropy_vector(g, [])
    with pytest.raises(ValueError, match="X5"):
        evaluate(builtin("dfz1"), entropy_vector(g, [h] * 4))
    other = cat.realize("A4")
    with pytest.raises(ValueError):
        entropy_vector(g, [h, closure(other, [1])])


def test_entropy_vector_order_validation():
    g, subs = realize_paper_tuple("s4-dfz1")
    ev = entropy_vector(g, subs)
    with pytest.raises(KeyError):
        ev.order([6])
    with pytest.raises(KeyError):
        ev.order([])
