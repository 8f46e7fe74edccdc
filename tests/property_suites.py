"""Structural property sweeps shared by test_properties and test_acceptance.

Each suite walks its groups exhaustively, asserts as it goes, and returns the
number of checks performed. Results are memoized so the two callers pay for a
single run.
"""

from fractions import Fraction
from functools import lru_cache

from groupineq.catalog import (
    cyclic,
    dihedral,
    load_catalog,
    realize,
    semidirect_cyclic,
)
from groupineq.entropy_eval import gi
from groupineq.perm_core import all_subgroups, int_valuation, is_isomorphic, is_prime, prime_factors
from oracles import valuation


class Checker:
    def __init__(self):
        self.count = 0

    def ok(self, cond, note=""):
        assert cond, note
        self.count += 1


@lru_cache(maxsize=None)
def _cat():
    return load_catalog()


@lru_cache(maxsize=None)
def _lat(name):
    g = _cat().realize(name)
    return g, all_subgroups(g)


@lru_cache(maxsize=None)
def _extra_lat(kind, *args):
    builder = {"cyclic": cyclic, "dihedral": dihedral, "semidirect": semidirect_cyclic}[kind]
    g = realize(builder(*args))
    return g, all_subgroups(g)


def _catalog_names(max_order=24):
    names = []
    for order in range(1, max_order + 1):
        names.extend(_cat().by_order.get(order, ()))
    return names


def _meet(x, y):
    return x.parent.subgroup(x.mask & y.mask)


def _product_order(a, b):
    """|AB| = |A||B| / |A ∩ B|."""
    return a.order * b.order // (a.mask & b.mask).bit_count()


def product_is_subgroup(h, k):
    """Whether the set HK is closed under Group.mul (a finite subset of a
    group that holds 1 and is closed is a subgroup); Lagrange settles most
    pairs first."""
    g, ks = h.parent, k.member_indices()
    hk = {g.mul(a, b) for a in h.member_indices() for b in ks}
    return g.order % len(hk) == 0 and all(g.mul(a, b) in hk for a in hk for b in hk)


def _normal_in(h, k):
    """Whether H is normal in K, for H <= K: xH = Hx for every x in K, by Group.mul."""
    g = h.parent
    hs = h.member_indices()
    return all({g.mul(x, a) for a in hs} == {g.mul(a, x) for a in hs}
               for x in k.member_indices())


def _abelian_subgroup(g, s):
    els = [i for i in range(g.order) if s.mask >> i & 1]
    return all(g.mul(x, y) == g.mul(y, x) for x in els for y in els)


def _ppq_primes(order):
    fac = prime_factors(order)
    p = next(r for r, e in fac.items() if e == 2)
    q = next(r for r, e in fac.items() if e == 1)
    return p, q


PRODUCT_CHAIN_GROUPS = ("S3", "D8", "Q8", "A4", "D12", "D20", "S4")


@lru_cache(maxsize=None)
def suite_product_chain():
    """|X∩Y||X∩Z| <= |X||X∩Y∩Z| <= |X||Y∩Z|; the left ratio divides |X| when
    X∩Y or X∩Z is normal."""
    c = Checker()
    for name in PRODUCT_CHAIN_GROUPS:
        g, lat = _lat(name)
        subs = lat.subgroups
        normal = {s.mask for s, f in zip(subs, lat.normal_flags) if f}
        for x in subs:
            for y in subs:
                xy = _meet(x, y)
                for z in subs:
                    xz = _meet(x, z)
                    xyz = _meet(xy, z)
                    c.ok(xy.order * xz.order <= x.order * xyz.order, name)
                    c.ok(x.order * xyz.order <= x.order * _meet(y, z).order, name)
                    if xy.mask in normal or xz.mask in normal:
                        product = xy.order * xz.order // xyz.order
                        c.ok(x.order % product == 0, name)
    return c.count


GI_BOUND_GROUPS = ("S3", "Q8", "A4", "D12", "F20", "D20", "S4")
GI_QUAD_GROUPS = ("A4", "D12", "F20")


@lru_cache(maxsize=None)
def suite_gi_bounds():
    """gi(a,b|c) >= 1 and gi(a,b|cd) >= 1 always; both are integers when the
    relevant conditioned subgroup is normal in the conditioning one."""
    c = Checker()
    for name in GI_BOUND_GROUPS:
        g, lat = _lat(name)
        subs = lat.subgroups
        rel = {}
        for a in subs:
            for cc in subs:
                rel[a.mask, cc.mask] = _normal_in(_meet(a, cc), cc)
        for a in subs:
            for b in subs:
                r0 = gi(g, a, b)
                c.ok(r0.numerator >= r0.denominator, name)
                for cc in subs:
                    r = gi(g, a, b, cc)
                    c.ok(r.numerator >= r.denominator, name)
                    if rel[a.mask, cc.mask] or rel[b.mask, cc.mask]:
                        c.ok(r.denominator == 1, name)
    for name in GI_QUAD_GROUPS:
        g, lat = _lat(name)
        subs = lat.subgroups
        rel = {}
        for a in subs:
            for cc in subs:
                rel[a.mask, cc.mask] = _normal_in(_meet(a, cc), cc)
        for a in subs:
            for b in subs:
                for cc in subs:
                    for d in subs:
                        cd = _meet(cc, d)
                        r = gi(g, a, b, cd)
                        c.ok(r.numerator >= r.denominator, name)
                        if rel[a.mask, cd.mask] or rel[b.mask, cd.mask]:
                            c.ok(r.denominator == 1, name)
    return c.count


@lru_cache(maxsize=None)
def suite_sylow_valuation():
    """With a normal abelian Sylow q-subgroup, v_q(|AB|) <= v_q(|G|) for all
    subgroup pairs and v_q(gi(a,b|c)) >= 0 for all triples. S4 shows the
    hypothesis is needed."""
    c = Checker()
    for name in _catalog_names():
        g, lat = _lat(name)
        subs = lat.subgroups
        for q in prime_factors(g.order):
            idx = lat.sylow_index[q]
            if len(idx) != 1 or not _abelian_subgroup(g, subs[idx[0]]):
                continue
            vg = int_valuation(g.order, q)
            for a in subs:
                for b in subs:
                    c.ok(int_valuation(_product_order(a, b), q) <= vg, name)
                    for cc in subs:
                        c.ok(valuation(gi(g, a, b, cc), q) >= 0, name)
    g, lat = _lat("S4")
    subs = lat.subgroups
    c.ok(
        any(
            int_valuation(_product_order(a, b), 2) > int_valuation(g.order, 2)
            for a in subs
            for b in subs
        ),
        "S4 set products overflow v_2 once the Sylow subgroup is non-normal",
    )
    return c.count


PQ_GROUPS = ("C6", "S3", "C10", "D10", "C14", "D14", "C15", "C21", "C7:C3", "C22", "D22")


@lru_cache(maxsize=None)
def suite_pq_values():
    """Order pq, p < q: the Sylow q-subgroup is unique and normal, a set
    product can fail to be a subgroup only for two distinct order-p factors,
    and every gi lands in {1, p, q/p, q, pq}."""
    c = Checker()
    for name in PQ_GROUPS:
        g, lat = _lat(name)
        subs = lat.subgroups
        p, q = sorted(prime_factors(g.order))
        allowed = {
            Fraction(1),
            Fraction(p),
            Fraction(q, p),
            Fraction(q),
            Fraction(p * q),
        }
        c.ok(len(lat.sylow_index[q]) == 1, name)
        c.ok(lat.normal_flags[lat.sylow_index[q][0]], name)
        for i, s in enumerate(subs):
            if s.order == q:
                c.ok(lat.normal_flags[i], name)
        for a in subs:
            for b in subs:
                if not product_is_subgroup(a, b):
                    c.ok(a.mask != b.mask and a.order == p and b.order == p, name)
                r0 = gi(g, a, b)
                c.ok(r0 in allowed, name)
                for cc in subs:
                    r = gi(g, a, b, cc)
                    f = r
                    c.ok(f >= 1 and f in allowed, name)
                    if valuation(r, q) == 0 and cc.order % q == 0:
                        c.ok(a.order * b.order % q == 0, name)
    return c.count


PPQ_GROUPS = ("D12", "Dic3", "D20", "Dic5", "F20", "C12", "C6xC2", "C20", "C10xC2")


@lru_cache(maxsize=None)
def suite_ppq_values():
    """Order p^2 q with normal Sylow q: gi lands in
    {1, p, p^2, q/p^2, q/p, q, pq, p^2 q}, and the two fractional values
    pin down the orders (|G_ac|, |G_bc|, |G_abc|, |G_c|) exactly."""
    c = Checker()
    for name in PPQ_GROUPS:
        g, lat = _lat(name)
        subs = lat.subgroups
        p, q = _ppq_primes(g.order)
        c.ok(len(lat.sylow_index[q]) == 1, name)
        allowed = {
            Fraction(1),
            Fraction(p),
            Fraction(p * p),
            Fraction(q, p * p),
            Fraction(q, p),
            Fraction(q),
            Fraction(p * q),
            Fraction(p * p * q),
        }
        half = {
            (p, p, 1, p * q),
            (p, p * p, 1, p * p * q),
            (p * p, p * p, p, p * p * q),
        }
        quarter = (p * p, p * p, 1, p * p * q)
        for a in subs:
            for b in subs:
                for cc in subs:
                    ac = _meet(a, cc)
                    bc = _meet(b, cc)
                    abc = _meet(ac, bc)
                    f = gi(g, a, b, cc)
                    c.ok(f in allowed, name)
                    lo, hi = sorted((ac.order, bc.order))
                    cfg = (lo, hi, abc.order, cc.order)
                    c.ok((f == Fraction(q, p)) == (cfg in half), name)
                    c.ok((f == Fraction(q, p * p)) == (cfg == quarter), name)
    return c.count


PQQ_GROUPS = {
    "D18": (2, 3),
    "S3xC3": (2, 3),
    "C3xC3:C2": (2, 3),
    "C18": (2, 3),
    "C6xC3": (2, 3),
    "A4": (3, 2),
    "C12": (3, 2),
    "C6xC2": (3, 2),
    "C20": (5, 2),
    "C10xC2": (5, 2),
}


@lru_cache(maxsize=None)
def suite_pqq_values():
    """Order p q^2 with normal Sylow q: gi lands in
    {1, p, q, pq, q^2, pq^2, q/p, q^2/p}. For p < q, subgroups of order q^2
    are normal and set products involving an order 1, q^2, or pq^2 factor, or
    an order-q factor paired with another subgroup of order divisible by q,
    are subgroups; products can fail to close only for order pairs (p,p),
    (p,q), (p,pq), (pq,pq). Order-q
    subgroups themselves need not be normal (S3xC3 has diagonal ones that are
    not). Normal Sylow q plus non-normal Sylow p with q < p forces the
    alternating group on four points."""
    c = Checker()
    saw_nonnormal_q = False
    for name, (p, q) in PQQ_GROUPS.items():
        g, lat = _lat(name)
        subs = lat.subgroups
        idx = lat.sylow_index[q]
        c.ok(len(idx) == 1 and lat.normal_flags[idx[0]], name)
        allowed = {
            Fraction(1),
            Fraction(p),
            Fraction(q),
            Fraction(p * q),
            Fraction(q * q),
            Fraction(p * q * q),
            Fraction(q, p),
            Fraction(q * q, p),
        }
        always_closed = {1, q * q, p * q * q}
        bad_pairs = {(p, p), (p, q), (p, p * q), (p * q, p * q)}
        if p < q:
            for s, f in zip(subs, lat.normal_flags):
                if s.order == q * q:
                    c.ok(f, name)
                if s.order == q and not f:
                    saw_nonnormal_q = True
        for a in subs:
            for b in subs:
                if p < q:
                    closed = product_is_subgroup(a, b)
                    if a.order in always_closed or b.order in always_closed:
                        c.ok(closed, name)
                    if q in (a.order, b.order) and a.order % q == 0 and b.order % q == 0:
                        c.ok(closed, name)
                    if not closed:
                        lo, hi = sorted((a.order, b.order))
                        c.ok((lo, hi) in bad_pairs, name)
                for cc in subs:
                    f = gi(g, a, b, cc)
                    c.ok(f >= 1 and f in allowed, name)
    c.ok(saw_nonnormal_q, "S3xC3 keeps the q exclusion honest")
    a4 = _lat("A4")[0]
    for name in _cat().by_order[12]:
        g, lat = _lat(name)
        sylow_q_normal = len(lat.sylow_index[2]) == 1
        sylow_p_normal = len(lat.sylow_index[3]) == 1
        c.ok((sylow_q_normal and not sylow_p_normal) == (name == "A4"), name)
        if sylow_q_normal and not sylow_p_normal:
            c.ok(is_isomorphic(g, a4), name)
    return c.count


TRICHOTOMY_EXPECT = {
    "D12": True,
    "Dic3": True,
    "D20": True,
    "Dic5": True,
    "F20": False,
    "C13:C4": False,
}


@lru_cache(maxsize=None)
def suite_sylow_intersections():
    """Order p^2 q, normal Sylow q, several Sylow p-subgroups: a normal
    subgroup of order p exists iff every pair of distinct Sylow p-subgroups
    meets in a subgroup of order p (then that subgroup is the intersection),
    and otherwise all such pairs meet trivially. F20 and C13:C4 land in the
    trivial branch. The conjugate sweep revisits each unordered pair many
    times; the repeats are deliberate."""
    c = Checker()
    items = [(name, _lat(name)) for name in TRICHOTOMY_EXPECT if name != "C13:C4"]
    items.append(("C13:C4", _extra_lat("semidirect", 13, 4, 5)))
    for tag, (g, lat) in items:
        subs = lat.subgroups
        p, q = _ppq_primes(g.order)
        c.ok(len(lat.sylow_index[q]) == 1, tag)
        syl = [subs[i] for i in lat.sylow_index[p]]
        c.ok(len(syl) > 1, tag)
        normal_p = [
            s for s, f in zip(subs, lat.normal_flags) if f and s.order == p
        ]
        c.ok(len(normal_p) <= 1, tag)
        has_np = bool(normal_p)
        c.ok(has_np == TRICHOTOMY_EXPECT[tag], tag)
        meet = p if has_np else 1
        pairwise = {
            _meet(s, t).order for s in syl for t in syl if s.mask != t.mask
        }
        c.ok(pairwise == {meet}, tag)
        if has_np:
            n0 = normal_p[0]
            for s in syl:
                c.ok(s.mask & n0.mask == n0.mask, tag)
            for s in syl:
                for t in syl:
                    if s.mask != t.mask:
                        c.ok(_meet(s, t).mask == n0.mask, tag)
        column = lat.conjugation_table()[:, lat.sylow_index[p][0]].tolist()
        conj = [subs[i] for i in column]
        c.ok({s.mask for s in conj} == {s.mask for s in syl}, tag)
        for px in conj:
            for py in conj:
                if px.mask != py.mask:
                    c.ok(_meet(px, py).order == meet, tag)
    return c.count


EXTRA_PQ_ORDERS = (
    ("cyclic", 25),
    ("cyclic", 26),
    ("dihedral", 13),
    ("dihedral", 17),
    ("dihedral", 19),
    ("dihedral", 23),
    ("dihedral", 29),
    ("semidirect", 13, 3, 3),
    ("semidirect", 11, 5, 3),
    ("semidirect", 19, 3, 7),
)


@lru_cache(maxsize=None)
def suite_trivial_intersections():
    """All distinct proper nontrivial subgroups meet trivially iff the order
    is a product of exactly two primes, multiplicity counted. Checked on every
    composite catalog order plus a spread of larger pq and p^2 orders."""
    c = Checker()
    items = [(name, _lat(name)) for name in _catalog_names() if _lat(name)[0].order >= 4]
    items = [(n, gl) for n, gl in items if not is_prime(gl[0].order)]
    for spec in EXTRA_PQ_ORDERS:
        items.append((f"{spec[0]}{spec[1:]}", _extra_lat(*spec)))
    for tag, (g, lat) in items:
        two = sum(prime_factors(g.order).values()) == 2
        proper = [s for s in lat.subgroups if 1 < s.order < g.order]
        all_trivial = True
        found_overlap = False
        for i, h in enumerate(proper):
            for k in proper[i + 1 :]:
                trivial = _meet(h, k).order == 1
                all_trivial = all_trivial and trivial
                found_overlap = found_overlap or not trivial
                if two:
                    c.ok(trivial, tag)
        c.ok(all_trivial == two, tag)
        if two:
            for s in proper:
                c.ok(is_prime(s.order), tag)
        elif proper:
            c.ok(found_overlap, tag)
    return c.count


SUITES = (
    ("product-chain", suite_product_chain),
    ("gi-bounds", suite_gi_bounds),
    ("sylow-valuation", suite_sylow_valuation),
    ("pq-values", suite_pq_values),
    ("ppq-values", suite_ppq_values),
    ("pqq-values", suite_pqq_values),
    ("sylow-intersections", suite_sylow_intersections),
    ("trivial-intersections", suite_trivial_intersections),
)
