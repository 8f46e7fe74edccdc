import hashlib
import json
import random
import re

import pytest

from groupineq import perm_core
from groupineq.perm_core import (
    AMBIENT_ORDER_CAP,
    LATTICE_ORDER_CAP,
    Group,
    Permutation,
    SubgroupLattice,
    all_subgroups,
    closure,
    int_valuation,
    is_abelian,
    is_isomorphic,
    parse_generators,
    prime_factors,
)

import oracles


def sym(n, name=None):
    gens = [Permutation.from_cycles("(1,2)", n)]
    if n > 2:
        gens.append(Permutation.from_cycles("(" + ",".join(str(i) for i in range(1, n + 1)) + ")", n))
    return Group.from_generators(name or f"S{n}", gens, degree=n)


def test_permutation_from_cycles_and_back():
    p = Permutation.from_cycles("(1,2,3)(4,5)", 5)
    assert p.images == (1, 2, 0, 4, 3)
    assert p.cycle_string() == "(1,2,3)(4,5)"
    assert Permutation.from_cycles(p.cycle_string(), 5) == p
    # spaces work as separators too
    assert Permutation.from_cycles("(1 2 3)(4 5)", 5) == p
    assert Permutation.from_cycles("()", 3).is_identity()
    assert Permutation.identity(4).cycle_string() == "()"


def test_permutation_from_cycles_errors():
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1,2)(2,3)", 3)  # overlap
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1,2", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(0,1)", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1,9)", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1,1)", 3)


def test_parse_generators():
    # a cycle joins the current generator while disjoint from it; an
    # overlap or a comma between cycles starts a new one
    cases = [("(3 4)(2 4 3)", ["(3,4)", "(2,4,3)"]),
             ("(1 2)(3 4)", ["(1,2)(3,4)"]),
             ("(1 2),(3 4)", ["(1,2)", "(3,4)"]),
             ("(1,2,3),(1 2)(3 4)", ["(1,2,3)", "(1,2)(3,4)"]),
             ("()", []),
             ("(1 2)(), ()", ["(1,2)"])]
    for text, want in cases:
        gens = parse_generators(text, 4)
        assert [p.cycle_string() for p in gens] == want, text
        assert all(p.degree == 4 for p in gens), text
    for text, error in (("(1 9)", "point 9 exceeds degree 4 in '(1 9)'"),
                        ("(1 2)(0 3)", "point 0 outside 1..4 in '(1 2)(0 3)'"),
                        ("(1 1)", "cycles are not disjoint at point 1 in '(1 1)'"),
                        ("(1 2", "unclosed '(' in '(1 2'"),
                        # only ASCII 0-9 are digits
                        ("(1 ²)", "unexpected character '²' at position 3 in '(1 ²)'"),
                        ("(1 ١)", "unexpected character '١' at position 3 in '(1 ١)'")):
        with pytest.raises(ValueError, match=re.escape(error)):
            parse_generators(text, 4)


def test_permutation_mul_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 8)
        a = list(range(n))
        b = list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        pa, pb = Permutation(tuple(a)), Permutation(tuple(b))
        assert (pa * pb).images == oracles.p_mul(tuple(a), tuple(b))


def p_order(p):
    n = len(p)
    k, q = 1, p
    while q != tuple(range(n)):
        q = oracles.p_mul(p, q)
        k += 1
    return k


def test_group_from_generators_s4():
    g = sym(4)
    assert g.order == 24
    assert g.elements[0].is_identity()
    want = sorted(p_order(e) for e in oracles.s_n_elements(4))
    assert sorted(g.element_orders()) == want


def test_mul_table_consistency():
    g = sym(4)
    rng = random.Random(5)
    elems = [tuple(p.images) for p in g.elements]
    for _ in range(500):
        i, j = rng.randrange(24), rng.randrange(24)
        k = g.mul(i, j)
        assert elems[k] == oracles.p_mul(elems[i], elems[j])
        assert elems[g._inv[i]] == oracles.p_inv(elems[i])


@pytest.mark.parametrize("name", ["C1", "C2", "S3", "Q8", "A4", "SL(2,3)"])
def test_cayley_table_matches_oracle(cat, name):
    # every product in the table, from the trivial group (degree 1, where
    # a one-index getter returns an item, not a tuple) up
    g = cat.realize(name)
    elems = [tuple(p.images) for p in g.elements]
    assert g._mul_rows == [[elems.index(oracles.p_mul(a, b)) for b in elems]
                           for a in elems]


def test_element_index():
    g = sym(3)
    for i, p in enumerate(g.elements):
        assert g.element_index(p) == i
    with pytest.raises(ValueError, match="not an element"):
        g.element_index(Permutation.from_cycles("(1,2)", 4))


def test_from_generators_order_cap():
    with pytest.raises(ValueError):
        gens = [Permutation.from_cycles("(1,2)", 9),
                Permutation.from_cycles("(1,2,3,4,5,6,7,8,9)", 9)]
        Group.from_generators("S9", gens, degree=9)
    assert AMBIENT_ORDER_CAP < 362880


def test_closure_matches_oracle():
    g = sym(4)
    rng = random.Random(7)
    elems = [tuple(p.images) for p in g.elements]
    for _ in range(60):
        k = rng.randrange(1, 4)
        seed = rng.sample(range(24), k)
        sub = closure(g, seed)
        want = oracles.subgroup_closure([elems[i] for i in seed], 4)
        got = {elems[i] for i in sub.member_indices()}
        assert got == set(want)
        assert sub.order == len(want)


def test_intersect_and_product():
    g = sym(4)
    lat = all_subgroups(g)
    rng = random.Random(13)
    elems = [tuple(p.images) for p in g.elements]
    for _ in range(80):
        i, j = rng.randrange(len(lat)), rng.randrange(len(lat))
        h, k, m = lat.subgroups[i], lat.subgroups[j], lat.subgroups[lat.meet[i, j]]
        hs = {elems[x] for x in h.member_indices()}
        ks = {elems[x] for x in k.member_indices()}
        assert {elems[x] for x in m.member_indices()} == hs & ks
        ps = oracles.product_set(hs, ks)
        assert h.order * k.order // m.order == len(ps)
        # dual route: closure under multiplication vs HK filling the join <H, K>
        join = closure(g, h.member_indices() + k.member_indices())
        assert (len(ps) == join.order) == oracles.is_closed_under_mul(ps)


def test_is_normal_by_conjugation():
    g = sym(4)
    lat = all_subgroups(g)
    elems = [tuple(p.images) for p in g.elements]
    for idx, h in enumerate(lat.subgroups):
        hs = frozenset(elems[i] for i in h.member_indices())
        assert oracles.is_normal_in(hs, elems) == lat.normal_flags[idx]


def test_is_normal_relative():
    # V4 is normal in D8; C2 = <(1,2)> is not normal in S3
    for ambient, sub, normal in ((("(1,2)(3,4)", "(1,3)"), ("(1,2)(3,4)", "(1,3)(2,4)"), True),
                                 (("(1,2)", "(1,2,3)"), ("(1,2)",), False)):
        g = Group.from_generators("H", [Permutation.from_cycles(c, 4) for c in ambient], 4)
        lat = all_subgroups(g)
        h = closure(g, [g.element_index(Permutation.from_cycles(c, 4)) for c in sub])
        elems = [p.images for p in g.elements]
        hs = frozenset(elems[i] for i in h.member_indices())
        assert lat.normal_flags[lat.index[h.mask]] == oracles.is_normal_in(hs, elems) == normal


def test_all_subgroups_against_brute_force_sample(cat):
    # the full order sweep lives in the acceptance suite; spot-check here
    for name in ("S3", "D8", "Q8", "A4", "C12"):
        g = cat.realize(name)
        lat = all_subgroups(g)
        elems = [tuple(p.images) for p in g.elements]
        brute = oracles.brute_force_subgroups(elems, g.degree)
        got = {frozenset(elems[i] for i in s.member_indices()) for s in lat.subgroups}
        assert got == brute


def test_lattice_invariants(cat):
    g = cat.realize("S4")
    lat = all_subgroups(g)
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)
    assert len({(s.order, s.mask) for s in lat.subgroups}) == len(lat.subgroups)
    assert lat.subgroups[0].order == 1 and lat.subgroups[-1].order == 24
    # conjugacy classes partition the index set
    seen = [i for cls in lat.conjugacy_classes for i in cls]
    assert sorted(seen) == list(range(len(lat.subgroups)))
    for cls in lat.conjugacy_classes:
        assert len({lat.subgroups[i].order for i in cls}) == 1
        for i in cls:
            assert lat.normal_flags[i] == (len(cls) == 1)
    for i, s in enumerate(lat.subgroups):
        assert lat.index[s.mask] == i


def test_lattice_sylow_index(cat):
    g = cat.realize("S4")
    lat = all_subgroups(g)
    assert set(lat.sylow_index) == {2, 3}
    assert len(lat.sylow_index[2]) == 3
    assert len(lat.sylow_index[3]) == 4
    for p, idxs in lat.sylow_index.items():
        assert len(idxs) % p == 1
        for i in idxs:
            assert lat.subgroups[i].order == p ** prime_factors(24)[p]
    # A4: one normal Sylow 2-subgroup (V4), four Sylow 3-subgroups
    a4 = all_subgroups(cat.realize("A4"))
    assert {p: [a4.subgroups[i].order for i in idxs]
            for p, idxs in a4.sylow_index.items()} == {2: [4], 3: [3, 3, 3, 3]}
    assert a4.normal_flags[a4.sylow_index[2][0]]


def test_conjugation_table(cat):
    g = cat.realize("S4")
    lat = all_subgroups(g)
    ct = lat.conjugation_table()
    assert ct.shape == (24, len(lat.subgroups))
    elems = [tuple(p.images) for p in g.elements]
    members = [frozenset(elems[m] for m in s.member_indices()) for s in lat.subgroups]
    position = {s: i for i, s in enumerate(members)}
    rng = random.Random(3)
    for _ in range(200):
        x = rng.randrange(24)
        i = rng.randrange(len(lat.subgroups))
        assert int(ct[x, i]) == position[oracles.conjugate_set(elems[x], members[i])]
    # conjugation is an action: x (y S y^-1) x^-1 = (xy) S (xy)^-1, and 1 S 1 = S
    for x in range(24):
        for y in range(24):
            assert ct[x, ct[y]].tolist() == ct[g.mul(x, y)].tolist()
    assert ct[0].tolist() == list(range(len(lat.subgroups)))


def test_conjugation_table_everywhere(cat, lattice_for):
    # the table is built from the generators' rows alone, the rest by the
    # action law; each row is checked here against conjugating every
    # subgroup by that element, on every catalog group (S5 included)
    for name in (n for names in cat.by_order.values() for n in names):
        g, lat = cat.realize(name), lattice_for(name)
        elems = [tuple(p.images) for p in g.elements]
        members = [frozenset(elems[i] for i in s.member_indices()) for s in lat.subgroups]
        position = {s: i for i, s in enumerate(members)}
        assert lat.conjugation_table().tolist() == [
            [position[oracles.conjugate_set(x, s)] for s in members] for x in elems], name


def test_conjugation_table_needs_generating_list():
    # the table follows from the rows of g.generator_indices; a group built
    # with a list that generates only part of it is refused, not half-filled
    s3 = sym(3)
    g = Group("S3-short", s3.elements, [s3.element_index(Permutation.from_cycles("(1,2)", 3))])
    with pytest.raises(ValueError, match="generators of S3-short"):
        all_subgroups(g).conjugation_table()


@pytest.mark.parametrize("edit, error", [
    (lambda subs, other: subs[::-1], "not a subgroup lattice"),
    (lambda subs, other: subs[1:], "not a subgroup lattice"),
    (lambda subs, other: subs[:-1], "not a subgroup lattice"),
    (lambda subs, other: (other.subgroup(1),) + subs[1:], "not a subgroup lattice"),
    (lambda subs, other: subs[:-1] + (subs[1].parent.subgroup(subs[1].mask - (1 << 24)),)
     + subs[-1:], "not a subgroup lattice"),
    (lambda subs, other: subs[:1] + subs[2:], "miss an intersection"),
    (lambda subs, other: subs[:25] + subs[26:], "miss a conjugate"),
], ids=["unsorted", "no-trivial", "no-G", "other-group", "negative", "no-intersection",
        "no-conjugate"])
def test_lattice_checks_itself(edit, error):
    # the list is checked on construction; a missing intersection (an
    # order-2 subgroup of S4) or conjugate (one of its three D8s) shows
    # when the meet or conjugation table is built
    g = sym(4)
    subs = edit(all_subgroups(g).subgroups, sym(4))
    with pytest.raises(ValueError, match=error) as caught:
        lattice = SubgroupLattice(g, subs)
        lattice.meet, lattice.conjugation_table()
    assert "S4" in str(caught.value)


def test_lattice_cap(monkeypatch):
    # all_subgroups refuses a group above the cap before it closes
    # anything, and a lattice refuses one however its list was made
    g = sym(4)
    subs = all_subgroups(g).subgroups
    monkeypatch.setattr(perm_core, "LATTICE_ORDER_CAP", 23)
    monkeypatch.setattr(perm_core, "closure", lambda *a: pytest.fail("closure called"))
    for build in (lambda: all_subgroups(g), lambda: SubgroupLattice(g, subs)):
        with pytest.raises(ValueError, match="group 'S4' of order 24 exceeds the lattice cap 23"):
            build()
    monkeypatch.setattr(perm_core, "LATTICE_ORDER_CAP", 24)
    assert len(SubgroupLattice(g, subs)) == 30


def test_catalog_orders_within_lattice_cap(cat):
    # the cap never refuses a group gil can name
    assert max(cat.by_order) <= LATTICE_ORDER_CAP


def test_is_abelian(cat):
    assert is_abelian(cat.realize("C12"))
    assert is_abelian(cat.realize("C2xC2"))
    assert not is_abelian(cat.realize("S3"))
    assert not is_abelian(cat.realize("Q8"))


def test_is_isomorphic(cat):
    assert is_isomorphic(cat.realize("C6"), cat.realize("C6"))
    assert not is_isomorphic(cat.realize("C4"), cat.realize("C2xC2"))
    assert not is_isomorphic(cat.realize("D8"), cat.realize("Q8"))
    assert not is_isomorphic(cat.realize("C6"), cat.realize("S3"))
    # same group on different points
    a = sym(3)
    b = Group.from_generators("S3'", [Permutation.from_cycles("(2,3)", 4),
                                      Permutation.from_cycles("(2,3,4)", 4)], degree=4)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, cat.realize("C6"))


def test_subgroup_generators_roundtrip(cat):
    g = cat.realize("S4")
    lat = all_subgroups(g)
    for s in lat.subgroups:
        regen = closure(g, s.generator_indices())
        assert regen.mask == s.mask
        strs = s.generator_strings()
        idxs = [g.element_index(Permutation.from_cycles(t, g.degree)) for t in strs]
        assert closure(g, idxs).mask == s.mask


def test_subgroup_misc(cat):
    g = cat.realize("S4")
    t = g.subgroup(1)
    f = g.full_subgroup()
    assert t.order == 1 and f.order == 24
    assert t.member_indices() == [0]
    h = closure(g, [1])
    assert g.elements[h.member_indices()[0]].is_identity()


def test_prime_factors_and_valuation():
    assert prime_factors(24) == {2: 3, 3: 1}
    assert prime_factors(1) == {}
    assert prime_factors(97) == {97: 1}
    assert int_valuation(48, 2) == 4
    assert int_valuation(5, 2) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 2)

# sha256 of every catalog lattice: its (order, mask) sequence, normal flags,
# conjugacy classes and sorted Sylow index, as recorded from the earlier
# numpy-based closure. Any change to what all_subgroups returns shows here.
LATTICE_DIGESTS = {
    'C1': '1a033f083bd4d19dc9a9423261e9f1e91f552bff26481533dd183861cb44b83f',
    'C2': 'eb2540e1fe21ff8cae79cc38a9db94cb017ed19eeffda11b20a279a5495bd17a',
    'C3': 'c01e46e8efa477a64203c808ba4d5ac3322efe3aadfceb95699535ed7fd9e7ac',
    'C2xC2': 'bf0b4b1faa435348f01a0660d434ad460beced35d46af5ae8df592aeaed9e0ca',
    'C4': '869c1a2f0a1e338c88fdd891bb40e30fec21771fa0e1a40c7a9a8bda8952c1f9',
    'C5': 'aae0632b8fa5ac904b13f0e6eefb6224ad0ee0014f5949968afc034bf4e1494b',
    'C6': '5b582a266dd9f33228f4c97e1fe838a77dd5cc5740860e52f018f621f69951c3',
    'S3': '13c826b977b850d3ebaf0680968317de76ceb6afb62911fac408e5436bae8414',
    'C7': '8361ccedf0efef88dea74e314866a54b76c7137a5591ae95dca48a74df8fa066',
    'C2xC2xC2': '5b38399d1665b44c95b8e07d215d7dc1f2f1254d2e965b3a888612e32a39d5f7',
    'C4xC2': 'ac4d1e5e65fb77476ed9aefa9b34f014c43b91d378c7b4cd408e906c104e8245',
    'C8': '447f8dd3bcdb3006fc571001d0212c7e818582cbf7a38d0f43d3e0e1da933903',
    'D8': '8c41a4c145fd063d54481faa234537052e503735e6674718665106edcca81829',
    'Q8': 'd5732b21df7eeb14e699c61a943384d333f89682c1e184f3dd1d3f3cf2169d8e',
    'C3xC3': '71b2cfb282164c6eee23a5550a4b58ae7e97a297f4655660ee62da105bf6810b',
    'C9': '6ed30a8c2d1ca6cf66008a94d0e8fca83677dce06ccc0584432d5aea6862da51',
    'C10': '173fead0acbae2f0e111911b4578b09af9e509e511f5ebc56e8cc33a776330b7',
    'D10': '56345e6515cbc1ce226fb3c190e35d22ff2edbe56bf5980841652278541317af',
    'C11': '233f73278e6f32fd87043ef17a49edbe2859a5c72fd80c992aa34845a3ee7111',
    'A4': 'cfd61b8122854d515ba19d8e67efd2d0e893a1272ac289ef932544e5ed37ffc8',
    'C12': '0f97eefb2e6492b46783507ae25df66263130afca87b87c287ac3a3563d28c61',
    'C6xC2': 'f65b4ce71da23b438f00ce6293ce642529df93b19d4c7c798b3203ba4578e9a8',
    'D12': '621864a81136563e6b1ac94ab1ed21ba5977f53d9a91a2c428ec2f80b2e29336',
    'Dic3': 'fb2f4a446dd9897b9f6e2537f3334139a42e0c42e245681ba7b4ae8e83c657f6',
    'C13': '4d6273fb232e924315599b42bdbd31a21739db513b42b829656b92e3244dbc14',
    'C14': '45bac4946196cd2699d24cb91a630820546ee93317cf60e7226038acb70b9009',
    'D14': '1567c76115a86eb8c74c858bf5e3008519155f43a1316161c3583fc714c9d881',
    'C15': 'cfe767026730939b67c26fc86b4832780e9ab39f0f849a5ee38b645dcb3dc351',
    'C16': 'ab62b2fa9e53a508149f5a481436e39d4bcfa4bb33e0073efbad6cac1bdb193c',
    'C2xC2:C4': 'ffdc65b9d3113c9c2316841e57db27700dbd8b5dd5dc825cef0572d8b139c91e',
    'C2xC2xC2xC2': '1760cdfc37f54dd228f16a9c0cc6c99fc1acf285cd421638349ce8b2fa1d3e72',
    'C4:C4': '633f9a186554a72605514771cf4563120c168d3b87445f3b0204bc2ce6beadf1',
    'C4xC2xC2': 'a3fe8a339f1c9c841fc6496d899101d8db525c6c465b6afb17c5c61e78ba42d6',
    'C4xC4': '097650d9a776de627b1990c9fbf0dabedbc2428eb46b734b4b12cbd703db0a68',
    'C8xC2': 'edbc7b4e8412370fcbc6b56493476f972d23f5aaddf6be2794cbea345ccc6236',
    'D16': '4f08b5705043c0f25b44e09e287da2b006de4b5ad15bf4e756fa14a8e73fbe6e',
    'D8oC4': '4b944835d7468935172d0b231b411247eb0af91e19d625ab095201acd2d9db71',
    'D8xC2': 'fab2d68244bc18a62b5f0ff54da3325f8e5c66d5985ea91adeaa42f8f079cc66',
    'M16': '49a461b4e8f3f509d1823d9e25edb15419aa928545d6a4a4df1469ec92f27895',
    'Q16': '300fff1ba3049b39456aaa27b47d9afc1c26a70e56b02decf7969b096c662216',
    'Q8xC2': '66d4017dc07ee841a04bc31751c90709e12fe4e51a66b1a1270bb503f3149f53',
    'SD16': 'cff82777f8d5f6d21db71ded8d251188edac2b380bd639394d8b21c31e33d036',
    'C17': 'a1f4cae3ec92799540c5987e23ab8f62225277dae71dea60b344e721fb8cb1d8',
    'C18': 'dc0f83f52540f017a3693f2fad49a66dd4b0d9e232c3150d40bc9f1b295d1f69',
    'C3xC3:C2': '0637073431974184307e74cf81f25e3e3fcb546e2dde793be689c8ebe0fc926d',
    'C6xC3': '5efce524fc522f60a2841299ad416019886d20169f52e5da977e731cdc65ae44',
    'D18': '20f79f2122f91dbca5550b4c98ddf93dfa2846217445ab18e1bedf53e8697497',
    'S3xC3': '3f54e97b0b070849799e0267dc644a47c5eb6282c288708e3606fd0dbeb58982',
    'C19': '8607bc5b1fb456365db56ad6de69b2c8795f85018833e32bbeefd05f59afd9ef',
    'C10xC2': '89878a7d49c3d34ce512700e7102cc0797bf5b48b9bebdda0de1cef576e05e54',
    'C20': '416796ab0a274268f02cd20f0bc06b20d6c8596969e031db85fca9a2804f77b1',
    'D20': 'ab8a263bd8a96af86f10cd1bd8538c2a4037a91dda419c15ff7b25105f387e6a',
    'Dic5': '482d0a515da6505276eeb7e8d37f3a1f7e092fa98f86a5ddd7c650db0b86b033',
    'F20': '467525d403f08c9deba65780b58438be4d85c0d61ccaedfae85af44ddfe6b3b5',
    'C21': '228ac869d96c6400ab32b9cf8e12a47a7830c392c63dfab4ad34bb03c83f5413',
    'C7:C3': '057c4176ba63e83114f439cc4185aad8466b9c28af57447adbe9e3f05445a650',
    'C22': '341f82bce5b162f308288511b59c8eac6707a84662e1bbc7cf553127543bc65a',
    'D22': 'eb88012b4add75022bc547411790a215c60336d0d580938e711f068648e67a06',
    'C23': '64a1d410c9999b6f423cae5080b585070d6c55293705c5a4eb0b23fa0b2a2cc0',
    'A4xC2': '02983a53f6a9c651926597c919eb3c31acfddcbc7e15bfab4e918699d83e7314',
    'C12xC2': '6415fa3bbdcf3320a12be7641d01e330ceba95fea33ba0c9b5f016019ba80893',
    'C24': 'f93285278a18c9a027772d9bf932a6e9528dbb221bc1665e6b590b2789d33d91',
    'C2xC2xS3': '97078c8307b0cf99a2234e30d79893332de986bddef509de0ae977a712773263',
    'C2xDic3': '967de2a10992e7e8d5005afd84424305b4b3d2fbdde0df4205000b7f68f01f34',
    'C3:C8': 'ef5e8d2f4c30d7ffd0de5460215b0ae0da8b100c21507964e2bcf0de7c978069',
    'C3:D8': 'bc7c23e5ef35afcb97ca6c26f06336dcfc54b1899097da20737a0c9550c857f7',
    'C3xD8': '551de88ca3f7034e0bade947abb47a5be6a6130e6c8517ceea9631a1d046863d',
    'C3xQ8': '1233115e157737832f15cda2cf35e7d081fdafb533cbe750d48e8df3b9e3675c',
    'C4xS3': 'ec813f37ab0d984c59ef49b4686a8d4eac1c64b5d9935b2df58a3a025024f750',
    'C6xC2xC2': 'abe7ffabab050f3b374487f489832893aa11763acb4ad7fd5fd5dde9dbd1b61c',
    'D24': '1bfbd6228f84d8c2e862012fd2255b1f5d850c124ce7aae8c0de1c2894a250e2',
    'Dic6': 'cb54ccb4193875c571cbc3529fcec2f65cf10afa3748a089364049e891b4239f',
    'S4': 'f389d15fff6a4216886f4093d69d56c32203ec55a8a89b719ba38929917802f8',
    'SL(2,3)': '67402265f369e603f53ce1a26ba4582dcf71f9ed464d4b19e6b7f33871deec8b',
    'S5': 'e044e773c0142c8e51b4539f1e94becd779239b56e32c4884637e33209b96c75',
}


def lattice_digest(lat):
    doc = [[[s.order, s.mask] for s in lat.subgroups],
           list(lat.normal_flags),
           [list(c) for c in lat.conjugacy_classes],
           sorted(lat.sylow_index.items())]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def test_lattices_pinned(cat, lattice_for):
    assert set(LATTICE_DIGESTS) == set(cat.names())
    for name in cat.names():
        assert lattice_digest(lattice_for(name)) == LATTICE_DIGESTS[name], name


def test_normal_flags_match_is_normal(cat, lattice_for):
    for name in cat.names():
        g = cat.realize(name)
        if g.order >= 120:
            continue
        lat = lattice_for(name)
        elems = [p.images for p in g.elements]
        for i, s in enumerate(lat.subgroups):
            hs = frozenset(elems[m] for m in s.member_indices())
            assert lat.normal_flags[i] == oracles.is_normal_in(hs, elems), (name, i)


def test_s5_lattice_counts(lattice_for):
    lat = lattice_for("S5")
    assert len(lat) == 156
    assert len(lat.conjugacy_classes) == 19
    assert sum(lat.normal_flags) == 3
