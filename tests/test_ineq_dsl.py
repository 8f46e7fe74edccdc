import itertools
import random
import re

import pytest

import oracles
from groupineq.ineq_dsl import (
    BUILTIN_IDS,
    DFZ_IDS,
    InequalitySpec,
    ParseError,
    builtin,
    group_form,
    parse,
    pretty_print,
    symmetry_group,
)
from groupineq.ineq_dsl import _BUILTIN_TEXTS


def fs(*xs):
    return frozenset(xs)


def coeff_dict(spec):
    return {frozenset(k): v for k, v in spec.coeffs.items()}


def test_atoms():
    assert coeff_dict(parse("H(X1) >= 0")) == {fs(1): 1}
    assert coeff_dict(parse("H(X1,X3) >= 0")) == {fs(1, 3): 1}
    assert coeff_dict(parse("H(X1|X2) >= 0")) == {fs(1, 2): 1, fs(2): -1}
    assert coeff_dict(parse("I(X1;X2) >= 0")) == {fs(1): 1, fs(2): 1, fs(1, 2): -1}
    assert coeff_dict(parse("I(X1;X2|X3) >= 0")) == {
        fs(1, 3): 1, fs(2, 3): 1, fs(1, 2, 3): -1, fs(3): -1}
    assert coeff_dict(parse("I(X1,X2;X3|X4,X5) >= 0")) == {
        fs(1, 2, 4, 5): 1, fs(3, 4, 5): 1, fs(1, 2, 3, 4, 5): -1, fs(4, 5): -1}


def test_relation_directions():
    a = parse("I(X1;X2) <= I(X1;X2|X3) + I(X3;X3)")
    b = parse("I(X1;X2|X3) + I(X3;X3) >= I(X1;X2)")
    assert a.coeffs == b.coeffs
    assert coeff_dict(parse("H(X2) <= H(X1,X2)")) == {fs(1, 2): 1, fs(2): -1}


def test_builtins_match_independent_expansion():
    for iid in BUILTIN_IDS:
        spec = builtin(iid)
        assert coeff_dict(spec) == oracles.expand_inequality(_BUILTIN_TEXTS[iid]), iid
        assert spec.id == iid


def test_builtin_shapes():
    assert builtin("ingleton").n_vars == 4
    for iid in DFZ_IDS:
        assert builtin(iid).n_vars == 5
    assert "ingleton" not in DFZ_IDS
    # every builtin mixes signs and is balanced (coefficients sum to zero)
    for iid in BUILTIN_IDS:
        vals = list(builtin(iid).coeffs.values())
        assert any(v > 0 for v in vals) and any(v < 0 for v in vals)
        assert sum(vals) == 0


def test_builtin_unknown():
    with pytest.raises(ValueError, match="unknown inequality id"):
        builtin("dfz11")


def test_ingleton_coeffs_frozen():
    # derived once from the oracle expansion, then pinned; note H(X3) and
    # H(X4) cancel between I(X3;X4) and the two conditional terms
    assert coeff_dict(builtin("ingleton")) == {
        fs(1): -1, fs(2): -1, fs(1, 2): 1,
        fs(1, 3): 1, fs(1, 4): 1, fs(2, 3): 1, fs(2, 4): 1, fs(3, 4): -1,
        fs(1, 2, 3): -1, fs(1, 2, 4): -1,
    }


def test_dfz8_coefficient_two():
    c = coeff_dict(builtin("dfz8"))
    assert c[fs(1, 2)] == 2
    assert c[fs(1)] == -2 and c[fs(2)] == -2


def test_group_forms():
    assert group_form(builtin("ingleton")) == (
        "|G12||G13||G14||G23||G24| <= |G1||G2||G34||G123||G124|")
    assert group_form(builtin("dfz1")) == (
        "|G12||G13||G14||G23||G24||G35||G45| <= |G2||G3||G4||G15||G123||G124||G345|")
    assert group_form(builtin("dfz8")) == (
        "|G12|^2|G13||G14||G15||G23||G24||G25| <= |G1|^2|G2|^2|G123||G124||G125||G345|")


def test_group_form_dfz3_factor_multiset():
    lhs, rhs = group_form(builtin("dfz3")).split(" <= ")
    split = lambda side: sorted(side.replace("||", "|,|").split(","))
    assert split(lhs) == sorted(["|G12|", "|G14|", "|G23|", "|G24|", "|G135|", "|G345|"])
    assert split(rhs) == sorted(["|G2|", "|G4|", "|G13|", "|G124|", "|G235|", "|G1345|"])


def test_group_form_with_balance():
    # H(X1) >= 0 alone is unbalanced: |G| appears on one side
    s = parse("H(X1) >= 0")
    assert group_form(s) == "|G1| <= |G|"
    t = parse("0 >= 0")
    assert group_form(t) == "1 <= 1"


def test_pretty_print_roundtrip():
    for iid in BUILTIN_IDS:
        spec = builtin(iid)
        again = parse(pretty_print(spec))
        assert spec.coeffs == again.coeffs, iid
    custom = parse("3 H(X2|X1) + I(X1;X3) >= H(X1,X2,X3)")
    assert parse(pretty_print(custom)).coeffs == custom.coeffs
    # a scaled zero prints as nothing, not as a digit run that cannot parse
    for text in ("2 0", "3 0 >= 0", "H(X1) + 2 0"):
        spec = parse(text)
        assert parse(pretty_print(spec)).coeffs == spec.coeffs, text
    assert pretty_print(parse("2 0")) == "0 >= 0"
    # the text depends on the coefficients alone: two spellings of
    # Ingleton print alike
    swapped = parse("I(X2;X1) <= I(X2;X1|X3) + I(X1;X2|X4) + I(X3;X4)")
    assert pretty_print(swapped) == pretty_print(parse(_BUILTIN_TEXTS["ingleton"]))


def test_bare_expression_reads_as_nonnegative():
    assert parse("I(X1;X2)").coeffs == parse("I(X1;X2) >= 0").coeffs
    assert parse("H(X1|X2)").coeffs == parse("H(X1|X2) >= 0").coeffs


def test_cancellation_to_zero():
    chain = parse("H(X1) + H(X2|X1) - H(X1,X2) >= 0")
    assert coeff_dict(chain) == {}
    assert coeff_dict(parse("0 >= 0")) == {}
    assert coeff_dict(parse("0 H(X1) >= 0")) == {}
    assert chain.coeffs == parse("0 >= 0").coeffs


def test_parse_errors_and_positions():
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse("I(X1;X2")
    with pytest.raises(ParseError, match="unexpected character 'Y'"):
        parse("H(Y1)")
    with pytest.raises(ParseError, match="outside 1..5"):
        parse("I(X1;X2) <= I(X1;X6)")
    with pytest.raises(ParseError, match="position 9"):
        parse("I(X1;X2) ? 0")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("I(X1;X2) <= 3")
    with pytest.raises(ParseError):
        parse("H(X1) >= 0 extra")
    with pytest.raises(ParseError):
        parse("I(X1,X2) >= 0")  # missing ';'
    with pytest.raises(ParseError):
        parse("H() >= 0")
    # only ASCII 0-9 are digits: a superscript or an Arabic-Indic digit
    # is a positioned error, not a bare int() failure or a silent X1
    for text, error in (("H(X1) >= ²", "unexpected character '²' (at position 9)"),
                        ("H(X1) >= 0 + 2١", "unexpected character '١' (at position 14)"),
                        ("H(X²) >= 0", "expected a digit after 'X' (at position 2)"),
                        ("H(X١) >= 0", "expected a digit after 'X' (at position 2)")):
        with pytest.raises(ParseError, match=re.escape(error)):
            parse(text)


def test_subsets_ordering():
    subs = builtin("dfz1").subsets()
    keys = [(len(s), tuple(sorted(s))) for s in subs]
    assert keys == sorted(keys)
    assert len(subs) == len(set(subs))


def test_spec_is_immutable():
    spec = builtin("ingleton")
    with pytest.raises(Exception):
        spec.n_vars = 3


def test_symmetry_group_orders_frozen():
    want = {"ingleton": 4, "dfz1": 2, "dfz2": 2, "dfz3": 1, "dfz4": 1,
            "dfz5": 1, "dfz6": 2, "dfz7": 1, "dfz8": 12, "dfz9": 2, "dfz10": 1}
    for iid, n in want.items():
        spec = builtin(iid)
        sg = symmetry_group(spec)
        assert len(sg) == n, iid
        assert sg[0] == tuple(range(1, spec.n_vars + 1))


def test_symmetry_group_members():
    ing = symmetry_group(builtin("ingleton"))
    assert set(ing) == {(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)}
    assert (1, 2, 4, 3, 5) in symmetry_group(builtin("dfz1"))
    assert (1, 5, 4, 3, 2) in symmetry_group(builtin("dfz2"))


def apply_perm(coeffs, perm):
    out = {}
    for sub, c in coeffs.items():
        out[frozenset(perm[i - 1] for i in sub)] = c
    return out


def test_symmetry_group_exactness():
    # every listed perm fixes the coefficients, every non-listed one moves
    # them, in lexicographic order; besides the builtins, a form symmetric
    # in all five variables, one with two classes of alike variables, and
    # one with a variable (X3) in no term
    extra = [parse("H(X1) + H(X2) + H(X3) + H(X4) + H(X5) >= H(X1,X2,X3,X4,X5)"),
             parse("I(X1;X2) + I(X4;X5) >= I(X1,X2;X4,X5)"),
             parse("H(X1,X2) + H(X4) >= H(X1) + H(X2,X4)")]
    for spec in [builtin(i) for i in BUILTIN_IDS] + extra:
        iid = spec.id
        sg = symmetry_group(spec)
        assert list(sg) == sorted(sg), iid
        cd = coeff_dict(spec)
        members = set(sg)
        for perm in itertools.permutations(range(1, spec.n_vars + 1)):
            fixed = apply_perm(cd, perm) == cd
            assert fixed == (perm in members), (iid, perm)


def test_symmetry_group_closed():
    for iid in ("ingleton", "dfz8"):
        sg = symmetry_group(builtin(iid))
        members = set(sg)
        for a in members:
            for b in members:
                comp = tuple(a[b[i] - 1] for i in range(len(a)))
                assert comp in members


def test_random_roundtrips_against_oracle():
    rng = random.Random(23)
    quantities = []
    for _ in range(200):
        terms = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.choice(["H", "I"])
            mult = rng.choice(["", "2 ", "3 "])
            vars_ = lambda k: ",".join(
                f"X{i}" for i in sorted(rng.sample(range(1, 6), k)))
            if kind == "H":
                body = vars_(rng.randrange(1, 3))
                if rng.random() < 0.5:
                    body += "|" + vars_(1)
            else:
                body = vars_(1) + ";" + vars_(rng.randrange(1, 3))
                if rng.random() < 0.5:
                    body += "|" + vars_(1)
            terms.append(f"{mult}{kind}({body})")
        text = " + ".join(terms) + " >= 0"
        spec = parse(text)
        assert coeff_dict(spec) == oracles.expand_inequality(text), text
        assert parse(pretty_print(spec)).coeffs == spec.coeffs, text
        quantities.append(text)
    assert len(quantities) == 200
