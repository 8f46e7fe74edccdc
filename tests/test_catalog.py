import importlib.util
import json
from pathlib import Path

import pytest

from groupineq.catalog import (
    EXPECTED_CLASS_COUNTS,
    PAPER_TUPLE_NAMES,
    CatalogError,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    load_catalog,
    pgl2,
    realize,
    realize_paper_tuple,
    semidirect_cyclic,
    symmetric,
)
from groupineq.perm_core import is_abelian, is_isomorphic

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CATALOG = ROOT / "src" / "groupineq" / "data" / "catalog.json"


def test_class_counts(cat):
    for order, want in EXPECTED_CLASS_COUNTS.items():
        assert len(cat.by_order.get(order, ())) == want, order
    assert sum(EXPECTED_CLASS_COUNTS.values()) == 74
    assert cat.by_order[8] == tuple(cat.by_order[8])
    assert len(cat.names()) == 75  # the 74 classes up to order 24, plus S5
    assert "S5" in cat.by_order[120]


def test_headline_orders(cat):
    assert len(cat.by_order[8]) == 5
    assert len(cat.by_order[12]) == 5
    assert len(cat.by_order[16]) == 14
    assert len(cat.by_order[18]) == 5
    assert len(cat.by_order[20]) == 5
    assert len(cat.by_order[24]) == 15


def test_every_entry_realizes_to_expected_order(cat):
    for name in cat.names():
        gdef = cat.get(name)
        g = cat.realize(name)
        assert g.order == gdef.expected_order, name
        assert gdef.has_tag(f"order:{gdef.expected_order}")


def test_abelian_tags_match_reality(cat):
    for name in cat.names():
        gdef = cat.get(name)
        assert gdef.has_tag("abelian") == is_abelian(cat.realize(name)), name


def test_realize_is_cached(cat):
    assert cat.realize("S4") is cat.realize("S4")


def test_aliases(cat):
    assert cat.canonical_name("PGL2(F5)") == "S5"
    assert cat.canonical_name("PGL2(5)") == "S5"
    assert cat.canonical_name("S4") == "S4"
    assert cat.realize(cat.canonical_name("PGL2(F5)")).order == 120


def test_unknown_name(cat):
    with pytest.raises(KeyError, match="no catalog group"):
        cat.get("nope")
    with pytest.raises(KeyError):
        cat.realize("s4")  # case sensitive


def test_builders():
    assert realize(cyclic(7)).order == 7
    assert realize(dihedral(6)).order == 12
    assert realize(symmetric(4)).order == 24
    assert realize(alternating(4)).order == 12
    prod = direct_product(cyclic(2), cyclic(3))
    g = realize(prod)
    assert g.order == 6 and is_abelian(g)
    assert prod.has_tag("abelian")
    assert not direct_product(symmetric(3), cyclic(2)).has_tag("abelian")
    f20 = realize(semidirect_cyclic(5, 4, 2))
    assert f20.order == 20 and not is_abelian(f20)


def test_semidirect_validation():
    with pytest.raises(ValueError):
        semidirect_cyclic(5, 3, 2)  # 2^3 != 1 mod 5
    with pytest.raises(ValueError):
        semidirect_cyclic(6, 2, 3)  # gcd(3, 6) != 1


def test_pgl2():
    assert is_isomorphic(realize(pgl2(3)), realize(symmetric(4)))
    g = realize(pgl2(5))
    assert g.order == 120
    assert is_isomorphic(g, realize(symmetric(5)))
    with pytest.raises(ValueError):
        pgl2(4)


def test_direct_product_non_isomorphic_orders(cat):
    # sanity on a classically confusable pair
    assert not is_isomorphic(cat.realize("C4xC2"), cat.realize("C2xC2xC2"))
    assert not is_isomorphic(cat.realize("D8"), cat.realize("Q8"))


def write_catalog(tmp_path, records, name="cat.json"):
    p = tmp_path / name
    p.write_text(json.dumps(records))
    return str(p)


BASE = [
    {"name": "C1", "degree": 1, "generators": [], "expected_order": 1,
     "tags": ["order:1", "abelian"]},
]


def test_load_catalog_missing_file(tmp_path):
    with pytest.raises(CatalogError, match="not found"):
        load_catalog(str(tmp_path / "absent.json"))


def test_load_catalog_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(str(p))


def test_load_catalog_not_a_list(tmp_path):
    p = tmp_path / "obj.json"
    p.write_text("{}")
    with pytest.raises(CatalogError, match="JSON array"):
        load_catalog(str(p))


def test_load_catalog_malformed_record(tmp_path):
    path = write_catalog(tmp_path, [{"degree": 1}])
    with pytest.raises(CatalogError, match="malformed"):
        load_catalog(path)


def test_load_catalog_duplicate_name(tmp_path):
    rec = dict(BASE[0])
    path = write_catalog(tmp_path, [rec, dict(rec)])
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(path)


def test_load_catalog_wrong_order(tmp_path):
    rec = dict(BASE[0], expected_order=2)
    path = write_catalog(tmp_path, [rec])
    with pytest.raises(CatalogError, match="closes to order"):
        load_catalog(path)


@pytest.mark.parametrize("name, tags", [
    ("S3", ["order:6", "abelian", "symmetric"]),
    ("C6", ["order:6", "cyclic"]),
], ids=["tagged-nonabelian", "untagged-abelian"])
def test_load_catalog_wrong_abelian_tag(tmp_path, name, tags):
    full = json.loads(SHIPPED_CATALOG.read_text())
    edited = [dict(r, tags=tags) if r["name"] == name else r for r in full]
    path = write_catalog(tmp_path, edited)
    with pytest.raises(CatalogError, match=f"entry '{name}' has a wrong abelian tag"):
        load_catalog(path)


def test_load_catalog_isomorphic_duplicates(tmp_path):
    full = json.loads(SHIPPED_CATALOG.read_text())
    clone = {"name": "C2-again", "degree": 4, "generators": ["(3,4)"],
             "expected_order": 2, "tags": ["order:2", "abelian"]}
    path = write_catalog(tmp_path, full + [clone])
    with pytest.raises(CatalogError, match="isomorphic duplicates"):
        load_catalog(path)


def test_load_catalog_count_mismatch(tmp_path):
    full = json.loads(SHIPPED_CATALOG.read_text())
    trimmed = [r for r in full if r["name"] != "Q8"]
    path = write_catalog(tmp_path, trimmed)
    with pytest.raises(CatalogError, match="order 8"):
        load_catalog(path)


def test_paper_tuple_names():
    assert PAPER_TUPLE_NAMES == ("s4-dfz1", "s4-dfz3", "d20-example")
    # one subgroup per generator set of the tuple
    assert [len(realize_paper_tuple(name)[1]) for name in PAPER_TUPLE_NAMES] == [5, 5, 3]
    with pytest.raises(ValueError, match="unknown tuple name"):
        realize_paper_tuple("bogus")


def test_paper_tuples_realize(cat):
    g, subs = realize_paper_tuple("s4-dfz1")
    assert g.order == 24
    assert [s.order for s in subs] == [6, 6, 4, 4, 4]
    g, subs = realize_paper_tuple("s4-dfz3")
    assert [s.order for s in subs] == [6, 4, 8, 6, 4]
    g, subs = realize_paper_tuple("d20-example")
    assert g.order == 20
    assert [s.order for s in subs] == [2, 2, 4]


def test_build_catalog_reproduces_shipped_file():
    # tools/build_catalog.py must regenerate the shipped registry byte for byte
    spec = importlib.util.spec_from_file_location(
        "build_catalog", ROOT / "tools" / "build_catalog.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shipped = SHIPPED_CATALOG.read_bytes()
    assert tool.render(tool.build_defs()).encode("utf-8") == shipped
