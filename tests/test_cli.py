import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from groupineq import cli, perm_core, search_engine
from groupineq.catalog import load_catalog
from groupineq.entropy_eval import entropy_vector, evaluate
from groupineq.ineq_dsl import _BUILTIN_CACHE, _BUILTIN_TEXTS, builtin, parse
from groupineq.perm_core import Permutation, all_subgroups, closure
from groupineq.search_engine import SearchConfig, scan_group


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("GIL_CACHE_DIR", str(d))
    return d


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# subgroup text parsing

def s4():
    return load_catalog().realize("S4")


def cache_file(directory, g):
    # the cache names each group's file by its group hash
    return directory / f"{cli.group_hash(g)}.json"


def test_parse_subgroup_text_labeled_generators():
    g = s4()
    text = ("G1=(3 4)(2 4 3); G2=(1 3)(1 3 2); G3=(1 2)(3 4)(3 4); "
            "G4=(1 3)(2 4)(2 4); G5=(1 4)(2 3)(1 3)(2 4)")
    subs = cli.parse_subgroup_text(g, text)
    assert [s.order for s in subs] == [6, 6, 4, 4, 4]


def test_parse_subgroup_text_disjoint_grouping():
    g = s4()
    # one permutation: the two cycles are disjoint
    (one,) = cli.parse_subgroup_text(g, "(1 2)(3 4)")
    assert one.order == 2
    # overlapping cycles split into two generators
    (two,) = cli.parse_subgroup_text(g, "(3 4)(2 4 3)")
    assert two.order == 6
    # an explicit comma always splits
    (v4,) = cli.parse_subgroup_text(g, "(1 2),(3 4)")
    assert v4.order == 4


def test_parse_subgroup_text_commas_in_cycles():
    g = s4()
    subs = cli.parse_subgroup_text(g, "G1=(1,2); G2=(1,2,3,4)")
    assert [s.order for s in subs] == [2, 4]


def test_parse_subgroup_text_trivial_and_identity():
    g = s4()
    (t,) = cli.parse_subgroup_text(g, "()")
    assert t.order == 1


def test_parse_subgroup_text_labels_checked():
    g = s4()
    with pytest.raises(cli.CliError, match="labels must be in order"):
        cli.parse_subgroup_text(g, "G2=(1 2); G1=(3 4)")
    with pytest.raises(cli.CliError):
        cli.parse_subgroup_text(g, "G1=(1 2); G1=(3 4)")
    # an Arabic-Indic one is no label digit, so the chunk is no label and
    # its 'G' is no cycle
    with pytest.raises(cli.CliError, match="subgroup G1: unexpected character 'G'"):
        cli.parse_subgroup_text(g, "G\u0661=(1 2)")


def test_parse_subgroup_text_errors():
    g = s4()
    with pytest.raises(cli.CliError):
        cli.parse_subgroup_text(g, "")
    with pytest.raises(ValueError):
        cli.parse_subgroup_text(g, "(1 9)")
    with pytest.raises(ValueError):
        cli.parse_subgroup_text(g, "(1 2")
    with pytest.raises(ValueError):
        cli.parse_subgroup_text(g, "G1=(1 2) junk")


# ---------------------------------------------------------------------------
# check

def test_check_paper_tuple_json(capsys, cache_dir):
    code, doc, _ = run_json(["check", "--tuple", "s4-dfz1"], capsys)
    assert code == 1  # a violation was found
    r = doc["results"]
    assert r["group"] == "S4" and r["order"] == 24
    verd = {v["inequality"]: v for v in r["verdicts"]}
    assert verd["dfz1"]["violated"] is True
    assert (verd["dfz1"]["lhs_product"], verd["dfz1"]["rhs_product"]) == ("128", "96")
    assert verd["dfz1"]["ratio"] == "4/3"
    assert verd["ingleton"]["violated"] is False
    assert len(r["subset_orders"]) == 31


def test_check_explicit_subgroups_holds(capsys, cache_dir):
    # dfz1 needs arity 5; two subgroups is an arity error -> usage failure
    code, _, err = run(
        ["check", "C6", "--subgroups", "G1=(); G2=()", "--ineqs", "dfz1"], capsys)
    assert code == 2
    assert "gil: error" in err


def test_check_explicit_subgroups_ok(capsys, cache_dir):
    text = "G1=(1 2); G2=(1 3); G3=(2 3); G4=(1 2 3); G5=()"
    code, doc, _ = run_json(["check", "S3", "--subgroups", text], capsys)
    assert code == 0
    assert all(v["violated"] is False for v in doc["results"]["verdicts"])


def test_check_tuple_group_must_match(capsys, cache_dir):
    code, _, err = run(["check", "A4", "--tuple", "s4-dfz1"], capsys)
    assert code == 2
    assert "gil: error" in err


def test_check_requires_tuple_or_subgroups(capsys, cache_dir):
    code, _, err = run(["check", "S4"], capsys)
    assert code == 2
    code, _, err = run(
        ["check", "--tuple", "s4-dfz1", "--subgroups", "()"], capsys)
    assert code == 2


def test_check_markdown_output(capsys, cache_dir):
    code, out, _ = run(["check", "--tuple", "s4-dfz1", "--ineqs", "ingleton"], capsys)
    assert code == 0
    assert "| subset | order |" in out
    assert "ingleton" in out


def test_check_unknown_group(capsys, cache_dir):
    code, _, err = run(["check", "Nope", "--subgroups", "()"], capsys)
    assert code == 2
    assert "no catalog group" in err


# ---------------------------------------------------------------------------
# scan / survey

def test_scan_s4_json(capsys, cache_dir):
    code, doc, _ = run_json(["scan", "S4", "--jobs", "2"], capsys)
    assert code == 1
    r = doc["results"]
    assert r["subgroup_count"] == 30
    assert sorted({w["inequality"] for w in r["witnesses"]}) == ["dfz1", "dfz3"]
    rep = r["prune_report"]
    assert rep["tuples_total"] == 30 ** 5
    total = rep["tuples_evaluated"] + sum(rep["tuples_pruned_by_rule"].values())
    assert total == rep["tuples_total"]
    # every reported witness replays to the same exact products
    g = s4()
    for w in r["witnesses"]:
        subs = [cli.parse_subgroup_text(g, ",".join(gen))[0]
                for gen in w["subgroups"]]
        v = evaluate(builtin(w["inequality"]), entropy_vector(g, subs))
        assert not v.holds
        assert str(v.lhs_product) == w["lhs_product"]
        assert str(v.rhs_product) == w["rhs_product"]


_NO_POOL_SCRIPT = """
import sys
from groupineq import cli
code = cli.main(["scan", "S4", "--ineqs", "dfz", "--jobs", "2", "--format", "json"])
loaded = sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                if m in sys.modules)
print(code, loaded, file=sys.stderr)
"""


def test_small_scan_imports_no_pool(cache_dir):
    # S4 dfz plans too few cells for a pool, so a jobs 2 scan never
    # imports one; a fresh interpreter shows what the command loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "1 []"
    assert '"dfz1"' in proc.stdout


def test_scan_clean_group_exit_zero(capsys, cache_dir):
    code, doc, _ = run_json(["scan", "D20"], capsys)
    assert code == 0
    assert doc["results"]["witnesses"] == []


def test_scan_witnesses_json_identical_across_jobs(cache_dir, monkeypatch):
    # the S4 scan plans too few cells for a pool; force one at jobs 4
    monkeypatch.setattr(search_engine, "_POOL_CELLS", 0)
    g = s4()
    lat = all_subgroups(g)
    outs = []
    for jobs in (1, 4):
        w, _ = scan_group(g, SearchConfig.make(ineqs="dfz", jobs=jobs), lat)
        outs.append(cli.witnesses_json(w))
    assert outs[0] == outs[1]
    assert isinstance(outs[0], str) and '"dfz1"' in outs[0]


def test_survey_range_json(capsys, cache_dir):
    code, doc, _ = run_json(["survey", "2..8"], capsys)
    assert code == 0
    entries = doc["results"]["entries"]
    assert {e["group"] for e in entries} == {
        n for o in range(2, 9) for n in load_catalog().by_order.get(o, ())}
    assert all(e["witnesses"] == 0 and e["error"] is None for e in entries)


def test_survey_single_order(capsys, cache_dir):
    code, doc, _ = run_json(["survey", "15"], capsys)
    assert code == 0
    (entry,) = doc["results"]["entries"]
    assert entry["group"] == "C15"


def test_survey_range_past_the_catalog(capsys, cache_dir, monkeypatch):
    # a range may end far past the catalog's largest order; only catalog
    # orders reach the survey, so the range itself is never expanded
    seen = []
    monkeypatch.setattr(cli, "survey", lambda cat, orders, cfg, lattice_for: seen.append(orders) or {})
    huge = str(10 ** 24)
    code, _, _ = run(["survey", f"100..{huge}"], capsys)
    assert code == 0
    assert [sorted(o) for o in seen] == [[o for o in sorted(load_catalog().by_order) if o >= 100]]


def test_survey_bad_range(capsys, cache_dir):
    code, _, err = run(["survey", "five"], capsys)
    assert code == 2
    code, _, err = run(["survey", "9..3"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["scan", "S4", "--prune", ","], "no prune rules selected by ','"),
    (["scan", "S4", "--prune", ""], "no prune rules selected by ''"),
    (["survey", "30..40"], "no catalog group has an order in 30..40"),
    (["survey", "25..119"], "no catalog group has an order in 25..119"),
    (["check", "--tuple", "s4-dfz1", "--ineqs", ","], "no inequalities selected"),
    (["check", "--tuple", "s4-dfz1", "--ineqs", ""], "no inequalities selected"),
], ids=["prune-comma", "prune-empty", "survey-30-40", "survey-25-119",
        "check-ineqs-comma", "check-ineqs-empty"])
def test_empty_selection_is_usage_error(capsys, cache_dir, argv, message):
    # nothing to scan or check is an error, not a silent --prune none, a
    # clean survey or an empty verdict table
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"gil: error: {message}")


def test_parse_order_range():
    assert cli.parse_order_range("15") == (15, 15)
    assert cli.parse_order_range("2..23") == (2, 23)
    with pytest.raises(cli.CliError):
        cli.parse_order_range("2..")
    with pytest.raises(cli.CliError):
        cli.parse_order_range("0..4")
    # digits of other scripts are not ASCII 0-9, though int() reads them
    for text in ("\uff12..\uff14", "\u0662..4", "2..\u00b3"):
        with pytest.raises(cli.CliError, match="bad order range"):
            cli.parse_order_range(text)


# ---------------------------------------------------------------------------
# parse / groups

def test_parse_command(capsys, cache_dir):
    text = "I(X1;X2) <= I(X1;X2|X3) + I(X1;X2|X4) + I(X3;X4)"
    code, doc, _ = run_json(["parse", text], capsys)
    assert code == 0
    r = doc["results"]
    assert r["n_vars"] == 4
    assert r["symmetry_order"] == 4
    spec = builtin("ingleton")
    got = {c["subset"]: c["coefficient"] for c in r["coefficients"]}
    want = {"".join(str(i) for i in sorted(k)): v for k, v in spec.coeffs.items()}
    assert got == want
    assert "<=" in r["group_form"]
    # text echoes the input; canonical is the joint-entropy form, and it
    # parses back to the builtin's coefficients
    assert r["text"] == text
    assert parse(r["canonical"]).coeffs == spec.coeffs


def test_parse_command_error(capsys, cache_dir):
    code, _, err = run(["parse", "I(X1;X9)"], capsys)
    assert code == 2
    assert "gil: error" in err


def test_groups_list(capsys, cache_dir):
    code, doc, _ = run_json(["groups", "list"], capsys)
    assert code == 0
    assert doc["config"] == {"action": "list"}
    assert doc["results"]["count"] == len(doc["results"]["entries"]) == 75
    entries = [e for e in doc["results"]["entries"] if e["order"] <= 8]
    assert len(entries) == 14
    assert {e["name"] for e in entries if e["order"] == 8} == {
        "C8", "C4xC2", "C2xC2xC2", "D8", "Q8"}


def test_groups_show(capsys, cache_dir):
    code, doc, _ = run_json(["groups", "show", "D20"], capsys)
    assert code == 0
    r = doc["results"]
    assert r["order"] == 20 and r["subgroups"] == 22
    code, _, err = run(["groups", "show", "nope"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# lattice cache

def test_cache_roundtrip(tmp_path):
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    fresh = cache.get(g)
    assert cache.misses == 1 and cache.hits == 0
    again = cli.LatticeCache(tmp_path / "c").get(g)
    assert [s.mask for s in fresh.subgroups] == [s.mask for s in again.subgroups]
    assert fresh.normal_flags == again.normal_flags
    assert fresh.conjugacy_classes == again.conjugacy_classes
    assert fresh.sylow_index == again.sylow_index
    direct = all_subgroups(g)
    assert [s.mask for s in again.subgroups] == [s.mask for s in direct.subgroups]


def test_cache_hit_counted(tmp_path):
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    cache.get(g)
    cache.get(g)
    assert cache.hits == 1 and cache.misses == 1


def test_cache_rejects_stale_version(tmp_path, monkeypatch):
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    cache.get(g)
    monkeypatch.setattr(cli, "CACHE_FORMAT_VERSION", cli.CACHE_FORMAT_VERSION + 1)
    cache2 = cli.LatticeCache(tmp_path / "c")
    cache2.get(g)
    assert cache2.misses == 1


def test_cache_rejects_hash_mismatch(tmp_path):
    # A4's file under S4's name: its digest names A4's hash, so S4 misses
    cache = cli.LatticeCache(tmp_path / "c")
    g, a4 = s4(), load_catalog().realize("A4")
    cache.get(a4)
    cache_file(tmp_path / "c", g).write_text(cache_file(tmp_path / "c", a4).read_text())
    cache2 = cli.LatticeCache(tmp_path / "c")
    lat = cache2.get(g)
    assert (cache2.misses, cache2.hits, len(lat)) == (1, 0, 30)


def test_cache_file_layout_and_v2_miss(tmp_path):
    # a file in the version-2 layout (no digest) is a miss, and get
    # rewrites it as masks plus digest
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    cache.get(g)
    path = cache_file(tmp_path / "c", g)
    stored = json.loads(path.read_text())
    assert sorted(stored) == ["digest", "subgroup_masks"]
    path.write_text(json.dumps({"format_version": 2, "group_hash": cli.group_hash(g),
                                "group_name": g.name, "group_order": g.order,
                                "subgroup_masks": stored["subgroup_masks"]}))
    cache2 = cli.LatticeCache(tmp_path / "c")
    assert len(cache2.get(g)) == 30 and cache2.misses == 1
    assert json.loads(path.read_text()) == stored


def test_cache_hashes_each_group_once_per_get(tmp_path, monkeypatch):
    # a miss and a hit each hash the group once; the file is still named
    # by that hash and its digest covers the format version, the hash and
    # the mask strings
    calls = []
    real = cli.group_hash
    monkeypatch.setattr(cli, "group_hash", lambda g: calls.append(g) or real(g))
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    cache.get(g)
    cache.get(g)
    assert (cache.misses, cache.hits, len(calls)) == (1, 1, 2)
    key = real(g)
    stored = json.loads((tmp_path / "c" / f"{key}.json").read_text())
    text = json.dumps([cli.CACHE_FORMAT_VERSION, key, stored["subgroup_masks"]])
    assert stored["digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_cache_hit_builds_no_table(tmp_path):
    # the meet and conjugation tables are built by whoever reads them
    cli.LatticeCache(tmp_path / "c").get(s4())
    cache = cli.LatticeCache(tmp_path / "c")
    lat = cache.get(s4())
    assert cache.hits == 1
    assert "meet" not in vars(lat) and "_conjugation" not in vars(lat)


def test_cache_rejects_corrupt_json(tmp_path):
    cache = cli.LatticeCache(tmp_path / "c")
    g = s4()
    cache.get(g)
    cache_file(tmp_path / "c", g).write_text("{broken")
    cache2 = cli.LatticeCache(tmp_path / "c")
    lat = cache2.get(g)
    assert cache2.misses == 1 and len(lat) == 30


@pytest.mark.parametrize("edit", [
    lambda masks: masks.__setitem__(5, "3"),      # a duplicate subgroup
    lambda masks: masks.__setitem__(5, "7"),      # not a subgroup
    lambda masks: masks.pop(1),                   # an intersection dropped
    lambda masks: masks.insert(1, masks.pop(2)),  # out of (order, mask) order
    lambda masks: masks.insert(-1, str(int(masks[-2]) | 1 << 24)),  # outside G
    lambda masks: masks.pop(25),                  # one of three conjugate D8s dropped
    lambda masks: masks.insert(-1, str(int(masks[1]) - (1 << 24))),  # negative
    lambda masks: masks.pop(28),                  # A4, a normal subgroup, dropped
], ids=["duplicate", "not-a-subgroup", "dropped", "unsorted", "outside", "dropped-conjugate",
        "negative", "dropped-normal"])
def test_cache_rejects_corrupt_lattice(capsys, tmp_path, edit):
    # a file whose masks cannot be S4's lattice is a miss, not a scan error
    # and not a scan over fewer subgroups
    d = tmp_path / "c"
    g = s4()
    path = cache_file(d, g)
    cli.LatticeCache(d).get(g)
    stored = json.loads(path.read_text())
    edit(stored["subgroup_masks"])
    corrupt = json.dumps(stored)
    path.write_text(corrupt)
    cache = cli.LatticeCache(d)
    lat = cache.get(g)
    assert (cache.misses, cache.hits, len(lat)) == (1, 0, 30)
    for args, witnesses in ((["scan", "S4"], 4),
                            (["scan", "S4", "--prune", "none", "--ineqs", "dfz1"], 72)):
        path.write_text(corrupt)   # each miss rewrites the file
        code, doc, _ = run_json(args + ["--cache-dir", str(d)], capsys)
        assert (code, doc["results"]["subgroup_count"],
                len(doc["results"]["witnesses"])) == (1, 30, witnesses), args


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("GIL_CACHE_DIR", raising=False)
    flag = tmp_path / "flagged"
    env = tmp_path / "from-env"
    assert cli.resolve_cache_dir(str(flag)) == flag
    monkeypatch.setenv("GIL_CACHE_DIR", str(env))
    assert cli.resolve_cache_dir(None) == env
    assert cli.resolve_cache_dir(str(flag)) == flag
    monkeypatch.delenv("GIL_CACHE_DIR")
    assert "gil" in str(cli.resolve_cache_dir(None))


def test_cli_populates_cache_dir(capsys, tmp_path):
    d = tmp_path / "flagged-cache"
    code, _, _ = run(["groups", "show", "S3", "--cache-dir", str(d)], capsys)
    assert code == 0
    assert list(d.glob("*.json"))


def test_lattice_cap_applies_on_cache_hit(capsys, tmp_path, monkeypatch):
    # a warm cache must not let a scan bypass the lattice cap
    d = str(tmp_path / "c")
    assert run(["groups", "show", "S4", "--cache-dir", d], capsys)[0] == 0
    monkeypatch.setattr(perm_core, "LATTICE_ORDER_CAP", 10)
    code, out, err = run(["scan", "S4", "--cache-dir", d], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds the lattice cap 10" in err


def test_group_hash_distinguishes_groups():
    cat = load_catalog()
    assert cli.group_hash(cat.realize("S4")) != cli.group_hash(cat.realize("A4"))
    assert cli.group_hash(cat.realize("S4")) == cli.group_hash(cat.realize("S4"))


# ---------------------------------------------------------------------------
# verify-paper, including deliberate fault injection

def fresh_dfz1(monkeypatch, text):
    monkeypatch.setitem(_BUILTIN_TEXTS, "dfz1", text)
    saved = dict(_BUILTIN_CACHE)
    _BUILTIN_CACHE.clear()
    return saved


def test_claim_s4_dfz1_detects_wrong_inequality(monkeypatch):
    # poison the builtin text; the claim must now fail
    saved = fresh_dfz1(monkeypatch, _BUILTIN_TEXTS["dfz2"])
    try:
        with pytest.raises(AssertionError):
            cli._claim_side_products("s4-dfz1", "dfz1", 128, 96)
    finally:
        _BUILTIN_CACHE.clear()
        _BUILTIN_CACHE.update(saved)
    # and with the real text it passes
    assert "128" in cli._claim_side_products("s4-dfz1", "dfz1", 128, 96)


def test_claim_catalog_counts_detects_missing_entry(monkeypatch):
    real = load_catalog()
    slim = {o: tuple(n for n in ns if n != "Q8") for o, ns in real.by_order.items()}

    class Stub:
        by_order = slim

    monkeypatch.setattr(cli, "load_catalog", lambda: Stub())
    with pytest.raises(AssertionError, match="class counts"):
        cli._claim_catalog_counts()


def test_claim_d20_gi():
    assert "5/2" in cli._claim_d20_gi()


def test_claim_s5_dfz_checks_counts_and_digest(monkeypatch):
    # the stretch claim's checks, on S4's four dfz witnesses in place of
    # the S5 scan: the per-inequality counts, then the digest
    cat = load_catalog()
    s4 = cat.realize("S4")
    witnesses, report = scan_group(s4, SearchConfig.make(ineqs="dfz"))

    class Cache:
        def get(self, g):
            return None

    monkeypatch.setattr(cli, "scan_group", lambda g, cfg, lattice: (witnesses, report))
    with pytest.raises(AssertionError, match="witnesses per inequality"):
        cli._claim_s5_dfz(1, Cache())
    monkeypatch.setattr(cli, "S5_DFZ_COUNTS", {"dfz1": 3, "dfz3": 1})
    with pytest.raises(AssertionError, match="witness digest"):
        cli._claim_s5_dfz(1, Cache())


def test_verify_paper_fast_claims(capsys, cache_dir):
    # run only the quick claims by reusing the command with jobs=2; the
    # survey claim dominates and stays well under the acceptance budget
    code, doc, _ = run_json(["verify-paper", "--jobs", "2"], capsys)
    assert code == 0
    rows = doc["results"]["claims"]
    names = [r["claim"] for r in rows]
    assert names == ["catalog-counts", "s4-dfz1-violation", "s4-dfz3-violation",
                     "d20-gi-values", "no-simultaneous-violator",
                     "s4-scan-witnesses", "a4-exhaustive-scan",
                     "smallest-violator-survey"]
    assert all(r["ok"] for r in rows)
    assert all(doc["timings"][r["claim"]] >= 0 for r in rows)


def test_verify_paper_results_repeat(capsys, cache_dir):
    # run timings go under "timings" only, so results are reproducible
    _, first, _ = run_json(["verify-paper", "--jobs", "2"], capsys)
    _, second, _ = run_json(["verify-paper", "--jobs", "2"], capsys)
    assert first["results"] == second["results"]


def test_verify_paper_reports_failure(capsys, cache_dir, monkeypatch):
    saved = fresh_dfz1(monkeypatch, _BUILTIN_TEXTS["dfz2"])
    try:
        code, doc, _ = run_json(["verify-paper", "--jobs", "2"], capsys)
    finally:
        _BUILTIN_CACHE.clear()
        _BUILTIN_CACHE.update(saved)
    assert code == 1
    rows = {r["claim"]: r for r in doc["results"]["claims"]}
    assert rows["s4-dfz1-violation"]["ok"] is False
    assert rows["catalog-counts"]["ok"] is True


# ---------------------------------------------------------------------------
# top level

def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "gil" in out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_markdown_default_format(capsys, cache_dir):
    code, out, _ = run(["parse", "H(X1|X2) >= 0"], capsys)
    assert code == 0
    assert not out.lstrip().startswith("{")


@pytest.mark.parametrize("argv, code, lines", [
    (["scan", "S4"], 1,
     ["# gil scan",
      "group S4 of order 24: 4 violation(s) over 24300000 tuples (526140 evaluated)",
      "| prune rule | tuples |", "| inequality | lhs | rhs | subgroups |"]),
    (["survey", "2..8"], 0,
     ["# gil survey", "orders 2..8: 0 witness(es) across 13 group(s)",
      "| group | order | witnesses | violated / error |", "| C2 | 2 | 0 | - |"]),
    (["groups", "list"], 0,
     ["# gil groups", "| name | order | degree | abelian | tags |",
      "| C1 | 1 | 1 | yes | order:1, abelian, cyclic |"]),
    (["groups", "show", "S4"], 0,
     ["# gil groups", "S4: order 24, degree 4", "generators: (1,2), (1,2,3,4)",
      "subgroups: 30 in 11 conjugacy classes, 4 normal"]),
    (["verify-paper"], 0, ["# gil verify-paper", "8/8 claims passed"]),
], ids=["scan", "survey", "groups-list", "groups-show", "verify-paper"])
def test_markdown_reports(capsys, cache_dir, argv, code, lines):
    got, out, _ = run(argv, capsys)
    assert got == code
    out_lines = out.splitlines()
    for line in lines:
        assert line in out_lines
    assert out_lines[-1].startswith("_timings: ")


def test_scan_markdown_rows_read_back(capsys, cache_dir):
    # a witness row's subgroup text, pasted into --subgroups, gives back
    # the witness: generators of disjoint cycles must not run together,
    # as dfz1's G3 = <(3,4), (1,2)> would read as one double transposition
    code, doc, _ = run_json(["scan", "S4", "--ineqs", "dfz"], capsys)
    assert code == 1
    code, out, _ = run(["scan", "S4", "--ineqs", "dfz"], capsys)
    assert code == 1
    texts = [line.strip("| ").split(" | ")[3] for line in out.splitlines()
             if line.startswith("| dfz")]
    witnesses = doc["results"]["witnesses"]
    assert len(texts) == len(witnesses) == 4
    g = s4()
    for text, w in zip(texts, witnesses):
        assert [str(s.mask) for s in cli.parse_subgroup_text(g, text)] == w["masks"], text


# a --cache-dir below a regular file, or that is one, cannot be made
@pytest.mark.parametrize("argv, below", [(["scan", "S3"], "sub"), (["groups", "show", "S4"], "")],
                         ids=["scan", "groups-show"])
def test_bad_cache_dir_is_usage_error(capsys, tmp_path, argv, below):
    f = tmp_path / "F"
    f.write_text("")
    code, out, err = run(argv + ["--cache-dir", str(f / below)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gil: error: ")
    assert "Traceback" not in err and "Errno" in err


# every scan, in `scan` and in `survey`, runs _scan_task (inline at
# --jobs 1); at the default --ineqs dfz order_class skips both order-6
# groups, so the survey selects every inequality to reach a scan
@pytest.mark.parametrize("argv", [["scan", "S4"], ["survey", "6", "--ineqs", "all"]],
                         ids=["scan", "survey"])
def test_internal_error_exit_code(capsys, tmp_path, monkeypatch, argv):
    from groupineq import search_engine

    def inconsistent(*args, **kwargs):
        raise AssertionError("deliberately inconsistent")

    monkeypatch.setattr(search_engine, "_scan_task", inconsistent)
    code, out, err = run(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    assert err == "gil: internal error: deliberately inconsistent\n"


# ---------------------------------------------------------------------------
# argument grammar fuzz

def _fuzz_argv(rng, small):
    # one command line from a subcommand's grammar; each value is a valid
    # one most of the time, else a near miss or an integer at or past its
    # limit. Scans and surveys name only groups of order <= 12, so every
    # case is cheap
    huge = "1" + "0" * 24

    def pick(valid, invalid):
        return rng.choice(valid if rng.random() < 0.7 else invalid)

    def num():
        return pick(["1", "2", "3", "12", "1000"],
                    ["-1", "0", "1001", huge, "9" * 5000, "1.5", "x", ""])

    def some(valid, invalid):
        words = [pick(valid, invalid) for _ in range(rng.randint(0, 3))]
        return rng.choice([",", ", ", " ,"]).join(words)

    def group():
        return pick(small, ["", "S9", "C0", "c4", " D8", "A4xA4", "s4-dfz1"])

    def ineq_ids():
        return some(["all", "dfz", "ingleton", "dfz1", "dfz3", "dfz10"],
                    ["dfz11", "Ingleton", "", " "])

    def orders():
        lo, hi = pick([("1", "12"), ("2", "8"), ("7", ""), ("12", "12"), ("9", "10")],
                      [("0", "4"), ("12", "1"), ("121", "1000"), (huge, huge),
                       ("9" * 5000, ""), ("1", "-3"), ("", "")])
        return pick([f"{lo}..{hi}" if hi else lo], [f"{lo}...{hi}", f"-{lo}", ".."])

    def cycles():
        text = rng.choice(["(1 2)", "G1=(1 2 3); G2=(1 2)", "(1,2),(3 4)", "()"])
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(["(1 1)", "(0 2)", "(1 99)", f"(1 {huge})",
                                          "(", "x", ",", ";", "G9=", " "]) + text[i:]
        return text

    def ineq_text():
        text = rng.choice(["I(X1;X2) <= I(X1;X2|X3) + I(X3;X4)", "H(X1|X2) >= 0",
                           "2 I(X1;X2,X3) - H(X5)", "0 >= 0"])
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(["H(", "I(", "X0", "X9", "X", ";", "|", ")",
                                          " + ", " >= ", "0", "2 ", huge + " ",
                                          "9" * 5000]) + text[i:]
        return text

    command = rng.choice(["check", "scan", "survey", "parse", "groups"])
    if command == "check":
        if rng.random() < 0.5:
            argv = ["check", "--tuple", pick(["s4-dfz1", "s4-dfz3", "d20-example"],
                                             ["s4-dfz2", ""])]
        else:
            argv = ["check", group(), "--subgroups", cycles()]
    elif command == "scan":
        argv = ["scan", group()]
    elif command == "survey":
        argv = ["survey", orders()]
    elif command == "parse":
        argv = ["parse", ineq_text()]
    else:
        argv = ["groups"] + pick([["list"], ["show", group()]], [["bogus"], ["show"]])
    prune = lambda: some(list(search_engine.PRUNE_RULES) + ["all", "none"], ["", "bogus"])
    options = {"check": [("--ineqs", ineq_ids)],
               "scan": [("--ineqs", ineq_ids), ("--prune", prune), ("--jobs", num),
                        ("--limit", num)],
               "survey": [("--ineqs", ineq_ids), ("--prune", prune),
                          ("--jobs", num)]}.get(command, [])
    for flag, value in options:
        if rng.random() < 0.4:
            argv += [flag, value()]
    if rng.random() < 0.3:
        argv += ["--format", pick(["md", "json"], ["xml"])]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "--jobs", "-h"]))
    return argv


def test_argument_grammar_fuzz(capsys, cache_dir, monkeypatch):
    # every command line ends in exit 0, 1 or 2, and a usage error is one
    # "gil: error:" line (after argparse's usage, for a bad command line),
    # never a traceback. Runs in process, and no scan may start a pool
    def no_pool(workers):
        pytest.fail("a fuzz case started a pool")

    monkeypatch.setattr(search_engine, "_fork_pool", no_pool)
    cat = load_catalog()
    small = [n for o, names in sorted(cat.by_order.items()) if o <= 12 for n in names]
    rng = random.Random(19)
    codes = Counter()
    for _ in range(200):
        argv = _fuzz_argv(rng, small)
        try:
            code = cli.main(argv)
        except SystemExit as e:   # argparse: a bad command line, or -h
            code = e.code
        err = capsys.readouterr().err
        codes[code] += 1
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 2:
            lines = err.splitlines()
            assert [l for l in lines if l.startswith("gil: error: ")] == lines[-1:], argv
            assert len(lines) == 1 or lines[0].startswith("usage: gil"), argv
    assert all(codes[c] for c in (0, 1, 2)), codes
