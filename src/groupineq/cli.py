"""Command line front end.

Subcommands: `check` evaluates inequalities on one explicit subgroup tuple,
`scan` searches a single group, `survey` sweeps a catalog order range,
`parse` expands inequality text into coefficients, `groups` inspects the
catalog, and `verify-paper` reruns every headline numeric claim in one shot.

Reports print as markdown or JSON; large integers (side products, subgroup
bitmasks) are emitted as decimal strings in JSON so nothing is rounded on
the consumer side. Subgroup lattices are cached on disk per group, keyed by
a hash of the full element table; a file holds the subgroup masks and one
digest over them, the format version and that hash.

Exit codes: 0 clean, 1 violation found, 2 error (bad input, unknown name),
3 internal error (a consistency check inside groupineq failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .catalog import PAPER_TUPLE_NAMES, CatalogError, load_catalog, realize_paper_tuple
from .entropy_eval import entropy_vector, evaluate, gi
from .ineq_dsl import (ParseError, builtin, group_form, parse,
                       pretty_print, resolve_ids, symmetry_group)
from .perm_core import (Group, Subgroup, SubgroupLattice, all_subgroups, closure,
                        parse_generators)
from .search_engine import (PruneReport, SearchConfig, Witness,
                            check_simultaneous, scan_group, survey)

CACHE_FORMAT_VERSION = 3


class CliError(ValueError):
    """User-facing failure: bad reference, bad input text, bad flag combo."""


# ---------------------------------------------------------------------------
# Lattice cache

def group_hash(g: Group) -> str:
    """sha256 of the element table; any change to the group changes this."""
    h = hashlib.sha256()
    h.update(f"{g.degree}:{g.order}:".encode())
    for p in g.elements:
        h.update(bytes(p.images))
    return h.hexdigest()


def _digest(key: str, masks: object) -> str:
    """sha256 of the format version, the group hash `key` and the mask
    strings."""
    text = json.dumps([CACHE_FORMAT_VERSION, key, masks])
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class LatticeCache:
    """One JSON file per group under `directory`, named by group hash.

    A file holds two keys: `subgroup_masks`, the masks as decimal strings
    (they exceed 64 bits as soon as the group order does), and `digest`,
    the sha256 of the format version, the group hash and those strings. A
    hit requires the digest to match and the masks to make a
    `SubgroupLattice`; anything else is treated as a miss and rebuilt. A
    hit builds no table: the meet and conjugation tables are built by
    whatever reads them, as for a fresh lattice. A `SubgroupLattice`
    refuses a group above the lattice cap, so a hit never bypasses it.
    """

    directory: Path
    hits: int = 0
    misses: int = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, g: Group, key: str) -> Optional[SubgroupLattice]:
        """The cached lattice of g, whose group hash is `key`, or None."""
        try:
            data = json.loads(self._path(key).read_text())
            masks = data["subgroup_masks"]
            if data["digest"] != _digest(key, masks):
                return None
            return SubgroupLattice(g, tuple(g.subgroup(int(m)) for m in masks))
        except (OSError, KeyError, TypeError, ValueError):
            return None

    def store(self, key: str, lattice: SubgroupLattice) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        masks = [str(s.mask) for s in lattice.subgroups]
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"subgroup_masks": masks, "digest": _digest(key, masks)}))
        tmp.replace(path)

    def get(self, g: Group) -> SubgroupLattice:
        # the group hash names the file and enters its digest; one per call
        key = group_hash(g)
        cached = self.load(g, key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        lattice = all_subgroups(g)
        self.store(key, lattice)
        return lattice


def resolve_cache_dir(flag_value: Optional[str]) -> Path:
    """--cache-dir beats GIL_CACHE_DIR beats ~/.cache/gil."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get("GIL_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gil"


# ---------------------------------------------------------------------------
# Subgroup tuple syntax

_LABEL_RE = re.compile(r"^\s*[Gg]([0-9]+)\s*=\s*")


def parse_subgroup_text(g: Group, text: str) -> List[Subgroup]:
    """Parse "G1=(3 4)(2 4 3); G2=(1 3)(1 3 2); ..." into subgroups of g.

    Labels are optional but must be in position order when present. Each
    position is the closure of its generators (perm_core.parse_generators)
    inside g.
    """
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise CliError("no subgroups given")
    subs: List[Subgroup] = []
    for position, chunk in enumerate(chunks, start=1):
        m = _LABEL_RE.match(chunk)
        body = (chunk[m.end():] if m else chunk).strip()
        if m and int(m.group(1)) != position:
            raise CliError(
                f"subgroup label G{m.group(1)} appears at position {position}; "
                f"labels must be in order")
        try:
            indices = [g.element_index(p) for p in parse_generators(body, g.degree)]
        except ValueError as e:
            raise CliError(f"subgroup G{position}: {e}") from None
        subs.append(closure(g, indices))
    return subs


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Report:
    """What every subcommand returns: echo, config, payload, timings."""

    command: str
    config: Dict[str, object]
    results: object
    timings: Dict[str, float] = field(default_factory=dict)
    version: str = __version__

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "results": self.results,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# gil {self.command}", ""]
        lines.extend(_MD[self.command](self.results, self.timings))
        if self.timings:
            parts = ", ".join(f"{k} {v:.2f}s" for k, v in self.timings.items())
            lines += ["", f"_timings: {parts}_"]
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_markdown()


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def _subset_names(subset_orders: Dict) -> Dict[str, int]:
    """The same orders keyed "12"-style, in `entropy_vector`'s order."""
    return {"".join(str(i) for i in sorted(a)): o for a, o in subset_orders.items()}


def witness_dict(w: Witness) -> Dict[str, object]:
    ev = w.subset_orders
    return {
        "group": w.group_name,
        "inequality": w.inequality_id,
        "subgroups": [list(gens) for gens in w.subgroup_generators],
        "subgroup_orders": [ev.order([i]) for i in range(1, ev.n + 1)],
        "lhs_product": str(w.lhs_product),
        "rhs_product": str(w.rhs_product),
        "subset_orders": _subset_names(ev.subset_orders),
        "masks": [str(m) for m in w.masks],
    }


def witnesses_json(witnesses: Sequence[Witness]) -> str:
    """Canonical serialization used for cross-run output comparison."""
    return json.dumps([witness_dict(w) for w in witnesses], indent=2) + "\n"


def prune_report_dict(rep: PruneReport) -> Dict[str, object]:
    return {
        "tuples_total": rep.tuples_total,
        "tuples_pruned_by_rule": dict(rep.tuples_pruned_by_rule),
        "tuples_evaluated": rep.tuples_evaluated,
        "violations_found": rep.violations_found,
        "equality_cases": rep.equality_cases,
        "wall_time": round(rep.wall_time, 6),
    }


def _md_check(res: Dict, timings: Dict[str, float]) -> List[str]:
    lines = [f"group {res['group']} of order {res['order']}", ""]
    rows = [(f"G{i + 1}", s["order"], ", ".join(s["generators"]))
            for i, s in enumerate(res["subgroups"])]
    lines += _md_table(("position", "order", "generators"), rows)
    lines += [""]
    rows = [(v["inequality"], "violated" if v["violated"] else "holds",
             v["lhs_product"], v["rhs_product"], v["ratio"])
            for v in res["verdicts"]]
    lines += _md_table(("inequality", "verdict", "lhs", "rhs", "lhs/rhs"), rows)
    lines += ["", "subset orders:", ""]
    lines += _md_table(("subset", "order"),
                       [(k, v) for k, v in res["subset_orders"].items()])
    return lines


def _md_scan(res: Dict, timings: Dict[str, float]) -> List[str]:
    rep = res["prune_report"]
    lines = [f"group {res['group']} of order {res['order']}: "
             f"{rep['violations_found']} violation(s) over "
             f"{rep['tuples_total']} tuples "
             f"({rep['tuples_evaluated']} evaluated)", ""]
    pruned = rep["tuples_pruned_by_rule"]
    lines += _md_table(("prune rule", "tuples"),
                       [(k, pruned[k]) for k in sorted(pruned)])
    if res["witnesses"]:
        lines += [""]
        rows = []
        for w in res["witnesses"]:
            gens = "; ".join(f"G{i + 1}=" + ", ".join(g)
                             for i, g in enumerate(w["subgroups"]))
            rows.append((w["inequality"], w["lhs_product"], w["rhs_product"], gens))
        lines += _md_table(("inequality", "lhs", "rhs", "subgroups"), rows)
    return lines


def _md_survey(res: Dict, timings: Dict[str, float]) -> List[str]:
    lines = [f"orders {res['orders']}: {res['total_witnesses']} witness(es) "
             f"across {len(res['entries'])} group(s)", ""]
    rows = []
    for e in res["entries"]:
        status = e["error"] if e["error"] else ", ".join(e["violated"]) or "-"
        rows.append((e["group"], e["order"], e["witnesses"], status))
    lines += _md_table(("group", "order", "witnesses", "violated / error"), rows)
    return lines


def _md_parse(res: Dict, timings: Dict[str, float]) -> List[str]:
    lines = [f"input: {res['text']}",
             f"canonical: {res['canonical']}",
             f"variables: {res['n_vars']}, symmetry order: {res['symmetry_order']}",
             "", "coefficients:", ""]
    lines += _md_table(("subset", "coefficient"),
                       [(c["subset"], c["coefficient"])
                        for c in res["coefficients"]])
    lines += ["", f"group form: {res['group_form']}"]
    return lines


def _md_groups(res: Dict, timings: Dict[str, float]) -> List[str]:
    if "entries" in res:
        rows = [(e["name"], e["order"], e["degree"],
                 "yes" if e["abelian"] else "no", ", ".join(e["tags"]))
                for e in res["entries"]]
        return _md_table(("name", "order", "degree", "abelian", "tags"), rows)
    lines = [f"{res['name']}: order {res['order']}, degree {res['degree']}",
             f"generators: {', '.join(res['generators']) or '(trivial)'}",
             f"tags: {', '.join(res['tags']) or '-'}"]
    if "subgroups" in res:
        lines += [f"subgroups: {res['subgroups']} in {res['conjugacy_classes']} "
                  f"conjugacy classes, {res['normal_subgroups']} normal"]
    return lines


def _md_verify(res: Dict, timings: Dict[str, float]) -> List[str]:
    lines = []
    for c in res["claims"]:
        mark = "PASS" if c["ok"] else "FAIL"
        lines.append(f"{mark}  {c['claim']:<28} {timings[c['claim']]:.2f}s  {c['detail']}")
    lines += ["", f"{res['passed']}/{res['total']} claims passed"]
    return lines


# markdown renderer of each command's results
_MD = {"check": _md_check, "scan": _md_scan, "survey": _md_survey, "parse": _md_parse,
       "groups": _md_groups, "verify-paper": _md_verify}


# ---------------------------------------------------------------------------
# Subcommands

def cmd_check(args) -> Tuple[Report, int]:
    cat = load_catalog()
    t0 = time.perf_counter()
    if args.tuple:
        if args.subgroups:
            raise CliError("--tuple and --subgroups are mutually exclusive")
        g, subs = realize_paper_tuple(args.tuple)
        if args.group and cat.canonical_name(args.group) != cat.canonical_name(g.name):
            raise CliError(
                f"named tuple {args.tuple!r} lives in {g.name}, not {args.group!r}")
    else:
        if not args.group:
            raise CliError("a group name is required unless --tuple is used")
        if not args.subgroups:
            raise CliError("either --subgroups or --tuple is required")
        g = cat.realize(args.group)
        subs = parse_subgroup_text(g, args.subgroups)

    ids = resolve_ids(args.ineqs)
    specs = [builtin(i) for i in ids]
    too_big = [s.id for s in specs if s.n_vars > len(subs)]
    if too_big:
        raise CliError(
            f"{', '.join(too_big)} need(s) {max(s.n_vars for s in specs)} "
            f"subgroups, only {len(subs)} given")

    ev = entropy_vector(g, subs)
    verdicts = []
    any_violation = False
    for spec in specs:
        v = evaluate(spec, ev)
        any_violation |= v.is_violation
        verdicts.append({
            "inequality": spec.id,
            "holds": v.holds,
            "violated": v.is_violation,
            "lhs_product": str(v.lhs_product),
            "rhs_product": str(v.rhs_product),
            "ratio": f"{v.ratio_num}/{v.ratio_den}" if v.ratio_den != 1
                     else str(v.ratio_num),
            "group_form": group_form(spec),
        })
    results = {
        "group": g.name,
        "order": g.order,
        "subgroups": [{"position": i + 1,
                       "generators": list(s.generator_strings()),
                       "order": s.order} for i, s in enumerate(subs)],
        "verdicts": verdicts,
        "subset_orders": _subset_names(ev.subset_orders),
    }
    config = {"group": g.name, "ineqs": list(ids),
              "tuple": args.tuple, "subgroups": args.subgroups}
    rep = Report("check", config, results,
                 {"total": time.perf_counter() - t0})
    return rep, (1 if any_violation else 0)


def cmd_scan(args) -> Tuple[Report, int]:
    cat = load_catalog()
    cache = LatticeCache(resolve_cache_dir(args.cache_dir))
    g = cat.realize(args.group)
    cfg = SearchConfig.make(ineqs=args.ineqs, prune=args.prune,
                            jobs=args.jobs, emit_limit=args.limit)
    t0 = time.perf_counter()
    lattice = cache.get(g)
    t1 = time.perf_counter()
    witnesses, prep = scan_group(g, cfg, lattice)
    t2 = time.perf_counter()
    results = {
        "group": g.name,
        "order": g.order,
        "subgroup_count": len(lattice),
        "witnesses": [witness_dict(w) for w in witnesses],
        "prune_report": prune_report_dict(prep),
    }
    config = {"group": g.name, "ineqs": list(cfg.inequality_ids),
              "prune": sorted(cfg.prune_flags), "jobs": cfg.worker_count,
              "limit": args.limit}
    rep = Report("scan", config, results,
                 {"lattice": t1 - t0, "scan": t2 - t1, "total": t2 - t0})
    return rep, (1 if prep.violations_found else 0)


_RANGE_RE = re.compile(r"^([0-9]+)(?:\.\.([0-9]+))?$")


def parse_order_range(text: str) -> Tuple[int, int]:
    m = _RANGE_RE.match(text.strip())
    if not m:
        raise CliError(f"bad order range {text!r}; use N or LO..HI")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 1 or hi < lo:
        raise CliError(f"bad order range {text!r}")
    return lo, hi


def cmd_survey(args) -> Tuple[Report, int]:
    cat = load_catalog()
    cache = LatticeCache(resolve_cache_dir(args.cache_dir))
    lo, hi = parse_order_range(args.orders)
    orders = [o for o in cat.by_order if lo <= o <= hi]
    if not orders:
        raise CliError(f"no catalog group has an order in {lo}..{hi}")
    cfg = SearchConfig.make(ineqs=args.ineqs, prune=args.prune, jobs=args.jobs)
    t0 = time.perf_counter()
    entries = survey(cat, orders, cfg, lattice_for=cache.get)
    t1 = time.perf_counter()
    rows = []
    total_witnesses = 0
    any_error = False
    for e in entries.values():
        total_witnesses += e.witness_count
        any_error |= e.error is not None
        rows.append({
            "group": e.group_name,
            "order": e.order,
            "witnesses": e.witness_count,
            "violated": list(e.violated_ids),
            "prune_report": prune_report_dict(e.report) if e.report else None,
            "error": e.error,
        })
    results = {"orders": f"{lo}..{hi}", "entries": rows,
               "total_witnesses": total_witnesses}
    config = {"orders": f"{lo}..{hi}", "ineqs": list(cfg.inequality_ids),
              "prune": sorted(cfg.prune_flags), "jobs": cfg.worker_count}
    rep = Report("survey", config, results, {"total": t1 - t0})
    code = 2 if any_error else (1 if total_witnesses else 0)
    return rep, code


def cmd_parse(args) -> Tuple[Report, int]:
    t0 = time.perf_counter()
    spec = parse(args.text)
    coeffs = [{"subset": "".join(str(i) for i in sorted(a)), "coefficient": spec.coeffs[a]}
              for a in spec.subsets()]
    results = {
        "text": args.text,
        "canonical": pretty_print(spec),
        "n_vars": spec.n_vars,
        "coefficients": coeffs,
        "group_form": group_form(spec),
        "symmetry_order": len(symmetry_group(spec)),
    }
    rep = Report("parse", {"text": args.text}, results,
                 {"total": time.perf_counter() - t0})
    return rep, 0


def cmd_groups(args) -> Tuple[Report, int]:
    cat = load_catalog()
    t0 = time.perf_counter()
    if args.action == "list":
        entries = []
        for name in cat.names():
            gdef = cat.get(name)
            entries.append({
                "name": gdef.name,
                "order": gdef.expected_order,
                "degree": gdef.degree,
                "abelian": gdef.has_tag("abelian"),
                "tags": list(gdef.tags),
            })
        results = {"entries": entries, "count": len(entries)}
        config = {"action": "list"}
    else:
        if not args.name:
            raise CliError("groups show needs a group name")
        gdef = cat.get(args.name)
        g = cat.realize(args.name)
        results = {
            "name": gdef.name,
            "order": g.order,
            "degree": g.degree,
            "generators": list(gdef.generators),
            "tags": list(gdef.tags),
        }
        lattice = LatticeCache(resolve_cache_dir(args.cache_dir)).get(g)
        results["subgroups"] = len(lattice)
        results["conjugacy_classes"] = len(lattice.conjugacy_classes)
        results["normal_subgroups"] = sum(lattice.normal_flags)
        config = {"action": "show", "name": gdef.name}
    rep = Report("groups", config, results,
                 {"total": time.perf_counter() - t0})
    return rep, 0


# ---------------------------------------------------------------------------
# verify-paper

def _claim_catalog_counts() -> str:
    cat = load_catalog()
    want = {8: 5, 12: 5, 16: 14, 18: 5, 20: 5, 24: 15}
    got = {n: len(cat.by_order.get(n, ())) for n in want}
    if got != want:
        raise AssertionError(f"class counts {got} != expected {want}")
    return " ".join(f"{n}:{c}" for n, c in sorted(got.items()))


def _claim_side_products(tuple_name: str, ineq: str, lhs: int, rhs: int) -> str:
    g, subs = realize_paper_tuple(tuple_name)
    v = evaluate(builtin(ineq), entropy_vector(g, subs))
    if not (v.lhs_product == lhs and v.rhs_product == rhs and v.is_violation):
        raise AssertionError(
            f"expected {lhs} > {rhs}, got {v.lhs_product} vs {v.rhs_product}")
    return f"side products {lhs} > {rhs}"


def _claim_d20_gi() -> str:
    g, subs = realize_paper_tuple("d20-example")
    g1, g2, g5 = subs
    r12 = gi(g, g1, g2)
    r15 = gi(g, g1, g5)
    if (r12.numerator, r12.denominator) != (5, 1) or \
            (r15.numerator, r15.denominator) != (5, 2):
        raise AssertionError(f"expected 5 and 5/2, got {r12} and {r15}")
    return "gi(G1,G2) = 5, gi(G1,G5) = 5/2"


def _group_lattice(cache: LatticeCache, name: str) -> Tuple[Group, SubgroupLattice]:
    g = load_catalog().realize(name)
    return g, cache.get(g)


def _claim_no_simultaneous(cache: LatticeCache) -> str:
    g, lattice = _group_lattice(cache, "S4")
    hits = check_simultaneous(g, (builtin("dfz1"), builtin("dfz3")), lattice=lattice)
    if hits:
        raise AssertionError(f"{len(hits)} simultaneous violator(s) found")
    return "no tuple violates dfz1 and dfz3 together"


def _claim_s4_scan(jobs: int, cache: LatticeCache) -> str:
    g, lattice = _group_lattice(cache, "S4")
    cfg = SearchConfig.make(ineqs="dfz", prune="all", jobs=jobs)
    witnesses, _ = scan_group(g, cfg, lattice)
    violated = sorted({w.inequality_id for w in witnesses})
    if violated != ["dfz1", "dfz3"]:
        raise AssertionError(f"violated ids {violated}, expected dfz1+dfz3")
    return f"{len(witnesses)} witnesses, exactly dfz1 and dfz3 violated"


def _claim_a4_exhaustive(jobs: int, cache: LatticeCache) -> str:
    g, lattice = _group_lattice(cache, "A4")
    cfg = SearchConfig.make(ineqs="dfz", prune="none", jobs=jobs)
    witnesses, rep = scan_group(g, cfg, lattice)
    if witnesses or rep.tuples_evaluated != rep.tuples_total:
        raise AssertionError(
            f"{len(witnesses)} witnesses, {rep.tuples_evaluated} of "
            f"{rep.tuples_total} evaluated")
    return f"all {rep.tuples_total} tuples evaluated, zero violations"


def _claim_survey_small(jobs: int, cache: LatticeCache) -> str:
    cat = load_catalog()
    cfg = SearchConfig.make(ineqs="dfz", prune="all", jobs=jobs)
    entries = survey(cat, range(2, 24), cfg, lattice_for=cache.get)
    bad = [e for e in entries.values() if e.witness_count or e.error]
    if bad:
        raise AssertionError(
            "; ".join(f"{e.group_name}: {e.error or e.witness_count}" for e in bad))
    return f"{len(entries)} groups of order 2..23, zero witnesses"


def _claim_s5_ingleton(jobs: int, cache: LatticeCache) -> str:
    g, lattice = _group_lattice(cache, "S5")
    cfg = SearchConfig.make(ineqs="ingleton", prune="all", jobs=jobs)
    witnesses, _ = scan_group(g, cfg, lattice)
    if not witnesses:
        raise AssertionError("no witness found")
    return f"{len(witnesses)} witnesses over {len(lattice)} subgroups"


# S5's dfz witnesses: how many violate each of the ten, and the sha256 of
# their witnesses_json
S5_DFZ_COUNTS = {"dfz1": 86, "dfz3": 63, "dfz5": 22, "dfz10": 16, "dfz9": 15,
                 "dfz7": 13, "dfz2": 12, "dfz4": 12, "dfz6": 3, "dfz8": 1}
S5_DFZ_DIGEST = "78f72b4c4c19e09d4275af9ff7e01a485a85ccd68425d2a67dac3fbcc5843dda"


def _claim_s5_dfz(jobs: int, cache: LatticeCache) -> str:
    g, lattice = _group_lattice(cache, "S5")
    cfg = SearchConfig.make(ineqs="dfz", prune="all", jobs=jobs)
    witnesses, _ = scan_group(g, cfg, lattice)
    counts = Counter(w.inequality_id for w in witnesses)
    if counts != S5_DFZ_COUNTS:
        raise AssertionError(f"witnesses per inequality {dict(counts)}, "
                             f"expected {S5_DFZ_COUNTS}")
    digest = hashlib.sha256(witnesses_json(witnesses).encode()).hexdigest()
    if digest != S5_DFZ_DIGEST:
        raise AssertionError(f"witness digest {digest[:16]}... differs")
    return f"{len(witnesses)} witnesses, all ten dfz inequalities violated"


def cmd_verify_paper(args) -> Tuple[Report, int]:
    cache = LatticeCache(resolve_cache_dir(args.cache_dir))
    jobs = args.jobs
    claims = [
        ("catalog-counts", _claim_catalog_counts),
        ("s4-dfz1-violation", lambda: _claim_side_products("s4-dfz1", "dfz1", 128, 96)),
        ("s4-dfz3-violation", lambda: _claim_side_products("s4-dfz3", "dfz3", 64, 48)),
        ("d20-gi-values", _claim_d20_gi),
        ("no-simultaneous-violator", lambda: _claim_no_simultaneous(cache)),
        ("s4-scan-witnesses", lambda: _claim_s4_scan(jobs, cache)),
        ("a4-exhaustive-scan", lambda: _claim_a4_exhaustive(jobs, cache)),
        ("smallest-violator-survey", lambda: _claim_survey_small(jobs, cache)),
    ]
    if args.stretch:
        claims.append(("s5-ingleton-witness",
                       lambda: _claim_s5_ingleton(jobs, cache)))
        claims.append(("s5-dfz-witnesses", lambda: _claim_s5_dfz(jobs, cache)))
    rows, timings = [], {}
    t_all = time.perf_counter()
    for name, fn in claims:
        t0 = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as e:  # noqa: BLE001 - a claim failing is the result
            detail = f"{type(e).__name__}: {e}"
            ok = False
        rows.append({"claim": name, "ok": ok, "detail": detail})
        timings[name] = time.perf_counter() - t0
    passed = sum(1 for r in rows if r["ok"])
    results = {"claims": rows, "passed": passed, "total": len(rows)}
    config = {"stretch": bool(args.stretch), "jobs": jobs}
    timings["total"] = time.perf_counter() - t_all
    rep = Report("verify-paper", config, results, timings)
    return rep, (0 if passed == len(rows) else 1)


# ---------------------------------------------------------------------------
# Entry point

class _ArgParser(argparse.ArgumentParser):
    def error(self, message):   # one "gil: error:" line, as main prints
        self.exit(2, f"{self.format_usage()}gil: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    p = _ArgParser(
        prog="gil",
        description="entropy vectors of finite groups: exact inequality "
                    "checks, violation scans, catalog surveys")
    p.add_argument("--version", action="version", version=f"gil {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cache=True):
        sp.add_argument("--format", choices=("md", "json"), default="md",
                        help="report format (default md)")
        if cache:
            sp.add_argument("--cache-dir", default=None,
                            help="lattice cache directory (default "
                                 "$GIL_CACHE_DIR or ~/.cache/gil)")

    sp = sub.add_parser("check", help="evaluate inequalities on one subgroup tuple")
    sp.add_argument("group", nargs="?", help="catalog group name")
    sp.add_argument("--subgroups", help='tuple text, e.g. "G1=(3 4)(2 4 3); G2=..."')
    sp.add_argument("--tuple", dest="tuple", metavar="NAME",
                    help=f"named reference tuple: {', '.join(sorted(PAPER_TUPLE_NAMES))}")
    sp.add_argument("--ineqs", default="all",
                    help='comma list of inequality ids, "dfz", or "all"')
    common(sp, cache=False)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("scan", help="search one group for violating tuples")
    sp.add_argument("group", help="catalog group name")
    sp.add_argument("--ineqs", default="dfz")
    sp.add_argument("--prune", default="all",
                    help='comma list of prune rules, "all", or "none"')
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None,
                    help="emit at most this many witnesses")
    common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("survey", help="scan every catalog group in an order range")
    sp.add_argument("orders", help="order range, e.g. 2..23")
    sp.add_argument("--ineqs", default="dfz")
    sp.add_argument("--prune", default="all")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_survey)

    sp = sub.add_parser("parse", help="expand inequality text into coefficients")
    sp.add_argument("text")
    common(sp, cache=False)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("groups", help="inspect the group catalog")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?", help="group name (for show)")
    common(sp)
    sp.set_defaults(func=cmd_groups)

    sp = sub.add_parser("verify-paper",
                        help="rerun every headline numeric claim")
    sp.add_argument("--stretch", action="store_true",
                    help="include the S5 Ingleton and dfz searches")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_verify_paper)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (CliError, ParseError, CatalogError, ValueError, KeyError) as e:
        msg = e.args[0] if e.args else str(e)
        print(f"gil: error: {msg}", file=sys.stderr)
        return 2
    except OSError as e:  # e.g. a --cache-dir that is not a directory
        print(f"gil: error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"gil: internal error: {str(e) or 'assertion failed'}", file=sys.stderr)
        return 3
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
