"""One benchmark command, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --jobs N --cache-dir DIR
        [--catalog FILE] [--prefill] [--trace] [--setup-only]
        --spawned-at MONOTONIC

Set-up is what `gil` does before its first call: import groupineq and
load_catalog; on a prefill workload also fill the lattice cache. The timed
part then makes the same public calls as the matching `gil` subcommand,
load_catalog -> CatalogIndex.realize -> LatticeCache.get -> scan_group /
survey -> witness_dict / Report.render, and ends with the rendered JSON
report. The cache directory is always the one given, never GIL_CACHE_DIR
or ~/.cache/gil. Prints one JSON object with timings, counts and digests
of the outputs; run.py checks them.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--prefill", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    return p.parse_args(argv)


def run_scan(gi, cat, cache, wl, jobs):
    """`gil scan GROUP --ineqs IDS --format json`, as cli.cmd_scan does it."""
    cli = gi.cli
    g = cat.realize(wl["group"])
    cfg = gi.SearchConfig.make(ineqs=wl["ineqs"], prune="all", jobs=jobs)
    t0 = time.perf_counter()
    lattice = cache.get(g)
    t1 = time.perf_counter()
    witnesses, prep = gi.scan_group(g, cfg, lattice)
    t2 = time.perf_counter()
    results = {
        "group": g.name,
        "order": g.order,
        "subgroup_count": len(lattice),
        "witnesses": [cli.witness_dict(w) for w in witnesses],
        "prune_report": cli.prune_report_dict(prep),
    }
    config = {"group": g.name, "ineqs": list(cfg.inequality_ids),
              "prune": sorted(cfg.prune_flags), "jobs": cfg.worker_count,
              "limit": None}
    text = cli.Report("scan", config, results,
                      {"lattice": t1 - t0, "scan": t2 - t1,
                       "total": t2 - t0}).render("json")
    return text, {"witnesses": witnesses, "reports": [prep],
                  "subgroups": {g.name: len(lattice)}, "errors": 0,
                  "entries": 1}


def run_survey(gi, cat, cache, wl, jobs):
    """`gil survey LO..HI --ineqs IDS --format json`, as cli.cmd_survey does."""
    cli = gi.cli
    lo, hi = wl["orders"]
    cfg = gi.SearchConfig.make(ineqs=wl["ineqs"], prune="all", jobs=jobs)
    t0 = time.perf_counter()
    entries = gi.survey(cat, range(lo, hi + 1), cfg,
                        lattice_for=lambda g: cache.get(g))
    t1 = time.perf_counter()
    rows = []
    total_witnesses = 0
    for e in entries.values():
        total_witnesses += e.witness_count
        rows.append({
            "group": e.group_name,
            "order": e.order,
            "witnesses": e.witness_count,
            "violated": list(e.violated_ids),
            "prune_report": cli.prune_report_dict(e.report) if e.report else None,
            "error": e.error,
        })
    results = {"orders": f"{lo}..{hi}", "entries": rows,
               "total_witnesses": total_witnesses}
    config = {"orders": f"{lo}..{hi}", "ineqs": list(cfg.inequality_ids),
              "prune": sorted(cfg.prune_flags), "jobs": cfg.worker_count}
    text = cli.Report("survey", config, results,
                      {"total": t1 - t0}).render("json")
    reports = [e.report for e in entries.values() if e.report is not None]
    # A lattice of m subgroups gives m**5 five-variable tuples.
    subgroups = {e.group_name: round(e.report.tuples_total ** 0.2)
                 for e in entries.values() if e.report is not None}
    return text, {"witnesses": [], "reports": reports, "subgroups": subgroups,
                  "errors": sum(e.error is not None for e in entries.values()),
                  "entries": len(entries)}


def summarize(gi, cat, wl, text, out):
    """Counts and digests run.py checks; computed after the timed part."""
    reports = out["reports"]
    counts = {
        "tuples_total": sum(r.tuples_total for r in reports),
        "tuples_evaluated": sum(r.tuples_evaluated for r in reports),
        "violations": sum(r.violations_found for r in reports),
        "equalities": sum(r.equality_cases for r in reports),
    }
    for rule in gi.search_engine.PRUNE_RULES:
        counts["pruned." + rule] = sum(r.tuples_pruned_by_rule.get(rule, 0)
                                       for r in reports)
    witnesses = out["witnesses"]
    reverified = 0
    if witnesses:
        g = cat.realize(wl["group"])
        for w in witnesses:
            subs = [g.subgroup(m) for m in w.masks]
            v = gi.evaluate(gi.builtin(w.inequality_id),
                            gi.entropy_vector(g, subs))
            if (v.is_violation and v.lhs_product == w.lhs_product
                    and v.rhs_product == w.rhs_product):
                reverified += 1
    report = json.loads(text)["results"]
    return {
        "counts": counts,
        "scan_s": sum(r.wall_time for r in reports),
        "subgroups": out["subgroups"],
        "entries": out["entries"],
        "errors": out["errors"],
        "witness_count": (len(report["witnesses"]) if "witnesses" in report
                          else report["total_witnesses"]),
        "witness_ids": [w.inequality_id for w in witnesses],
        "witness_digest": hashlib.sha256(
            gi.cli.witnesses_json(witnesses).encode()).hexdigest(),
        "reverified": reverified,
    }


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    import groupineq as gi
    import groupineq.cli  # noqa: F401 - binds gi.cli
    import numpy

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install(gi)
        tracer.on = True
    cat = gi.load_catalog(args.catalog)
    cache = gi.cli.LatticeCache(Path(args.cache_dir))
    if args.prefill:
        # A Group of its own, so the timed command finds no warm
        # in-process state, only the cache file.
        g = gi.realize(cat.get(wl["group"]))
        gi.cli.LatticeCache(Path(args.cache_dir)).get(g)
    setup_stats = tracer.take() if tracer else {}
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at,
              "numpy": numpy.__version__,
              "setup_trace": setup_stats}
    if not args.setup_only:
        command = run_scan if wl["kind"] == "scan" else run_survey
        t0 = time.perf_counter()
        text, out = command(gi, cat, cache, wl, args.jobs)
        result["wall_s"] = time.perf_counter() - t0
        if tracer:
            tracer.on = False
            result["trace"] = tracer.take()
        result.update(summarize(gi, cat, wl, text, out))
        result["cache_hits"] = cache.hits
        result["cache_misses"] = cache.misses
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest
    # reaped child, the fork pool's workers at --jobs 2.
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["rss_mb"] = kib / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
