"""groupineq benchmark: S4 scan, S5 Ingleton lattice, small-order survey.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory, and the
program runs from its `src/` (pure Python, nothing to build). A run repeats
its workload until S seconds have passed (at least once). One repetition
is a closed loop of fresh worker processes (worker.py), one at a time:

  P1  the command at --jobs 1: set-up, then the timed command
  P2  the same command at --jobs 2, in a new process, on the lattice cache
      P1 left behind
  P3  (--trace 1 only) P1 again with spans around the public calls

Every command's output is checked exactly (see expected.json). The last
line of stdout is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The lines before it give every metric measured, by name and unit, and the
machine record. Exits 1 when a check fails and 2 when the checkout holds
no program. Scratch files go under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from spans import MODULES as LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
EXPECTED = json.loads((HERE / "expected.json").read_text())
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

SAMPLES = 4  # least set-up and --jobs 2 samples per run
RUN_BUDGET_S = 150  # no repetition starts that could end past this
PROCESS_TIMEOUT_S = 160



# ---------------------------------------------------------------------------
# Processes

def child_env():
    env = dict(os.environ)
    env.pop("GIL_CACHE_DIR", None)
    # Bytecode is cached under .bench_build, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, timeout=PROCESS_TIMEOUT_S):
    """Run argv in its own session; kill the whole session on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout}s"
    try:
        # Reap anything the process left in its session.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out, err


class Runner:
    """Starts worker processes and counts what was attempted and failed."""

    def __init__(self, workload, catalog, tmp):
        self.workload = workload
        self.catalog = catalog
        self.tmp = tmp
        self.attempted = 0
        self.failed = set()  # labels of the processes that failed

    def fail(self, label, what):
        self.failed.add(label)
        print(f"check failed: {label}: {what}", file=sys.stderr)

    def fresh_dir(self):
        return tempfile.mkdtemp(dir=self.tmp, prefix="cache-")

    def worker(self, label, jobs, cache_dir, prefill=False, trace=False,
               setup_only=False):
        """Start one worker; its JSON result, or None if it failed."""
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--jobs", str(jobs),
                "--cache-dir", cache_dir]
        if self.catalog:
            argv += ["--catalog", self.catalog]
        argv += [f for f, on in (("--prefill", prefill), ("--trace", trace),
                                 ("--setup-only", setup_only)) if on]
        self.attempted += 1
        code, out, err = spawn(argv + ["--spawned-at", repr(time.monotonic())])
        try:
            if code == 0:
                return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            pass
        self.fail(label, f"exited {code}: {err.strip()[-2000:]}")
        return None


# ---------------------------------------------------------------------------
# Inputs

def relabeled_catalog(seed, path):
    """The shipped catalog with each group's points relabeled at random.

    Each group becomes a conjugate permutation group, isomorphic to the
    original. S4 and S5 act on all their points, so their element sets,
    and every output about them, stay the same.
    """
    rng = random.Random(seed)
    records = json.loads((SRC / "groupineq" / "data" / "catalog.json").read_text())
    for rec in records:
        images = list(range(1, rec["degree"] + 1))
        rng.shuffle(images)
        rec["generators"] = [
            re.sub(r"\d+", lambda m: str(images[int(m.group()) - 1]), gen)
            for gen in rec["generators"]]
    Path(path).write_text(json.dumps(records, indent=1))
    return str(path)


# ---------------------------------------------------------------------------
# Machine record

_BURN = """
import sys, time
print("ready", flush=True)
sys.stdin.read(1)
t0 = time.perf_counter()
x = 0
for i in range(2_000_000):
    x += i * i
print(time.perf_counter() - t0)
"""


def parallel_ceiling(rounds=3):
    """Speed-up of two concurrent pure-CPU processes over one (medians)."""
    def burn(n):
        procs = [subprocess.Popen([sys.executable, "-c", _BURN], text=True,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                 for _ in range(n)]
        for p in procs:  # all started: release them together
            p.stdout.readline()
        for p in procs:
            p.stdin.write("g")
            p.stdin.flush()
        return max(float(p.communicate()[0]) for p in procs)
    single, double = [], []
    for _ in range(rounds):
        single.append(burn(1))
        double.append(burn(2))
    return 2 * median(single) / median(double)


def machine_record(numpy_version, ceiling):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy_version,
            "parallel_ceiling": round(ceiling, 3)}


# ---------------------------------------------------------------------------
# Checks

def check_command(run, r, label, warm, seed, reference):
    """Exact output checks on one command; reference is P1's result."""
    if r is None:
        return
    wl = WORKLOADS[run.workload]
    want = EXPECTED[run.workload]
    # One LatticeCache.get per group: all hits on a warm cache, else misses.
    lattices = want["entries"]
    got = (r["cache_misses"], r["cache_hits"])
    if got != ((0, lattices) if warm else (lattices, 0)):
        run.fail(label, f"cache misses, hits {got}, cache warm: {warm}")
    for key in ("entries", "errors", "witness_count", "subgroups"):
        if r[key] != want[key]:
            run.fail(label, f"{key} {r[key]} != {want[key]}")
    if r["reverified"] != len(r["witness_ids"]):
        run.fail(label, f"{r['reverified']} of {len(r['witness_ids'])} "
                        f"witnesses re-verified as violated")
    # S4 and S5 are unchanged by relabeling, so their outputs are checked
    # exactly at every seed; the survey's counts only at seed 0.
    if wl["kind"] == "scan" or seed == 0:
        for key in ("counts", "witness_ids", "witness_digest"):
            if r[key] != want[key]:
                run.fail(label, f"{key} {r[key]} != {want[key]}")
    if reference is not None:
        for key in ("counts", "witness_digest"):
            if r[key] != reference[key]:
                run.fail(label, f"{key} differs from the --jobs 1 command")
    if warm and "perm_core.all_subgroups" in r.get("trace", {}):
        run.fail(label, "a lattice was built on a warm cache")


def check_against_cli(run, r):
    """The harness's witness list equals real `gil scan ... --format json`."""
    wl = WORKLOADS[run.workload]
    label = "gil scan"
    run.attempted += 1
    code, out, err = spawn([sys.executable, "-m", "groupineq.cli", "scan",
                            wl["group"], "--ineqs", wl["ineqs"], "--format",
                            "json", "--cache-dir", run.fresh_dir()])
    if code not in (0, 1):
        run.fail(label, f"exited {code}: {err.strip()[-2000:]}")
        return
    witnesses = json.loads(out)["results"]["witnesses"]
    digest = hashlib.sha256(
        (json.dumps(witnesses, indent=2) + "\n").encode()).hexdigest()
    if digest != r["witness_digest"]:
        run.fail(label, "witness JSON differs from the harness's")


# ---------------------------------------------------------------------------
# Metrics

def span(stats, name, field):
    """calls (0), total seconds (1) or self seconds (2) of a span name."""
    return stats.get(name, [0, 0.0, 0.0])[field]


def layer_metrics(r, p1_wall):
    t = r["trace"]
    counts = r["counts"]
    scan_self = span(t, "search_engine.scan_group", 2)
    self_total = sum(v[2] for v in t.values())
    m = {
        "catalog.load_catalog_s": span(r["setup_trace"], "catalog.load_catalog", 1),
        "catalog.realize_s": span(t, "catalog.CatalogIndex.realize", 1),
        "catalog.realize_calls": span(t, "catalog.CatalogIndex.realize", 0),
        "perm_core.all_subgroups_s": span(t, "perm_core.all_subgroups", 1),
        "perm_core.all_subgroups_calls": span(t, "perm_core.all_subgroups", 0),
        "perm_core.closure_calls": span(t, "perm_core.closure", 0),
        "perm_core.subgroups": sum(r["subgroups"].values()),
        "perm_core.conjugation_table_s":
            span(t, "perm_core.SubgroupLattice.conjugation_table", 1),
        "perm_core.is_product_subgroup_s":
            span(t, "perm_core.is_product_subgroup", 1),
        "perm_core.generator_strings_s":
            span(t, "perm_core.Subgroup.generator_strings", 1),
        "cli.cache_load_s": span(t, "cli.LatticeCache.load", 1),
        "cli.cache_hits": r["cache_hits"],
        "cli.cache_store_s": span(t, "cli.LatticeCache.store", 1),
        "cli.cache_misses": r["cache_misses"],
        "cli.render_s": span(t, "cli.Report.render", 1),
        "search_engine.scan_group_s": scan_self,
        "search_engine.scan_group_calls": span(t, "search_engine.scan_group", 0),
        "search_engine.evaluated_per_s":
            counts["tuples_evaluated"] / scan_self if scan_self else 0.0,
        "search_engine.tuples_total": counts["tuples_total"],
        "search_engine.tuples_evaluated": counts["tuples_evaluated"],
    }
    for key in counts:
        if key.startswith("pruned."):
            m["search_engine." + key] = counts[key]
    m.update({
        "search_engine.violations": counts["violations"],
        "search_engine.equalities": counts["equalities"],
        "search_engine.evaluated_ratio":
            counts["tuples_evaluated"] / counts["tuples_total"],
        "entropy_eval.evaluate_s": span(t, "entropy_eval.evaluate", 1),
        "entropy_eval.evaluate_calls": span(t, "entropy_eval.evaluate", 0),
        "ineq_dsl.symmetry_group_s": span(t, "ineq_dsl.symmetry_group", 1),
        "ineq_dsl.builtin_calls": span(t, "ineq_dsl.builtin", 0),
    })
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v[2] for k, v in t.items()
                                   if k.startswith(layer + "."))
    m["trace.overhead_s"] = r["wall_s"] - p1_wall
    m["trace.unattributed_s"] = r["wall_s"] - self_total
    return m


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(run, args):
    """Repetitions until args.seconds have passed; None if none succeeded."""
    prefill = WORKLOADS[args.workload]["prefill"]
    # Compiles bytecode into .bench_build and warms the file cache.
    run.worker("warm-up", 1, run.fresh_dir(), prefill=prefill, setup_only=True)
    ceiling = parallel_ceiling()
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        n = len(reps)
        cache = run.fresh_dir()
        p1 = run.worker(f"rep {n} jobs 1", 1, cache, prefill=prefill)
        p2 = run.worker(f"rep {n} jobs 2", 2, cache)
        p3 = (run.worker(f"rep {n} traced", 1, run.fresh_dir(),
                         prefill=prefill, trace=True)
              if args.trace else None)
        check_command(run, p1, f"rep {n} jobs 1", prefill, args.seed, None)
        check_command(run, p2, f"rep {n} jobs 2", True, args.seed, p1)
        check_command(run, p3, f"rep {n} traced", prefill, args.seed, p1)
        if None in (p1, p2) or (args.trace and p3 is None):
            break
        reps.append((p1, p2, p3))
        now = time.monotonic()
        if (now - start >= args.seconds
                or now - start + 1.5 * (now - t0) > RUN_BUDGET_S):
            break
    if not reps:
        return None
    # Set-up and the --jobs 2 command are short next to a repetition of
    # s5-ingleton; top both up to SAMPLES per run, so their medians hold.
    # A traced run reports neither, so it skips the top-up.
    top_up = 0 if args.trace else SAMPLES
    setups = [p1["setup_s"] for p1, _, _ in reps]
    while len(setups) < top_up:
        probe = run.worker(f"set-up {len(setups)}", 1, run.fresh_dir(),
                           prefill=prefill, setup_only=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    jobs2 = [p2 for _, p2, _ in reps]
    while len(jobs2) < top_up:
        label = f"jobs 2 #{len(jobs2)}"
        p2 = run.worker(label, 2, cache)
        check_command(run, p2, label, True, args.seed, reps[-1][0])
        if p2 is None:
            break
        jobs2.append(p2)
    if WORKLOADS[args.workload].get("cli_check") and args.seed == 0:
        check_against_cli(run, reps[0][0])

    walls = [p1["wall_s"] for p1, _, _ in reps]
    e2e = {
        "wall_s": median(walls),
        "wall_jobs2_s": median([p2["wall_s"] for p2 in jobs2]),
        "setup_s": median(setups),
        "peak_rss_mb": max(median([p1["rss_mb"] for p1, _, _ in reps]),
                           median([p2["rss_mb"] for p2 in jobs2])),
    }
    counts = reps[0][0]["counts"]
    info = {"wall_s_max": max(walls), "wall_s_samples": len(walls),
            "jobs2_samples": len(jobs2), "setup_s_samples": len(setups),
            "evaluated": counts["tuples_evaluated"],
            "total": counts["tuples_total"]}
    layers = None
    if args.trace:
        per_rep = [layer_metrics(p3, e2e["wall_s"]) for _, _, p3 in reps]
        for m in per_rep[1:]:
            for k, v in m.items():
                if UNITS[k] == "count" and v != per_rep[0][k]:
                    run.fail("traced", f"count {k} did not repeat: "
                                       f"{v} vs {per_rep[0][k]}")
        layers = {k: median([m[k] for m in per_rep])
                  for k in per_rep[0]}
        layers["search_engine.parallel_eff"] = (
            median([p1["scan_s"] for p1, _, _ in reps])
            / (2 * median([p2["scan_s"] for p2 in jobs2])))
        layers["machine.parallel_ceiling"] = ceiling
    return e2e, info, layers, machine_record(reps[0][0]["numpy"], ceiling)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "groupineq" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'groupineq'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=BUILD, prefix="run-")
    run = Runner(args.workload, None, tmp)
    try:
        if args.seed:
            run.catalog = relabeled_catalog(args.seed, Path(tmp) / "catalog.json")
        measured = measure(run, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    if measured is not None:
        e2e, info, layers, machine = measured
        print(f"machine {json.dumps(machine)}")
        print(f"workload {args.workload} seed {args.seed}: "
              f"{info['evaluated']} of {info['total']} tuples evaluated; "
              f"{info['wall_s_samples']} repetition(s), wall_s max "
              f"{info['wall_s_max']:.4f} s; {info['jobs2_samples']} --jobs 2 "
              f"and {info['setup_s_samples']} set-up samples")
        fail_ratio = len(run.failed) / run.attempted
        shown = dict(e2e)
        if layers is not None:
            layers["fail_ratio"] = fail_ratio
            shown.update(layers)
        else:
            shown["fail_ratio"] = fail_ratio
        for name, value in shown.items():
            print(f"  {name:40s} {value:>16.6g} {UNITS[name]}")
        chosen = layers if args.trace else e2e
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in chosen.items()}
    failed = len(run.failed)
    result = {"correct": failed == 0 and measured is not None,
              "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
