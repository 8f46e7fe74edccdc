#!/usr/bin/env python3
"""Mutation check for the verdict path: does tier-1 notice a small fault?

Each entry of MUTANTS is one edit (file, old text, new text, reason).
For each, the tool copies src/, tests/, tools/, demos/ and
pyproject.toml into a temporary directory, replaces the old text (which
must occur exactly once) and runs tier-1 there with -x and a time limit
of TIMEOUT_S, the edited module's own test file first. It reports the
edit as killed (a test failed), survived (every test passed) or timed
out. EQUIVALENT lists edits believed to change no result, each with the
reason; they run too, and are expected to survive.

    python3 tools/mutants.py [--match SUBSTR]

--match runs only the edits whose reason contains SUBSTR. Exit status 0
when every edit run from MUTANTS was killed and every one from EQUIVALENT
survived, 1 otherwise. A manual tool, not a CI step: a killed
edit takes one partial tier-1 run, a surviving one a full run. Tier-1's
tests/test_mutants.py checks that every edit's old text occurs exactly
once, so an edit to the code that strands an entry fails at once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "demos", "pyproject.toml")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


PERM_CORE = "src/groupineq/perm_core.py"
SEARCH = "src/groupineq/search_engine.py"

MUTANTS: List[Mutant] = [
    Mutant(PERM_CORE,
           "        g, subs = self.group, self.subgroups\n        _require_lattice_cap(g)\n",
           "        g, subs = self.group, self.subgroups\n",
           "SubgroupLattice skips the lattice cap, so a cache hit bypasses it"),
    Mutant(PERM_CORE,
           "    _require_lattice_cap(g)\n    gens_of",
           "    gens_of",
           "all_subgroups enumerates before the lattice cap refuses the group"),
    Mutant(PERM_CORE,
           "        if bucket and (comma or seen & set(points)):",
           "        if bucket and seen & set(points):",
           "parse_generators ignores a comma between cycles"),
    Mutant(PERM_CORE,
           "        if bucket and (comma or seen & set(points)):",
           "        if bucket and comma:",
           "parse_generators ignores an overlap between cycles"),
    Mutant(SEARCH,
           "        x = min(cut - (r == 0), top)",
           "        x = min(cut, top)",
           "_signs_agree fails every proof at the origin; the bounded "
           "_log_weights search must fail, not hang"),
    Mutant(SEARCH,
           "        if top < 0:\n            continue",
           "        if top <= 0:\n            continue",
           "a block whose largest value is 0 counts no equality"),
    Mutant(SEARCH,
           "            alive[rows] &= ~(lower[:, None] | (st.fixes[x][:, None] & lower))",
           "            alive[rows] &= ~(st.fixes[x][:, None] & lower)",
           "conjugacy mask drops the (c, d) term: a mover that moves Gd lower "
           "no longer kills the (c, d) line"),
    Mutant(SEARCH,
           "            alive[rows] &= ~(lower[:, None] | (st.fixes[x][:, None] & lower))",
           "            alive[rows] &= ~(lower[:, None] | (st.fixes[x][:, None] "
           "& st.fixes[x]))",
           "conjugacy mask tests E against fixes instead of lower"),
    Mutant(SEARCH,
           "        rows = member[:, x] & st.fixes[x, dom_c]",
           "        rows = st.fixes[x, dom_c]",
           "conjugacy mask ignores membership in the prefix's stabilizer: a "
           "mover of one prefix kills cells of another"),
    Mutant(SEARCH,
           "    moved = stabs.T @ st.lower[:, st.domains[depth]] & ~paired",
           "    moved = stabs.T @ st.lower[:, st.domains[depth]]",
           "position 2 charges a tuple to conjugacy that the pair rule "
           "already cut"),
    Mutant(SEARCH,
           "        stabs = np.ones((len(self.lower), 1), dtype=bool)",
           "        stabs = np.zeros((len(self.lower), 1), dtype=bool)",
           "position 1 ignores the stabilizer of the empty prefix, so every "
           "subgroup starts a task"),
    Mutant(SEARCH,
           "            stabs = stabs[:, k] & self.fixes[:, s]",
           "            stabs = stabs[:, k] & self.fixes[:, chosen[:, 0]]",
           "position 3 cuts, and the blocks' movers act, under the task's whole "
           "stabilizer, not only the elements that normalize Gs"),
    Mutant(SEARCH,
           "        value += full[k]",
           "        value -= full[k]",
           "a plan subtracts its terms on all three block axes instead of "
           "adding them"),
    Mutant(SEARCH,
           "        value -= full[k]",
           "        value += full[k]",
           "a plan adds the terms on all three block axes that it should "
           "subtract"),
    Mutant(SEARCH,
           "np.repeat(table[:, -1:], m, axis=1)",
           "np.repeat(table[:, :1], m, axis=1)",
           "the meet-log table's G rows read each subgroup at the trivial "
           "subgroup instead of at G"),
    Mutant(SEARCH,
           "[[dict(p.groups[j]).get(t, 0) for t in terms]",
           "[[np.sign(dict(p.groups[j]).get(t, 0)) for t in terms]",
           "the pick matrices hold each coefficient's sign, so a term with "
           "c = 2 counts once"),
    Mutant(SEARCH,
           "    value = np.take(per_prefix, seg, axis=0)",
           "    value = np.take(per_prefix, 0 * seg, axis=0)",
           "every row of a block takes the first prefix's sum of the terms "
           "without C"),
]

EQUIVALENT: List[Mutant] = [
    Mutant(SEARCH,
           "    budget = max(1, _BLOCK_CELLS // len(st.orders) ** 2)",
           "    budget = max(1, _BLOCK_CELLS // len(st.orders) ** 2 - 1)",
           "row-slice budget: each block is one row short of _BLOCK_CELLS, "
           "which changes the layout only"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return ""


def run_mutant(m: Mutant) -> tuple:
    """(status, seconds, detail) of tier-1 on a copy with `m` applied."""
    with tempfile.TemporaryDirectory(prefix="gil-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        path = dest / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "stale", 0.0, f"old text occurs {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        # the edited module's own tests run first, where a kill is
        # likeliest (pytest keeps the order of files named on its command
        # line); tests/test_mutants.py checks this file's old texts
        # against the tree, which an applied edit changes by design
        own = f"test_{Path(m.file).stem}.py"
        files = [own] + sorted(p.name for p in (dest / "tests").glob("test_*.py")
                               if p.name not in (own, "test_mutants.py"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
               "-p", "no:cacheprovider", *("tests/" + f for f in files)]
        t0 = time.monotonic()
        # a session of its own, so a timeout also ends any worker it forked
        proc = subprocess.Popen(cmd, cwd=dest, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", time.monotonic() - t0, ""
        seconds = time.monotonic() - t0
        if proc.returncode == 0:
            return "survived", seconds, ""
        if proc.returncode == 1:
            return "killed", seconds, _first_failure(out)
        return "error", seconds, out.strip().splitlines()[-1] if out.strip() else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Mutation check for the verdict path.")
    parser.add_argument("--match", default="", metavar="SUBSTR",
                        help="run only the edits whose reason contains SUBSTR")
    match = parser.parse_args(argv).match
    runs = [(m, want) for ms, want in ((MUTANTS, "killed"), (EQUIVALENT, "survived"))
            for m in ms if match in m.reason]
    if not runs:
        print(f"no edit's reason contains {match!r}")
        return 1
    ok = True
    t_all = time.monotonic()
    for m, want in runs:
        status, seconds, detail = run_mutant(m)
        ok &= status == want
        flag = "" if status == want else "  <-- expected " + want
        print(f"{status:<10} {seconds:6.1f}s  {m.file}: {m.reason}{flag}")
        if detail:
            print(f"{'':19}{detail}")
        sys.stdout.flush()
    print(f"{len(runs)} edit(s) in {time.monotonic() - t_all:.0f}s: "
          f"{'all as expected' if ok else 'NOT all as expected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
