"""The benchmark's workloads, shared by run.py and worker.py.

Each workload is one `gil` subcommand. `prefill` fills the lattice cache
during set-up, so the timed command is a warm cache hit; without it the
command starts from an empty cache directory and builds every lattice.
"""

WORKLOADS = {
    # scan S4 --ineqs dfz: the README headline; search_engine does ~95%.
    # cli_check: at seed 0 also compare with a real `gil scan` (cheap here).
    "s4-scan": {"kind": "scan", "group": "S4", "ineqs": "dfz", "prefill": True,
                "cli_check": True},
    # scan S5 --ineqs ingleton: the paper's stretch claim; the S5 lattice
    # (perm_core.all_subgroups) is ~85% of it.
    "s5-ingleton": {"kind": "scan", "group": "S5", "ineqs": "ingleton",
                    "prefill": False},
    # survey 2..23 --ineqs dfz: 58 small groups, each paying its own
    # realization, lattice, cache write and (for 15 of them) scan set-up.
    "survey-2-23": {"kind": "survey", "orders": [2, 23], "ineqs": "dfz",
                    "prefill": False},
}
