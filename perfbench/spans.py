"""Spans around the public calls of groupineq's modules, from outside.

install() replaces every public module-level function of the traced
modules, and a short list of methods, with a wrapper that records a span.
Every module attribute bound to the original function is rebound, so a
call through `from .perm_core import closure` is traced too. Spans are
aggregated in memory per name: calls, total seconds and self seconds
(total minus the time of child spans).
"""

import functools
import inspect
from time import perf_counter

MODULES = ("catalog", "perm_core", "cli", "search_engine", "entropy_eval",
           "ineq_dsl")

# Methods worth a span. Element-level methods (Permutation.*, Group.mul,
# Subgroup.member_indices) are left out: a span there costs more than the
# work it would time.
METHODS = {
    "catalog": {"CatalogIndex": ("realize",)},
    "perm_core": {"Subgroup": ("generator_strings",),
                  "SubgroupLattice": ("conjugation_table",)},
    "cli": {"LatticeCache": ("get", "load", "store"), "Report": ("render",)},
}


class Tracer:
    def __init__(self):
        self.on = False
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self._stack = []  # child seconds of each open span

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                s = self.stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt
                s[2] += dt - child
        return traced

    def take(self):
        """Return the stats gathered so far and start afresh."""
        out, self.stats = self.stats, {}
        return out


def install(package):
    """Wrap package's traced modules in place; return the Tracer."""
    tracer = Tracer()
    modules = [getattr(package, m) for m in MODULES]
    replaced = {}
    for layer, mod in zip(MODULES, modules):
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                setattr(cls, m, tracer.wrap(f"{layer}.{cls_name}.{m}",
                                            vars(cls)[m]))
    for mod in modules + [package]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    return tracer
