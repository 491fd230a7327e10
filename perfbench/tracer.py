"""Tracing wfk from outside the library.

`install` wraps the public functions and methods at each layer boundary.  A
wrapped call is either a span or a plain counter.  A span's self time is its
duration minus the durations of the spans it opened.  Spans are summed per
name in memory and read once, when the traced pass ends.  Hot calls whose
time is not reported (Fraction construction, wreath element products) only
count, so their time stays in the enclosing span.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import resource
import sys
import time
from collections import Counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: Counter = Counter()
        self._child_time = [0.0]  # per open span: time covered by its child spans

    def wrap(self, fn, span=None, count=None, before=None, after=None):
        """`before(*args)` returns a state that `after(state, *args)` reads
        once the call has returned."""
        counts = self.counts
        if count:
            counts[count] += 0  # report the counter even if it stays at zero
        if span is None:
            def counted(*args, **kwargs):
                counts[count] += 1
                if before is not None:
                    before(*args, **kwargs)
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        stat = self.spans.setdefault(span, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if count:
                counts[count] += 1
            state = before(*args, **kwargs) if before is not None else None
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child_time.pop()
                child_time[-1] += elapsed
            if after is not None:
                after(state, *args, **kwargs)
            return result
        return functools.wraps(fn)(timed)

    def patch_function(self, module, name, **kw) -> None:
        """Rebind `module.name` in every wfk module that imported it by name."""
        original = getattr(module, name)
        wrapped = self.wrap(original, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "wfk":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, name, **kw) -> None:
        setattr(cls, name, self.wrap(cls.__dict__[name], **kw))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        out.update({f"{name}.self_s": stat[2] for name, stat in self.spans.items()})
        requested = out["fock.columns.requested"]
        out["fock.columns.hit_ratio"] = (
            (requested - out["fock.columns.computed"]) / requested if requested else 0.0)
        return out


CYCNUM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
              "inverse", "conjugate", "galois")
# counters the hooks below fill in, reported even when they stay at zero
HOOK_COUNTS = ("fock.columns.requested", "fock.columns.computed",
               "wreath.class_elements.elements_scanned", "wreath.build_wreath.maxrss_rise_mb",
               "charmap.convolve_pairs", "series.gset_action_checks", "budget.max_elements")
POWER_SERIES_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__")
POWER_SERIES_FUNCTIONS = ("geometric_factor", "gottsche_poincare", "euler_product",
                          "hodge_product")


def install(t: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports.  All wfk modules must
    be imported first, so that every by-name import is rebound."""
    from wfk import budget, charmap, cli, exact, fock, groups, linalg, mckay, series, wreath

    c = t.counts
    c.update(dict.fromkeys(HOOK_COUNTS, 0))
    for name in CYCNUM_OPS:
        t.patch_method(exact.CycNum, name, span="exact.cycnum", count="exact.cycnum_ops.calls")
    t.patch_method(exact.CycNum, "embed", span="exact.cycnum", count="exact.cycnum_embed.calls")
    fractions.Fraction.__new__ = staticmethod(
        t.wrap(fractions.Fraction.__new__, count="exact.fraction_new.calls"))

    for name in ("build_from_generators", "conjugacy_classes", "character_table"):
        t.patch_function(groups, name, span=f"groups.{name}")
    t.patch_function(groups, "inner_product", count="groups.inner_product.calls")
    t.patch_method(groups.FiniteGroup, "__init__", span="groups.FiniteGroup_init")

    for name in ("mckay_data", "koszul_thom_check"):
        t.patch_function(mckay, name, span=f"mckay.{name}")
    for name, value in list(vars(linalg).items()):
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == linalg.__name__):
            t.patch_function(linalg, name, span="linalg")

    def columns_before(op, v):
        return len(op._columns)

    def columns_after(size_before, op, v):
        c["fock.columns.requested"] += len(v.terms)
        c["fock.columns.computed"] += len(op._columns) - size_before

    t.patch_function(fock, "q_mode", count="fock.q_mode.calls")
    t.patch_function(fock, "W_operator", count="fock.W_operator.calls")
    t.patch_function(fock, "monomial_basis", span="fock.monomial_basis")
    t.patch_method(fock.FockOperator, "apply", span="fock.FockOperator_apply",
                   count="fock.FockOperator_apply.calls",
                   before=columns_before, after=columns_after)

    def orbit_cached(level, rho):
        return rho in level._class_elements

    def orbit_scanned(cached, level, rho):
        if not cached:
            c["wreath.class_elements.elements_scanned"] += level.order

    def rss_rise(rss_before, *args):
        c["wreath.build_wreath.maxrss_rise_mb"] += _maxrss_mb() - rss_before

    t.patch_function(wreath, "induce", span="wreath.induce", count="wreath.induce.calls")
    t.patch_method(wreath.HeisenbergOperator, "apply", span="wreath.HeisenbergOperator_apply")
    t.patch_function(wreath, "enumerate_types", span="wreath.enumerate_types")
    t.patch_method(wreath.WreathLevel, "class_elements", span="wreath.class_elements",
                   before=orbit_cached, after=orbit_scanned)
    t.patch_function(wreath, "wreath_mult", count="wreath.wreath_mult.calls")
    t.patch_function(wreath, "type_of", count="wreath.type_of.calls")
    t.patch_function(wreath, "build_wreath", span="wreath.build_wreath",
                     before=lambda *args: _maxrss_mb(), after=rss_rise)

    def convolve_pairs(_, G, n, kappa, f):
        level = wreath.wreath_level(G, n)
        c["charmap.convolve_pairs"] += len(level.types) * len(level._class_elements[kappa])

    t.patch_function(charmap, "convolve_by_class", span="charmap.convolve_by_class",
                     count="charmap.convolve_by_class.calls", after=convolve_pairs)
    t.patch_function(charmap, "filtered_convolution", span="charmap.filtered_convolution")
    t.patch_function(charmap, "ch", count="charmap.ch.calls")

    def action_checks(_, gset, group, table):
        c["series.gset_action_checks"] += group.order ** 2 * gset.points

    t.patch_method(series.GSet, "__init__", span="series.GSet_init", after=action_checks)
    t.patch_function(series, "wreath_gset", span="series.wreath_gset")
    t.patch_function(series, "orbifold_euler_bruteforce", span="series.orbifold_euler_bruteforce")
    for name, value in list(vars(series.PowerSeries).items()):
        if inspect.isfunction(value) and (not name.startswith("_") or name in POWER_SERIES_DUNDERS):
            t.patch_method(series.PowerSeries, name, span="series.power_series")
    for name in POWER_SERIES_FUNCTIONS:
        t.patch_function(series, name, span="series.power_series")

    def largest_admitted(size, what, limit=None):
        c["budget.max_elements"] = max(c["budget.max_elements"], size)

    t.patch_function(budget, "check_budget", count="budget.check_budget.calls",
                     before=largest_admitted)

    t.patch_function(cli, "run", span="cli.run")
    t.patch_function(cli, "emit", span="cli.emit")
