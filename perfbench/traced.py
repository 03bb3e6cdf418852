"""One traced, in-process run of `minvec.cli.main` with span recorders.

Usage: python traced.py SPANS_JSON -- CLI_ARGS...

Replaces the public functions the CLI reaches in orders, groups, testfunc,
counting and datafiles (and the CLI's own subcommands) with recorders that
store name, start, end and parent of each call, plus a few work counters
read from arguments and results.  Spans stay in memory and are written to
SPANS_JSON when the run ends.  minvec's sources are not modified.

Exit code: the CLI's own, or 70 when a hooked name no longer exists.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

EXIT_MISSING_HOOK = 70

# (module, attribute path) of every hooked callable, keyed by span name
HOOKS = {
    "cli.main": ("cli", "main"),
    "cli.cmd_order": ("cli", "cmd_order"),
    "cli.cmd_verify": ("cli", "cmd_verify"),
    "cli.cmd_count": ("cli", "cmd_count"),
    "cli.cmd_report_all": ("cli", "cmd_report_all"),
    "orders.build": ("orders", "InductionDatum.build"),
    "orders.k0": ("orders", "k0"),
    "orders.is_minimal": ("orders", "is_minimal"),
    "orders.approximation_report": ("orders", "approximation_report"),
    "groups.build_subgroups": ("groups", "build_subgroups"),
    "groups.simple_character": ("groups", "simple_character"),
    "groups.verify_character": ("groups", "verify_character"),
    "groups.heisenberg": ("groups", "heisenberg"),
    "groups.extend_and_induce": ("groups", "extend_and_induce"),
    "groups.intertwining_dichotomy": ("groups", "intertwining_dichotomy"),
    "groups.intertwining_spot": ("groups", "intertwining_spot"),
    "groups.build_Kpi": ("groups", "build_Kpi"),
    "testfunc.make_omega": ("testfunc", "make_omega"),
    "testfunc.depth_report": ("testfunc", "depth_report"),
    "testfunc.volume": ("testfunc", "volume"),
    "testfunc.convolve_check": ("testfunc", "convolve_check"),
    "testfunc.concentration_check": ("testfunc", "concentration_check"),
    "counting.enumerate_S": ("counting", "enumerate_S"),
    "counting.torus_set": ("counting", "LatticeQuery.torus_set"),
    "datafiles.load_datum": ("datafiles", "load_datum"),
    "datafiles.load_query": ("datafiles", "load_query"),
    "datafiles.render_report": ("datafiles", "render_report"),
}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _input_label(args, kwargs):
    ns = _arg(args, kwargs, 0, "args")
    for key in ("datum", "query", "data_dir"):
        if getattr(ns, key, None) is not None:
            return str(getattr(ns, key)).rsplit("/", 1)[-1]
    return None


class Recorder:
    """Spans as [name, parent index, start, end, maxrss rise KiB, label]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn, on_result=None, label=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1,
                    time.perf_counter(), None, _maxrss_kib(),
                    label(args, kwargs) if label else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[4] = _maxrss_kib() - span[4]
                self.stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return recorded


def _subgroup_sizes(rec, args, kwargs, bundle):
    groups = list(bundle.ua.values()) + [bundle.ul1, bundle.ol_units,
                                         bundle.h1, bundle.j1, bundle.jcapk]
    rec.add("groups.elements_enumerated", sum(g.size for g in groups))


def _pairs(rec, args, kwargs, result):
    rec.add("groups.pairs_scanned", _arg(args, kwargs, 0, "sub").size ** 2)


def _sweep(rec, args, kwargs, rep):
    rec.add("groups.intertwining_sweeps", 1)
    rec.add("groups.intertwining_conjugators", rep.total)


def _spot(rec, args, kwargs, rep):
    rec.add("groups.intertwining_spots", 1)
    rec.add("groups.intertwining_conjugators",
            rep.members_checked + rep.nonmembers_checked)


def _convolve(rec, args, kwargs, rep):
    m = rep.support_points_checked
    off = rep.offsupport_points_checked
    # full mode evaluates the whole pair table plus one row per off point
    pairs = m * m + off * m if rep.mode == "full" else m + off
    rec.add("testfunc.convolve_pairs", pairs)


def _enumerated(rec, args, kwargs, rep):
    rec.add("counting.candidates_scanned", rep.candidates_scanned)
    rec.add("counting.matches", rep.count)


ON_RESULT = {
    "orders.k0": lambda rec, a, k, res: rec.add("orders.k0_nodes", res.nodes),
    "groups.build_subgroups": _subgroup_sizes,
    "groups.verify_character": _pairs,
    "groups.intertwining_dichotomy": _sweep,
    "groups.intertwining_spot": _spot,
    "testfunc.convolve_check": _convolve,
    "counting.enumerate_S": _enumerated,
}


def _cache_probe(rec, cached):
    """Call the lru_cache'd torus_set unchanged, noting hit or miss."""
    @functools.wraps(cached)
    def torus_set(self, *args, **kwargs):
        before = cached.cache_info().misses
        result = cached(self, *args, **kwargs)
        if cached.cache_info().misses > before:
            rec.add("counting.torus_misses", 1)
            largest = rec.counters.get("counting.torus_elements", 0)
            rec.counters["counting.torus_elements"] = max(largest, len(result))
        else:
            rec.add("counting.torus_hits", 1)
        return result
    return torus_set


def install(rec: Recorder):
    """Hook every name in HOOKS; return the names that could not be found."""
    import importlib
    missing = []
    replaced = {}
    for name, (mod_name, path) in HOOKS.items():
        module = importlib.import_module(f"minvec.{mod_name}")
        *owners, attr = path.split(".")
        owner = module
        try:
            for part in owners:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if owners else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"minvec.{mod_name}.{path}")
            continue
        label = _input_label if mod_name == "cli" and name != "cli.main" \
            else None
        if isinstance(raw, classmethod):
            wrapped = classmethod(rec.wrap(name, raw.__func__))
        elif name == "counting.torus_set":
            wrapped = rec.wrap(name, _cache_probe(rec, raw))
        else:
            wrapped = rec.wrap(name, raw, ON_RESULT.get(name), label)
            replaced[id(raw)] = (raw, wrapped)
        setattr(owner, attr, wrapped)
    # names bound elsewhere by `from .x import f` (cli binds k0, is_minimal,
    # approximation_report) must point at the recorders too
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("minvec"):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    return missing


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    import minvec.cli
    rec = Recorder()
    missing = install(rec)
    if missing:
        sys.stderr.write("perfbench: hooked names not found: "
                         + ", ".join(missing) + "\n")
        return EXIT_MISSING_HOOK
    code = minvec.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
