"""Tracing from outside the package: wrap coronagrid's public functions.

Coarse calls become spans (name, start, end, parent id) kept in memory.
The hot leaf calls (next_crossing_on_line, make_crossing, neighbors,
tile_of_crossing) run hundreds of thousands of times per pass, so they are
aggregated instead: a call count and busy time per parent span (and per
calling leaf, for leaves nested in leaves), which keeps memory bounded.
Every wrapper, span or leaf, adds its duration to its caller's "inner"
time, so a span's self time is its duration minus the time its children
(spans and leaves) cover.  Span hooks take counts (points, rows, bytes)
from the call's arguments and result, outside the span's own timing.

Functions are wrapped under every name a coronagrid module binds them to
(``coronagrid.graph.next_crossing_on_line``, ``coronagrid.io.tile_of_crossing``
and so on), because modules call the names they imported.  ``install``
returns a function that puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

ROOT = -1

# (module, attribute, span name): coarse calls, each recorded as a span.
SPANS = [
    ("coronagrid.graph", "corona_sequence", "graph.corona_sequence"),
    ("coronagrid.graph", "corona_step", "graph.corona_step"),
    ("coronagrid.graph", "graph_distance", "graph.graph_distance"),
    ("coronagrid.graph", "CoronaSequence.corona", "graph.corona_union"),
    ("coronagrid.multigrid", "enumerate_crossings", "multigrid.enumerate_crossings"),
    ("coronagrid.multigrid", "check_regular", "multigrid.check_regular"),
    ("coronagrid.geom", "convex_hull", "geom.convex_hull"),
    ("coronagrid.geom", "hull_chain", "geom.hull_chain"),
    ("coronagrid.geom", "hausdorff_distance", "geom.hausdorff_distance"),
    ("coronagrid.geom", "hausdorff_between", "geom.hausdorff_between"),
    ("coronagrid.dual", "tiling_window", "dual.tiling_window"),
    ("coronagrid.analysis", "convergence_table", "analysis.convergence_table"),
    ("coronagrid.analysis", "endpoints_diagnostic", "analysis.endpoints_diagnostic"),
    ("coronagrid.sandpile", "max_stable", "sandpile.max_stable"),
    ("coronagrid.sandpile", "add_grain_and_topple", "sandpile.add_grain_and_topple"),
    ("coronagrid.io", "render_svg", "io.render_svg"),
    ("coronagrid.io", "tiling_scene", "io.tiling_scene"),
    ("coronagrid.io", "corona_scene", "io.corona_scene"),
    ("coronagrid.io", "write_tiles_csv", "io.write_tiles_csv"),
    ("coronagrid.io", "write_frontiers_csv", "io.write_frontiers_csv"),
    ("coronagrid.io", "write_convergence_csv", "io.write_convergence_csv"),
]

# (module, attribute, leaf name): hot calls, aggregated per parent span.
LEAVES = [
    ("coronagrid.multigrid", "next_crossing_on_line", "multigrid.next_crossing_on_line"),
    ("coronagrid.multigrid", "make_crossing", "multigrid.make_crossing"),
    ("coronagrid.graph", "neighbors", "graph.neighbors"),
    ("coronagrid.dual", "tile_of_crossing", "dual.tile_of_crossing"),
]

BFS_SPANS = ("graph.corona_sequence", "graph.corona_step", "graph.graph_distance")


class Tracer:
    """Spans and leaf aggregates of one pass, held in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent, inner]
        # (parent span, calling leaf or None, leaf name) -> [calls, busy, inner]
        self.leaves: dict[tuple[int, str | None, str], list] = {}
        self.counters: dict[str, float] = {}
        self.tiled: set = set()              # distinct crossings dualized
        self.current = ROOT
        self.caller: str | None = None       # innermost open leaf call
        self._inner = [0.0]                  # child time of each open frame

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; the benchmark uses this for its operations."""
        parent = self.current
        sid = len(self.spans)
        record = [name, 0.0, 0.0, parent, 0.0]
        self.spans.append(record)
        self.current = sid
        self._inner.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            inner = self._inner.pop()
            self._inner[-1] += end - start
            record[1], record[2], record[4] = start, end, inner
            self.current = parent

    def leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        leaves, stack, clock = self.leaves, self._inner, self.clock
        note = self.tiled.add if name == "dual.tile_of_crossing" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.caller
            self.caller = name
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                inner = stack.pop()
                stack[-1] += busy
                self.caller = caller
                key = (self.current, caller, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, busy, inner]
                else:
                    agg[0] += 1
                    agg[1] += busy
                    agg[2] += inner
                if note is not None:
                    note(args[1])
        return wrapper

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    # -- summaries ---------------------------------------------------------

    def self_time(self, *names: str) -> float:
        return sum(end - start - inner
                   for name, start, end, _, inner in self.spans if name in names)

    def duration(self, *names: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name in names)

    def _leaf_aggs(self, name: str, parents: tuple[str, ...] | None, caller: str | None):
        for (parent, outer, leaf), agg in self.leaves.items():
            if leaf != name or (caller is not None and outer != caller):
                continue
            if parents is None or (parent != ROOT and self.spans[parent][0] in parents):
                yield agg

    def leaf_calls(self, name: str, parents: tuple[str, ...] | None = None,
                   caller: str | None = None) -> int:
        return sum(agg[0] for agg in self._leaf_aggs(name, parents, caller))

    def leaf_busy(self, name: str, parents: tuple[str, ...] | None = None) -> float:
        return sum(agg[1] for agg in self._leaf_aggs(name, parents, None))

    def leaf_self(self, name: str) -> float:
        return sum(agg[1] - agg[2] for agg in self._leaf_aggs(name, None, None))

    def export(self) -> dict:
        return {
            "spans": [{"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "self": end - start - inner}
                      for i, (name, start, end, parent, inner) in enumerate(self.spans)],
            "leaves": [{"parent": parent, "caller": caller, "name": name,
                        "calls": agg[0], "busy": agg[1], "self": agg[1] - agg[2]}
                       for (parent, caller, name), agg in self.leaves.items()],
        }


def _topple_counts(t: Tracer, args, result) -> None:
    config, rounds = args[0], args[2]
    t.count("sandpile.rounds", rounds)
    t.count("sandpile.topplings", len(result.toppled_rounds))
    t.count("sandpile.scans", rounds * len(config.window))


def _csv_bytes(t: Tracer, args, result) -> None:
    t.count("io.csv_bytes", args[1].tell())   # the workloads pass a fresh buffer


# Counts a span takes from its call's arguments and result.
_HOOKS: dict[str, Callable] = {
    "geom.hull_chain": lambda t, args, _: t.count("geom.hull_points", len(args[0])),
    "multigrid.enumerate_crossings":
        lambda t, _, result: t.count("multigrid.enumerate_crossings", len(result)),
    "dual.tiling_window": lambda t, _, result: t.count("dual.window_tiles", len(result)),
    "analysis.convergence_table": lambda t, _, result: t.count("analysis.rows", len(result)),
    "analysis.endpoints_diagnostic": lambda t, _, result: t.count("analysis.rows", len(result)),
    "sandpile.add_grain_and_topple": _topple_counts,
    "io.render_svg": lambda t, _, result: t.count("io.svg_bytes", len(result.encode())),
    "io.write_tiles_csv": _csv_bytes,
    "io.write_frontiers_csv": _csv_bytes,
    "io.write_convergence_csv": _csv_bytes,
}


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "coronagrid" or name.startswith("coronagrid."))]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function under every name bound to it; return the
    function that restores the originals."""
    originals: list[tuple[object, str, object]] = []
    modules = _package_modules()
    for table, make in ((SPANS, tracer.span_wrapper), (LEAVES, tracer.leaf_wrapper)):
        for module, attr, name in table:
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[module], cls_name)
                originals.append((owner, meth, owner.__dict__[meth]))
                setattr(owner, meth, make(name, owner.__dict__[meth]))
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        originals.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def restore() -> None:
        for owner, key, value in reversed(originals):
            setattr(owner, key, value)
    return restore


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (timings in seconds)."""
    c = t.counters.get
    next_calls = t.leaf_calls("multigrid.next_crossing_on_line")
    tile_calls = t.leaf_calls("dual.tile_of_crossing")
    topplings = c("sandpile.topplings", 0)
    return {
        "geom.hull_points": c("geom.hull_points", 0),
        "geom.hull_s": t.self_time("geom.convex_hull", "geom.hull_chain"),
        "geom.hausdorff_s": t.self_time("geom.hausdorff_distance", "geom.hausdorff_between"),
        "multigrid.next_crossing_calls": next_calls,
        "multigrid.next_crossing_s": t.leaf_busy("multigrid.next_crossing_on_line"),
        "multigrid.built_per_kept": (
            t.leaf_calls("multigrid.make_crossing", caller="multigrid.next_crossing_on_line")
            / next_calls if next_calls else 0.0),
        "multigrid.enumerate_crossings": c("multigrid.enumerate_crossings", 0),
        "multigrid.enumerate_s": t.duration("multigrid.enumerate_crossings"),
        "multigrid.check_regular_s": t.self_time("multigrid.check_regular"),
        "graph.neighbors_calls": t.leaf_calls("graph.neighbors"),
        "graph.neighbors_s": t.leaf_self("graph.neighbors"),
        "graph.bfs_crossings": t.leaf_calls("graph.neighbors", BFS_SPANS),
        "graph.bfs_s": t.self_time(*BFS_SPANS),
        "graph.corona_union_s": t.self_time("graph.corona_union"),
        "graph.distance_s": t.self_time("graph.graph_distance"),
        "dual.tile_calls": tile_calls,
        "dual.tile_s": t.leaf_busy("dual.tile_of_crossing"),
        "dual.tiles_per_crossing": tile_calls / len(t.tiled) if t.tiled else 0.0,
        "dual.window_tiles": c("dual.window_tiles", 0),
        "dual.window_s": t.self_time("dual.tiling_window"),
        "analysis.rows": c("analysis.rows", 0),
        "analysis.convergence_s": t.self_time("analysis.convergence_table"),
        "analysis.endpoints_s": t.self_time("analysis.endpoints_diagnostic"),
        "sandpile.rounds": c("sandpile.rounds", 0),
        "sandpile.topplings": topplings,
        "sandpile.topple_s": t.self_time("sandpile.add_grain_and_topple"),
        "sandpile.max_stable_s": t.self_time("sandpile.max_stable"),
        "sandpile.scans_per_toppling": (c("sandpile.scans", 0) / topplings
                                        if topplings else 0.0),
        "io.svg_bytes": c("io.svg_bytes", 0),
        "io.svg_s": t.self_time("io.render_svg", "io.tiling_scene", "io.corona_scene"),
        "io.csv_bytes": c("io.csv_bytes", 0),
        "io.csv_s": t.self_time("io.write_tiles_csv", "io.write_frontiers_csv",
                                "io.write_convergence_csv"),
        "trace.spans": len(t.spans),
    }
