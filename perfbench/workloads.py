"""The benchmark's three workloads, their seeded inputs and output checks.

Each workload has a ``setup(seed, sizes)`` that builds its specs and seed
crossings (timed as set-up) and a ``run(inputs, sizes, out_dir, ops)`` that
does one pass.  Every call into coronagrid goes through a module attribute
(``graph.corona_sequence``, not a name imported here), so the tracer's
wrappers see it.  Each unit of work runs through ``Ops.run``: a raised
exception or a failed output check marks that operation failed and the pass
goes on.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from random import Random
from typing import Callable

import tracer as tracing
from coronagrid import analysis, certify, dual, graph, io, multigrid, sandpile

FULL = {
    "pentagrid-converge": {"ns": (10, 20, 40, 80, 160)},
    "window-sandpile": {"window": 30.0, "regular": 40.0, "sandpile": 20.0, "rounds": 40},
    "mixed-grids": {"dims": (3, 4, 5, 6, 7, 8, 9), "n": 80, "converge": (20, 40, 80),
                    "endpoints": (20, 80, 320), "queries": 10},
}

# Sizes for the benchmark's own tests: seconds, not minutes.
TINY = {
    "pentagrid-converge": {"ns": (2, 4, 8)},
    "window-sandpile": {"window": 4.0, "regular": 4.0, "sandpile": 6.0, "rounds": 4},
    "mixed-grids": {"dims": (3, 5), "n": 6, "converge": (3, 6),
                    "endpoints": (2, 8), "queries": 2},
}

H80_BOUND = 0.1   # criterion 6's bound on h_80 for the tiling side


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Attempted and failed operations of one pass.

    ``span`` runs the call; the traced pass passes the tracer's span, the
    untraced pass a plain call, so both run the same code.
    """

    def __init__(self, span: Callable | None = None):
        self.span = span or (lambda name, fn: fn())
        self.attempted = 0
        self.failures: list[dict] = []
        self.seconds: dict[str, float] = {}   # wall time per operation name

    def run(self, name: str, spec, fn: Callable, needs: tuple = ()):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        if any(dep is None for dep in needs):
            self._fail(name, spec, "Skipped", "an operation it depends on failed")
            return None
        start = time.perf_counter()
        try:
            return self.span("op." + name, fn)
        except CheckFailed as exc:
            self._fail(name, spec, "CheckFailed", str(exc))
        except Exception as exc:  # noqa: BLE001 - every refusal is a counted failure
            self._fail(name, spec, type(exc).__name__, str(exc))
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
        return None

    def _fail(self, name: str, spec, kind: str, message: str) -> None:
        self.failures.append({"op": name, "kind": kind, "message": message,
                              "spec": io.serialize_spec(spec)})


def _write(out_dir: Path, name: str, text: str, artifacts: dict[str, Path]) -> None:
    path = out_dir / name
    path.write_text(text)
    artifacts[name] = path


@dataclass
class PassOutput:
    """What a pass produced: the work measure, written files and a summary
    of computed values (both digested to compare passes)."""

    work: int
    artifacts: dict[str, Path]
    summary: list[str]


# -- pentagrid-converge --------------------------------------------------------

def pentagrid_setup(seed: int, sizes: dict):
    spec = certify.random_offsets_pentagrid(seed)
    return spec, graph.Patch(frozenset([multigrid.nearest_crossing(spec)]))


def pentagrid_run(inputs, sizes: dict, out_dir: Path, ops: Ops) -> PassOutput:
    """`converge --side tiling` as the paper uses it, plus the frontiers CSV."""
    spec, patch = inputs
    ns = sizes["ns"]
    artifacts: dict[str, Path] = {}
    seq = ops.run("grow", spec, lambda: graph.corona_sequence(spec, patch, ns[-1]))

    def converge():
        rows = analysis.convergence_table(spec, patch, ns, "tiling", sequence=seq)
        buf = StringIO()
        io.write_convergence_csv(rows, buf)
        _write(out_dir, "convergence.csv", buf.getvalue(), artifacts)
        h = {r.n: r.h for r in rows}
        check(h[ns[-1]] < h[ns[0]], f"h_{ns[-1]} = {h[ns[-1]]} not below h_{ns[0]} = {h[ns[0]]}")
        check(80 not in h or h[80] <= H80_BOUND, f"h_80 = {h.get(80)} > {H80_BOUND}")
        return rows

    rows = ops.run("converge", spec, converge, needs=(seq,))

    def frontiers():
        buf = StringIO()
        io.write_frontiers_csv(seq, buf)
        text = buf.getvalue()
        _write(out_dir, "frontiers.csv", text, artifacts)
        last = text.splitlines()[-1].split(",")
        check(int(last[2]) == seq.sizes()[-1], "frontiers CSV total != |P_n|")

    ops.run("frontiers", spec, frontiers, needs=(seq,))
    work = seq.sizes()[-1] if seq is not None else 0
    summary = [f"|P_{ns[-1]}| = {work}"]
    summary += [f"h_{r.n} = {r.h!r}" for r in rows or ()]
    return PassOutput(work, artifacts, summary)


# -- window-sandpile -----------------------------------------------------------

def window_setup(seed: int, sizes: dict):
    spec = certify.random_offsets_pentagrid(seed)
    return spec, multigrid.nearest_crossing(spec)


def window_run(inputs, sizes: dict, out_dir: Path, ops: Ops) -> PassOutput:
    """`gen`, `sandpile` and `corona` the way users run them."""
    spec, at = inputs
    rounds = sizes["rounds"]
    artifacts: dict[str, Path] = {}

    def gen():
        window = dual.tiling_window(spec, sizes["window"])
        buf = StringIO()
        io.write_tiles_csv(window, buf)
        text = buf.getvalue()
        _write(out_dir, "tiles.csv", text, artifacts)
        _write(out_dir, "tiling.svg", io.render_svg(io.tiling_scene(window)), artifacts)
        rows = text.count("\n") - 1
        check(rows == len(window), f"tiles CSV has {rows} rows for {len(window)} tiles")
        return len(window)

    gen_tiles = ops.run("gen", spec, gen)
    report = ops.run("check_regular", spec,
                     lambda: multigrid.check_regular(spec, sizes["regular"]))

    def topple():
        window = dual.tiling_window(spec, sizes["sandpile"])
        config = sandpile.max_stable(window)
        before = config.total_grains() + 1
        final = sandpile.add_grain_and_topple(config, at, rounds)
        check(final.total_grains() == before,
              f"grains not conserved: {before} -> {final.total_grains()}")
        return len(window), final

    toppled = ops.run("sandpile", spec, topple)
    seq = ops.run("grow", spec,
                  lambda: graph.corona_sequence(spec, graph.Patch(frozenset([at])), rounds))

    def compare():
        final = toppled[1]
        for n in range(1, rounds + 1):
            got, want = final.toppled_by(n), seq.corona(n - 1)
            check(got == want, f"round {n}: toppled {len(got)} != |P_{n - 1}| = {len(want)}")

    ops.run("compare", spec, compare, needs=(toppled, seq))

    def corona_out():
        buf = StringIO()
        io.write_frontiers_csv(seq, buf)
        _write(out_dir, "frontiers.csv", buf.getvalue(), artifacts)
        overlay = analysis.tiling_char_polygon(spec)
        _write(out_dir, "corona.svg",
               io.render_svg(io.corona_scene(spec, seq, overlay)), artifacts)

    ops.run("corona", spec, corona_out, needs=(seq,))
    tiles = (gen_tiles or 0) + (toppled[0] if toppled else 0)
    summary = [f"tiles = {tiles}"]
    if report is not None:
        summary.append(f"regular crossings = {report.crossing_count}, "
                       f"singular points = {len(report.singular_points)}")
    if toppled is not None:
        summary.append(f"topplings = {len(toppled[1].toppled_rounds)}")
    return PassOutput(tiles, artifacts, summary)


# -- mixed-grids ---------------------------------------------------------------

def mixed_setup(seed: int, sizes: dict):
    """One random multigrid per d, generated like certify.random_multigrid,
    its seed crossing, and the (p, q) offsets of its distance queries."""
    grids = []
    for d in sizes["dims"]:
        spec = certify.random_multigrid(d, 100 * seed + d)
        rng = Random(100 * seed + d)
        queries = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(sizes["queries"])]
        grids.append((spec, multigrid.nearest_crossing(spec), queries))
    return grids


def mixed_run(inputs, sizes: dict, out_dir: Path, ops: Ops) -> PassOutput:
    """Per grid: growth, multigrid-side convergence, endpoints, distances."""
    n = sizes["n"]
    work = 0
    summary = []
    for spec, seed_crossing, queries in inputs:
        d = spec.d
        patch = graph.Patch(frozenset([seed_crossing]))
        seq = ops.run(f"d{d}.grow", spec, lambda: graph.corona_sequence(spec, patch, n))
        if seq is not None:
            work += seq.sizes()[-1]
            summary.append(f"d={d} |P_{n}| = {seq.sizes()[-1]}")

        def converge():
            rows = analysis.convergence_table(spec, patch, sizes["converge"], "multigrid",
                                              sequence=seq)
            check(all(math.isfinite(r.h) for r in rows), "non-finite convergence h")
            return rows

        rows = ops.run(f"d{d}.converge", spec, converge, needs=(seq,))

        def ends():
            rows = analysis.endpoints_diagnostic(spec, patch, sizes["endpoints"])
            check(all(math.isfinite(r.h) for r in rows), "non-finite endpoint h")
            return rows

        end_rows = ops.run(f"d{d}.endpoints", spec, ends)
        summary += [f"d={d} converge h_{r.n} = {r.h!r}" for r in rows or ()]
        summary += [f"d={d} endpoints h_{r.n} = {r.h!r}" for r in end_rows or ()]

        # Queries on the seed crossing's first line: a lies p crossings
        # back, b lies q crossings ahead, so the straight-line count is p + q.
        for p, q in queries:
            def distance(p=p, q=q):
                line, start = seed_crossing.a, seed_crossing.point
                a = multigrid.nth_crossing(spec, line, start, -1, p)
                b = multigrid.nth_crossing(spec, line, start, +1, q)
                got = graph.graph_distance(spec, a, b, p + q + 2)
                check(got == p + q,
                      f"graph_distance({a.key}, {b.key}) = {got}, straight line {p + q}")
                return got

            got = ops.run(f"d{d}.distance", spec, distance)
            summary.append(f"d={d} distance({p}, {q}) = {got}")
    return PassOutput(work, {}, summary)


WORKLOADS = {
    "pentagrid-converge": (pentagrid_setup, pentagrid_run),
    "window-sandpile": (window_setup, window_run),
    "mixed-grids": (mixed_setup, mixed_run),
}


def digests(output: PassOutput) -> dict[str, str]:
    """sha256 of every written artifact and of the summary of computed values."""
    out = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in sorted(output.artifacts.items())}
    out["summary"] = hashlib.sha256("\n".join(output.summary).encode()).hexdigest()
    return out


def run_pass(workload: str, seed: int, sizes: dict, out_dir: Path, traced: bool) -> dict:
    """Set up and run one pass; with ``traced`` the tracer's wrappers are
    installed after set-up and removed before this returns."""
    setup, run = WORKLOADS[workload]
    start = time.perf_counter()
    inputs = setup(seed, sizes)
    setup_s = time.perf_counter() - start
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if traced else None
    restore = tracing.install(tracer) if traced else None
    try:
        ops = Ops(tracer.span if traced else None)
        start = time.perf_counter()
        output = (tracer.span("pass", run, inputs, sizes, out_dir, ops) if traced
                  else run(inputs, sizes, out_dir, ops))
        wall_s = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": output.work,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures,
        "digests": digests(output),
        "op_seconds": ops.seconds,
    }
    if traced:
        layers = tracing.layer_metrics(tracer)
        layers["multigrid.singular_refusals"] = sum(
            f["kind"] == "SingularMultigrid" for f in ops.failures)
        result["layers"] = layers
        result["trace"] = tracer.export()
        grow = tracer.duration("graph.corona_sequence")
        result["next_crossing_share_of_growth"] = (
            tracer.leaf_busy("multigrid.next_crossing_on_line", ("graph.corona_sequence",))
            / grow if grow else None)
    return result
