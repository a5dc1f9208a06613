"""Empirical certification of the package's quantitative guarantees.

Each criterion is an independent check with a pinned tolerance and a runtime
budget; the CLI ``certify`` subcommand and the acceptance test suite both
run exactly these.  Checks raise AssertionError with a measured-value
message on failure; the runner wraps that into a pass/fail result.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import takewhile
from random import Random
from typing import Callable

from . import analysis, graph, sandpile
from .dual import corner_cycles, dual_vertex, linear_dual, tiling_window, vertex_position
from .errors import OnGridLine
from .geom import perp, scalar_product
from .multigrid import (
    Crossing,
    LineId,
    MultigridSpec,
    adjacent_direction_pairs,
    check_regular,
    count_crossings_with_grid,
    crossing_pairs,
    line_crossings,
    make_crossing,
    nearest_crossing,
    nth_crossing,
)

PENTAGRID = MultigridSpec.dfold(5, 0.5)
SQUARE = MultigridSpec.from_angles([0, 90], [0.0, 0.0])
MIN_GAP = 0.05   # the least angle, in radians, between two random_multigrid directions


def random_multigrid(d: int, seed: int) -> MultigridSpec:
    """Deterministic 'random' spec: d directions in [0, pi) with pairwise
    angular gap >= MIN_GAP, offsets uniform in [0, 1)."""
    rng = Random(seed)
    while True:
        angles = sorted(rng.uniform(0, math.pi) for _ in range(d))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + math.pi - angles[-1])
        if min(gaps) >= MIN_GAP:
            break
    normals = tuple(complex(math.cos(a), math.sin(a)) for a in angles)
    return MultigridSpec(normals, tuple(rng.random() for _ in range(d)))


def random_offsets_pentagrid(seed: int) -> MultigridSpec:
    """Pentagrid with seeded random offsets whose sum is not an integer."""
    rng = Random(seed)
    while True:
        offs = tuple(rng.random() for _ in range(5))
        if 0.05 < (sum(offs) % 1.0) < 0.95:
            return MultigridSpec.dfold(5, offs)


# --------------------------------------------------------------------------
# criterion bodies (raise AssertionError on failure, return detail on pass)

def crit_penrose_char_radii() -> str:
    chi = analysis.grid_char_polygon(PENTAGRID)
    chi_dual = analysis.tiling_char_polygon(PENTAGRID)
    expect = 1.0 / (2 * math.sin(2 * math.pi / 5) + 2 * math.sin(4 * math.pi / 5))
    for r in chi.radii:
        assert abs(r - expect) < 1e-6, f"grid-side radius {r} != {expect}"
    for r in chi_dual.radii:
        assert abs(r - 2.5 * expect) < 1e-6, f"tiling-side radius {r} != {2.5 * expect}"
    for poly in (chi, chi_dual):
        radii = [abs(v) for v in poly.vertices]
        assert max(radii) - min(radii) < 1e-9, f"{poly.side} vertices not equiradial"
        angles = sorted(math.atan2(v.imag, v.real) % (2 * math.pi)
                        for v in poly.vertices)
        for a, b in zip(angles, angles[1:]):
            assert abs((b - a) - math.pi / 5) < 1e-9, \
                f"{poly.side} central angle {b - a} != 36 deg"
    return f"radius {chi.radii[0]:.6f} / {chi_dual.radii[0]:.6f}, both regular decagons"


def crit_almost_linear() -> str:
    rng = Random(0)
    worst = 0.0
    for spec in (PENTAGRID, random_multigrid(7, seed=1)):
        bound = 2 * spec.d
        for _ in range(10_000):
            while True:
                r = 1000.0 * math.sqrt(rng.random())
                a = rng.uniform(0, 2 * math.pi)
                z = complex(r * math.cos(a), r * math.sin(a))
                try:
                    fz = vertex_position(spec, dual_vertex(spec, z))
                    break
                except OnGridLine:
                    continue
            gap = abs(fz - linear_dual(spec, z))
            worst = max(worst, gap / bound)
            assert gap <= bound, f"|F-linear| = {gap} > {bound} at {z} (d={spec.d})"
    return f"max |F - linear|/2d = {worst:.3f} over 2x10^4 samples, |z| <= 10^3"


def crit_crossing_count_bound() -> str:
    rng = Random(0)
    specs = [PENTAGRID, random_multigrid(7, seed=1), random_offsets_pentagrid(2)]
    worst = 0.0
    for q in range(1000):
        spec = specs[q % len(specs)]
        i = rng.randrange(spec.d)
        j = rng.choice([x for x in range(spec.d) if x != i])
        line = LineId(i, rng.randint(-50, 50))
        z = spec.line_point(line, rng.uniform(-500.0, 500.0))
        alpha = rng.uniform(1e-3, 1000.0)
        count = count_crossings_with_grid(spec, line, z, alpha, j)
        expect = alpha * abs(spec.cross(i, j))
        dev = abs(count - expect)
        worst = max(worst, dev)
        assert dev <= 2.0, f"|{count} - {expect}| = {dev} > 2"
    return f"max |count - alpha*frequency| = {worst:.3f} over 10^3 tuples"


def _sample_segment(rng: Random, spec: MultigridSpec, radius: float,
                    max_sep: int) -> tuple[list[Crossing], int, int]:
    # line offset and parameter bounded by 0.65r so every sampled crossing
    # stays inside the radius-r window
    while True:
        i = rng.randrange(spec.d)
        k_lim = int(radius * 0.65)
        line = LineId(i, rng.randint(-k_lim, k_lim))
        t0 = rng.uniform(-radius * 0.65, radius * 0.45)
        steps = takewhile(lambda step: step[0] <= t0 + 6.0, line_crossings(spec, line, t0, 1))
        cs = [make_crossing(spec, line, LineId(j, m)) for _, j, m in steps]
        if len(cs) >= 2:
            p = rng.randrange(len(cs) - 1)
            q = min(rng.randint(p + 1, p + max_sep), len(cs) - 1)
            return cs, p, q


def crit_shortest_path_oracle() -> str:
    rng = Random(0)
    spec = PENTAGRID
    radius = 30.0
    cap = 64
    for _ in range(100):
        cs, p, q = _sample_segment(rng, spec, radius, max_sep=8)
        dist = graph.graph_distance(spec, cs[p], cs[q], cap)
        between = q - p - 1
        assert dist == between + 1, \
            f"straight-line distance {dist} != {between}+1 for {cs[p].key}->{cs[q].key}"
    adj = adjacent_direction_pairs(spec)

    def beyond(c: Crossing, line: LineId, direction: int) -> Crossing:
        """The crossing 1 to 6 steps (drawn from rng) beyond c on the line."""
        return nth_crossing(spec, line, c.point, direction, rng.randint(1, 6))

    done = 0
    while done < 100:
        i, j = adj[rng.randrange(len(adj))]
        k_i = rng.randint(-20, 20)
        k_j = rng.randint(-20, 20)
        c = make_crossing(spec, LineId(i, k_i), LineId(j, k_j))
        if abs(c.point) > radius * 0.8:
            continue
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
        a = beyond(c, LineId(i, k_i), sa)
        b = beyond(c, LineId(j, k_j), sb)
        if scalar_product(c.point - a.point, b.point - c.point) < 0.0:
            b = beyond(c, LineId(j, k_j), -sb)
        if scalar_product(c.point - a.point, b.point - c.point) < 0.0:
            continue
        d_ab = graph.graph_distance(spec, a, b, cap)
        d_ac = graph.graph_distance(spec, a, c, cap)
        d_cb = graph.graph_distance(spec, c, b, cap)
        assert d_ab == d_ac + d_cb, \
            f"two-line additivity {d_ab} != {d_ac}+{d_cb} through {c.key}"
        done += 1
    return "100 straight-line + 100 two-line pairs, all exact"


def _interiors_overlap(pa: tuple[complex, ...], pb: tuple[complex, ...]) -> bool:
    for poly_a, poly_b in ((pa, pb), (pb, pa)):
        for k in range(4):
            axis = perp(poly_a[(k + 1) % 4] - poly_a[k])
            proj_a = [scalar_product(axis, p) for p in poly_a]
            proj_b = [scalar_product(axis, p) for p in poly_b]
            if (min(proj_a) >= max(proj_b) - 1e-9
                    or min(proj_b) >= max(proj_a) - 1e-9):
                return False
    return True


def check_edge_to_edge(spec: MultigridSpec, radius: float) -> str:
    """Unit-rhombus, pairwise-disjointness and edge-sharing audit of a window.

    Shared with the dual-module tests; margin 2 keeps the audit away from the
    window rim where partners of a tile may fall outside the window.
    """
    window = tiling_window(spec, radius)
    keys = list(window.keys())
    cycles = corner_cycles(window.corners, window.positions)
    for key, pts in zip(keys, cycles):
        for k in range(4):
            edge = pts[(k + 1) % 4] - pts[k]
            assert abs(abs(edge) - 1.0) < 1e-9, \
                f"tile {key} edge length {abs(edge)} != 1"

    centers: dict[tuple[int, int], list[int]] = {}
    for n, pts in enumerate(cycles):
        mid = sum(pts) / 4
        centers.setdefault((math.floor(mid.real / 2), math.floor(mid.imag / 2)),
                           []).append(n)
    pairs_checked = 0
    for (cx, cy), members in centers.items():
        neighborhood = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighborhood.extend(centers.get((cx + dx, cy + dy), ()))
        for n1 in members:
            p1 = cycles[n1]
            m1 = sum(p1) / 4
            for n2 in neighborhood:
                if keys[n2] <= keys[n1]:
                    continue
                p2 = cycles[n2]
                if abs(m1 - sum(p2) / 4) > 2.0:
                    continue
                pairs_checked += 1
                assert not _interiors_overlap(p1, p2), \
                    f"tiles {keys[n1]} and {keys[n2]} overlap"

    # edges as pairs of vertex indices: the vertex table holds each key once
    corners = window.corners
    edges = [frozenset((corners[q + k], corners[q + (k + 1) % 4]))
             for q in range(0, len(corners), 4) for k in range(4)]
    edge_count = Counter(edges)
    assert max(edge_count.values()) <= 2, "an edge is claimed by 3+ tiles"
    margin = 2.0
    for n, (x, y) in enumerate(crossing_pairs(spec, keys)):
        if abs(complex(x, y)) <= radius - margin:
            for edge in edges[4 * n:4 * n + 4]:
                assert edge_count[edge] == 2, \
                    f"interior edge of tile {keys[n]} shared {edge_count[edge]} times"
    return (f"{len(window)} tiles: unit rhombi, {pairs_checked} near pairs "
            f"disjoint, interior edges all shared by 2")


def crit_edge_to_edge() -> str:
    return check_edge_to_edge(PENTAGRID, 12.0)


def crit_corona_limit() -> str:
    target = analysis.tiling_char_polygon(PENTAGRID)
    details = []
    for spec in (PENTAGRID, random_offsets_pentagrid(3)):
        also = analysis.tiling_char_polygon(spec)
        assert also.vertices == target.vertices, \
            "tiling-side polygon must depend on directions only"
        seed = graph.Patch(frozenset([nearest_crossing(spec)]))
        rows = analysis.convergence_table(spec, seed, [10, 20, 40, 80], "tiling")
        h = {r.n: r.h for r in rows}
        assert h[80] < h[10], f"h_80 = {h[80]} not below h_10 = {h[10]}"
        assert h[80] <= 0.1, f"h_80 = {h[80]} > 0.1"
        details.append(f"h_10 = {h[10]:.4f} -> h_80 = {h[80]:.4f}")
    return "offsets 1/2: %s; random offsets: %s (same decagon)" % tuple(details)


def crit_square_grid_diamond() -> str:
    seed = make_crossing(SQUARE, LineId(0, 0), LineId(1, 0))
    patch = graph.Patch(frozenset([seed]))
    seq = graph.corona_sequence(SQUARE, patch, 50)
    sizes = seq.sizes()
    oracle = _lattice_ball_sizes(50)
    worst_nh = 0.0
    for n in range(51):
        expect = 2 * n * n + 2 * n + 1
        assert sizes[n] == expect == oracle[n], \
            f"|P_{n}| = {sizes[n]}, closed form {expect}, lattice BFS {oracle[n]}"
    for row in analysis.convergence_table(SQUARE, patch, range(1, 51), "multigrid", sequence=seq):
        worst_nh = max(worst_nh, row.n_times_h)
        assert row.n_times_h <= 2.0, f"n*h_n = {row.n_times_h} > 2 at n = {row.n}"
    return f"|P_n| exact for n <= 50; max n*h_n = {worst_nh:.3f} <= 2"


def _lattice_ball_sizes(n_max: int) -> list[int]:
    """Independent oracle: BFS ball sizes on the integer lattice."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    sizes = [1]
    for _ in range(n_max):
        nxt = []
        for x, y in frontier:
            for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def crit_endpoints_limit() -> str:
    seed = graph.Patch(frozenset([nearest_crossing(PENTAGRID)]))
    rows = analysis.endpoints_diagnostic(PENTAGRID, seed, [20, 80])
    h = {r.n: r.h for r in rows}
    nh = {r.n: r.n_times_h for r in rows}
    assert h[80] < h[20], f"h_80 = {h[80]} not below h_20 = {h[20]}"
    worst = max(nh.values())
    assert math.isfinite(worst) and worst <= 5.0, \
        f"sandwich constant n*h = {worst} not in sane range"
    return f"h_20 = {h[20]:.4f} -> h_80 = {h[80]:.4f}; max n*h = {worst:.3f}"


def crit_sandpile_corona() -> str:
    window = tiling_window(PENTAGRID, 14.0)
    at = nearest_crossing(PENTAGRID)
    config = sandpile.max_stable(window)
    total_before = config.total_grains() + 1
    final = sandpile.add_grain_and_topple(config, at, rounds=10)
    assert final.total_grains() == total_before, "grains were not conserved"
    seq = graph.corona_sequence(PENTAGRID, graph.Patch(frozenset([at])), 9)
    for n, toppled, corona, match in sandpile.corona_comparison(final, seq, 10):
        assert match, f"round {n}: toppled set ({toppled}) != corona P_{n-1} ({corona})"
    return f"rounds 1..10 match coronas P_0..P_9 exactly ({len(final.toppled_rounds)} topplings)"


def crit_singularity_detection() -> str:
    singular = MultigridSpec.dfold(5, 0.0)
    report = check_regular(singular, 1.0)
    assert not report.is_regular, "zero-offset pentagrid not flagged singular"
    at_origin = [s for s in report.singular_points if abs(s.point) < 1e-7]
    assert at_origin, "singularity at the origin not found"
    assert len({line.grid for line in at_origin[0].lines}) >= 3, \
        "origin singularity should involve 3+ grids"
    regular = check_regular(PENTAGRID, 20.0)
    assert regular.is_regular, \
        f"offsets-1/2 pentagrid flagged singular: {regular.singular_points[:3]}"
    return (f"zero offsets: singular at origin ({len(at_origin[0].lines)} lines); "
            f"offsets 1/2: regular over {regular.crossing_count} crossings")


# --------------------------------------------------------------------------
# runner

@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return (f"{self.status}  {self.number:>2}  {self.name:<28} "
                f"{self.elapsed * 1000:9.1f} ms / {self.budget * 1000:8.0f} ms  "
                f"{self.detail}")


CRITERIA: list[tuple[int, str, float, Callable[[], str]]] = [
    (1, "penrose-char-radii", 0.001, crit_penrose_char_radii),
    (2, "dualization-almost-linear", 1.0, crit_almost_linear),
    (3, "crossing-count-bound", 1.0, crit_crossing_count_bound),
    (4, "shortest-path-oracle", 30.0, crit_shortest_path_oracle),
    (5, "edge-to-edge-window", 10.0, crit_edge_to_edge),
    (6, "corona-limit-convergence", 60.0, crit_corona_limit),
    (7, "square-grid-diamond", 5.0, crit_square_grid_diamond),
    (8, "endpoints-limit-shape", 10.0, crit_endpoints_limit),
    (9, "sandpile-corona-equivalence", 10.0, crit_sandpile_corona),
    (10, "singularity-detection", 5.0, crit_singularity_detection),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, budget, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                detail = fn()
                elapsed = time.perf_counter() - start
                passed = elapsed < budget
                if not passed:
                    detail = f"over budget: {detail}"
                return CriterionResult(num, name, passed, elapsed, budget, detail)
            except AssertionError as exc:
                elapsed = time.perf_counter() - start
                return CriterionResult(num, name, False, elapsed, budget, str(exc))
    raise ValueError(f"no criterion {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _, _ in CRITERIA]
