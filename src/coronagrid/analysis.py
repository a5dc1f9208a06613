"""Characteristic polygons and empirical convergence of normalized coronas.

The growth speed of coronas along an i-line is the average spacing of
crossings on it, i.e. the inverse of the summed crossing frequencies
|perp(normal_i) . normal_j|.  Those speeds give a centrally symmetric
2d-gon (one vertex pair per direction), the characteristic polygon of the
multigrid side; pushing its vertices through the linear dual map gives the
tiling-side polygon.  This module computes both and measures how fast
normalized coronas and endpoint hulls approach them in Hausdorff distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterable, Literal, Sequence

from . import geom
from .dual import linear_dual, tile_corner_keys, vertex_position
from .errors import GridNotRepresented, ValidationError
from .geom import Polygon, from_convex_vertices, hull_chain, perp
from .graph import CoronaSequence, Patch, bfs_layers, corona_sequence, neighbors
from .multigrid import (
    Crossing,
    DominantLines,
    MultigridSpec,
    dominant_lines,
    endpoints,
    enumerate_crossings,
)

Side = Literal["multigrid", "tiling"]


@dataclass(frozen=True)
class CharPolygon:
    """Characteristic 2d-gon of a multigrid (or of its dual tiling).

    radii[i] is the growth speed along direction i; vertices come in
    opposite pairs and are stored sorted by polar angle, so the polygon is
    convex and centrally symmetric by construction.
    """

    side: Side
    radii: tuple[float, ...]
    vertices: tuple[complex, ...]

    @property
    def polygon(self) -> Polygon:
        return from_convex_vertices(self.vertices)

    def scaled_vertices(self, factor: float) -> list[complex]:
        return [factor * v for v in self.vertices]


def _sorted_by_angle(vertices: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted(vertices,
                        key=lambda v: math.atan2(v.imag, v.real) % (2 * math.pi)))


def line_spacing(spec: MultigridSpec, i: int) -> float:
    """Average spacing of crossings along an i-line: 1 / sum_j |cross(i, j)|."""
    total = sum(abs(spec.cross(i, j)) for j in range(spec.d) if j != i)
    return 1.0 / total


def grid_char_polygon(spec: MultigridSpec) -> CharPolygon:
    """Characteristic polygon on the multigrid side.

    Vertex pair for direction i: +- spacing_i * perp(normal_i).  Depends on
    the normals only, never on the offsets.
    """
    radii = tuple(line_spacing(spec, i) for i in range(spec.d))
    verts = []
    for i in range(spec.d):
        v = radii[i] * perp(spec.normals[i])
        verts.extend((v, -v))
    return CharPolygon("multigrid", radii, _sorted_by_angle(verts))


def tiling_char_polygon(spec: MultigridSpec) -> CharPolygon:
    """Characteristic polygon of the dual tiling: the linear dual image of
    the multigrid-side polygon's vertices."""
    grid_side = grid_char_polygon(spec)
    verts = []
    radii = []
    for i in range(spec.d):
        w = linear_dual(spec, grid_side.radii[i] * perp(spec.normals[i]))
        radii.append(abs(w))
        verts.extend((w, -w))
    return CharPolygon("tiling", tuple(radii), _sorted_by_angle(verts))


def char_polygon(spec: MultigridSpec, side: Side) -> CharPolygon:
    return grid_char_polygon(spec) if side == "multigrid" else tiling_char_polygon(spec)


def shape_points(spec: MultigridSpec, crossings: Iterable[Crossing],
                 side: Side) -> list[complex]:
    """The point cloud a corona occupies: crossing points on the multigrid
    side, the distinct dual-tile corners on the tiling side."""
    if side == "multigrid":
        return [c.point for c in crossings]
    corners = {key for c in crossings for key in tile_corner_keys(spec, c)}
    return [vertex_position(spec, key) for key in corners]


def normalized_shape(spec: MultigridSpec, crossings: Iterable[Crossing],
                     n: int, side: Side) -> Polygon:
    """Convex hull of the corona's points, shrunk by 1/n about the origin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hull = geom.convex_hull(shape_points(spec, crossings, side))
    return geom.scale_polygon(hull, 1.0 / n)


@dataclass(frozen=True)
class ConvergenceRow:
    """One measured corona: hull of P_n scaled by 1/n vs the target polygon."""

    n: int
    side: Side
    hull: Polygon
    h: float

    @property
    def n_times_h(self) -> float:
        return self.n * self.h

    @property
    def hull_vertices(self) -> int:
        return self.hull.n


def convergence_table(
    spec: MultigridSpec,
    patch: Patch,
    ns: Sequence[int],
    side: Side,
    sequence: CoronaSequence | None = None,
) -> list[ConvergenceRow]:
    """Hausdorff distance of hull(P_n)/n to the characteristic polygon, per n.

    A single corona run to max(ns) backs all rows; pass `sequence` to reuse
    an existing run.  The hull is grown frontier by frontier,
    hull(P_n) = hull(hull(P_{n-1}) + F_n), so each crossing's points are
    taken once.
    """
    ns = sorted(ns)
    if not ns or ns[0] < 1:
        raise ValidationError("ns must be nonempty with n >= 1")
    target = char_polygon(spec, side).polygon
    seq = sequence or corona_sequence(spec, patch, ns[-1])
    if ns[-1] > seq.n_max:
        raise IndexError(f"corona index {ns[-1]} not in [0, {seq.n_max}]")
    rows = []
    chain: list[complex] = []
    for n, frontier in enumerate(seq.frontiers[:ns[-1] + 1]):
        chain = hull_chain(chain + shape_points(spec, frontier, side))
        for _ in range(ns.count(n)):
            hull = geom.scale_polygon(geom.convex_hull(chain), 1.0 / n)
            h = geom.hausdorff_distance(hull, target)
            rows.append(ConvergenceRow(n, side, hull, h))
    return rows


def grow_until_dominant(
    spec: MultigridSpec, patch: Patch, max_steps: int = 64,
) -> tuple[Patch, DominantLines, int]:
    """Grow the patch by corona steps until every grid direction has a line
    through it, then choose dominant lines.  Returns (patch, lines, steps)."""
    layers = bfs_layers(patch.crossings, partial(neighbors, spec))
    ball: frozenset[Crossing] = frozenset()
    for steps, layer in enumerate(islice(layers, max_steps + 1)):
        ball |= layer
        try:
            return Patch(ball), dominant_lines(spec, ball), steps
        except GridNotRepresented:
            continue
    raise GridNotRepresented(tuple(range(spec.d)))


@dataclass(frozen=True)
class EndpointRow:
    n: int
    h: float

    @property
    def n_times_h(self) -> float:
        return max(self.n, 1) * self.h


def endpoints_diagnostic(
    spec: MultigridSpec, patch: Patch, ns: Sequence[int],
) -> list[EndpointRow]:
    """Hausdorff distance of the normalized endpoint hull to the
    multigrid-side characteristic polygon, per n.

    The patch is auto-grown until it meets a line of every direction.  The
    2d endpoints may be degenerate (n = 0 on a tiny patch gives a single
    point); the hull and the distance still make sense, so rows never fail.
    Normalization divides by max(n, 1) so the n = 0 row is the raw hull.
    """
    patch, lines, _ = grow_until_dominant(spec, patch)
    target = grid_char_polygon(spec).polygon
    rows = []
    for n in sorted(ns):
        pts = endpoints(spec, lines, patch.crossings, n).points()
        scale = max(n, 1)
        chain = hull_chain([p / scale for p in pts])
        h = geom.hausdorff_between(chain, target.vertices)
        rows.append(EndpointRow(n, h))
    return rows


@dataclass(frozen=True)
class SandwichRow:
    """Inner/outer deviation of a corona from n * charpolygon (gauge units).

    outer: largest gauge excess of a corona point beyond n.
    inner: n minus the largest level t such that every multigrid crossing of
    gauge <= t belongs to the corona.
    """

    n: int
    outer: float
    inner: float

    @property
    def deviation(self) -> float:
        return max(self.outer, self.inner)


def corona_sandwich(
    spec: MultigridSpec, seq: CoronaSequence, ns: Sequence[int],
) -> list[SandwichRow]:
    """Measure how tightly coronas are sandwiched between scaled copies of
    the multigrid-side characteristic polygon."""
    target = grid_char_polygon(spec).polygon
    rows = []
    for n in sorted(ns):
        corona = seq.corona(n)
        gauges = [geom.polygon_gauge(target, c.point) for c in corona]
        outer = max(g - n for g in gauges)
        radius = max(abs(c.point) for c in corona) + 1.0
        missing = [geom.polygon_gauge(target, c.point)
                   for c in enumerate_crossings(spec, radius)
                   if c not in corona]
        inner = n - min(missing) if missing else 0.0
        rows.append(SandwichRow(n, outer, inner))
    return rows
