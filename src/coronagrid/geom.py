"""Planar primitives shared by every other module.

Points are plain complex numbers: the plane is identified with the complex
numbers, ``perp(z) == 1j*z`` is the counterclockwise quarter turn, and the
scalar product of two points is the real dot product of their coordinates.

Convex polygons are the only polygon class supported.  They are stored in
canonical form (counterclockwise, starting at the vertex of smallest polar
angle) so that equality tests and rendered artifacts are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateInput, NonPositiveRatio

# Point equality / hull collinearity tolerance.  Coordinates stay O(1e4), so
# doubles leave > 6 orders of magnitude of headroom above this.
EPS_GEOM = 1e-9


def perp(z: complex) -> complex:
    """Counterclockwise quarter turn of z."""
    return 1j * z


def scalar_product(a: complex, b: complex) -> float:
    """Real dot product a.re*b.re + a.im*b.im."""
    return a.real * b.real + a.imag * b.imag


def cross(a: complex, b: complex) -> float:
    """2D cross product; equals scalar_product(perp(a), b)."""
    return a.real * b.imag - a.imag * b.real


def _arg2pi(z: complex) -> float:
    a = math.atan2(z.imag, z.real)
    return a + 2.0 * math.pi if a < 0.0 else a


@dataclass(frozen=True)
class Polygon:
    """Convex polygon, counterclockwise, canonical start vertex.

    Construct through :func:`convex_hull` (arbitrary point sets) or
    :func:`from_convex_vertices` (vertices already known to be convex).
    """

    vertices: tuple[complex, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise DegenerateInput("polygon needs at least 3 vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[complex, complex]]:
        v = self.vertices
        return [(v[k], v[(k + 1) % len(v)]) for k in range(len(v))]


def _canonical_start(vertices: Sequence[complex]) -> tuple[complex, ...]:
    start = min(range(len(vertices)),
                key=lambda k: (_arg2pi(vertices[k]), abs(vertices[k]),
                               vertices[k].real, vertices[k].imag))
    return tuple(vertices[start:]) + tuple(vertices[:start])


def from_convex_vertices(vertices: Iterable[complex]) -> Polygon:
    """Wrap an already-convex CCW vertex cycle in canonical form.

    Verifies convexity (left turns within tolerance) and rejects repeated
    vertices; use convex_hull when the input is an arbitrary point cloud.
    """
    vs = list(vertices)
    if len(vs) < 3:
        raise DegenerateInput("polygon needs at least 3 vertices")
    n = len(vs)
    for k in range(n):
        a, b, c = vs[k], vs[(k + 1) % n], vs[(k + 2) % n]
        if abs(b - a) <= EPS_GEOM:
            raise DegenerateInput("repeated vertex")
        if cross(b - a, c - b) < -EPS_GEOM * max(1.0, abs(b - a) * abs(c - b)):
            raise DegenerateInput("vertex cycle is not convex counterclockwise")
    return Polygon(_canonical_start(vs))


def hull_chain(points: Iterable[complex]) -> list[complex]:
    """Convex hull as a CCW vertex list; may be degenerate (1 or 2 points).

    Andrew's monotone chain with an EPS_GEOM collinearity threshold:
    collinear interior points are dropped, so the result is strictly convex.
    """
    pts = sorted(set((p.real, p.imag) for p in points))
    pts = [complex(x, y) for x, y in pts]
    if len(pts) == 1:
        return pts
    if len(pts) == 2:
        return pts

    def chain(seq):
        out: list[complex] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-1] - out[-2], p - out[-1]) <= EPS_GEOM:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and abs(hull[0] - hull[1]) <= EPS_GEOM:
        return hull[:1]
    return hull


def convex_hull(points: Iterable[complex]) -> Polygon:
    """Minimal convex polygon containing the points, canonical CCW order.

    Raises DegenerateInput when the points are all (nearly) collinear.
    """
    hull = hull_chain(points)
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return Polygon(_canonical_start(hull))


def scale_polygon(p: Polygon, ratio: float, center: complex = 0j) -> Polygon:
    """Homothety of the polygon: v -> center + ratio*(v - center)."""
    if ratio <= 0.0:
        raise NonPositiveRatio(f"ratio must be > 0, got {ratio}")
    return Polygon(_canonical_start([center + ratio * (v - center) for v in p.vertices]))


def _dist_point_segment(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    den = scalar_product(ab, ab)
    if den <= EPS_GEOM * EPS_GEOM:
        return abs(p - a)
    t = scalar_product(p - a, ab) / den
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return abs(p - (a + t * ab))


def dist_point_convex(p: complex, vertices: Sequence[complex]) -> float:
    """Distance from p to the filled convex set spanned by the vertices.

    Accepts degenerate sets: one vertex (a point) or two (a segment).
    """
    n = len(vertices)
    if n == 0:
        raise DegenerateInput("empty vertex set")
    if n == 1:
        return abs(p - vertices[0])
    if n == 2:
        return _dist_point_segment(p, vertices[0], vertices[1])
    inside = True
    for k in range(n):
        a, b = vertices[k], vertices[(k + 1) % n]
        if cross(b - a, p - a) < -EPS_GEOM:
            inside = False
            break
    if inside:
        return 0.0
    return min(_dist_point_segment(p, vertices[k], vertices[(k + 1) % n])
               for k in range(n))


def hausdorff_between(va: Sequence[complex], vb: Sequence[complex]) -> float:
    """Hausdorff distance between two filled convex sets given by hull vertices.

    Exact for convex sets: the directed distance sup is attained at an extreme
    point, so scanning vertices suffices.  Degenerate sets (point, segment)
    are allowed.
    """
    d_ab = max(dist_point_convex(v, vb) for v in va)
    d_ba = max(dist_point_convex(v, va) for v in vb)
    return max(d_ab, d_ba)


def hausdorff_distance(a: Polygon, b: Polygon) -> float:
    """Symmetric Hausdorff distance between two convex polygons (filled)."""
    return hausdorff_between(a.vertices, b.vertices)


def polygon_gauge(poly: Polygon, p: complex) -> float:
    """Minkowski gauge of p: the least t >= 0 with p inside t*poly.

    Requires the origin strictly inside the polygon (true for characteristic
    polygons, which are centrally symmetric).
    """
    best = 0.0
    for a, b in poly.edges():
        den = cross(a, b)
        if den <= EPS_GEOM:
            raise DegenerateInput("origin not strictly inside polygon")
        t = cross(a - b, p) / den
        if t > best:
            best = t
    return best
