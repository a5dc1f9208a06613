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

import itertools
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import mul
from typing import Iterable, Literal, Sequence

from . import geom
from .dual import corner_keys, linear_dual
from .errors import GridNotRepresented, ResourceLimit, ValidationError
from .geom import hull_chain, hull_chain_xy, perp
from .graph import CoronaSequence, Patch, corona_layers
from .multigrid import (CAP_ENV, Key, LineId, MultigridSpec, crossing_pairs, crossing_point,
                        default_crossing_cap, dominant_lines, line_crossings)

Side = Literal["multigrid", "tiling"]


def _dominant_steps(d: int) -> int:
    """Corona steps grow_until_dominant takes before it gives up: a d-fold
    multigrid needs about d/2 from its nearest crossing."""
    return max(64, d)


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


@dataclass(frozen=True)
class ConvergenceRow:
    """One measured corona: h is the Hausdorff distance of hull(P_n)/n to
    the target polygon, and hull_vertices the vertex count of hull(P_n)."""

    n: int
    side: Side
    hull_vertices: int
    h: float

    @property
    def n_times_h(self) -> float:
        return self.n * self.h


def convergence_table(
    spec: MultigridSpec,
    patch: Patch,
    ns: Sequence[int],
    side: Side,
    sequence: CoronaSequence | None = None,
) -> list[ConvergenceRow]:
    """Hausdorff distance of hull(P_n)/n to the characteristic polygon, per n.

    The hull is grown frontier by frontier, hull(P_n) = hull(hull(P_{n-1})
    + F_n), so each crossing's points are taken once, from its key: no
    Crossing is built.  The points are the crossings on the multigrid side
    and every distinct corner_keys vertex of each frontier on the tiling
    side (hull rows depend on the redundant points fed).  A vertex belongs
    to two or three consecutive frontiers, so its position, once computed,
    is taken from the last frontier's map by key.  The chain is kept as
    (x, y) pairs; row n scales its vertices by 1/n and measures them with
    hausdorff_between.  A side other than 'multigrid' or 'tiling' raises
    ValidationError before any growth.  Without `sequence`, the
    layers are streamed from corona_layers to max(ns) and dropped once
    read, so the table holds the frontier, not the ball; a refusal of
    layer k's points then comes before any growth refusal or crossing cap
    beyond layer k.  Pass `sequence` to read an existing run's layers
    instead.
    """
    ns = sorted(ns)
    if not ns or ns[0] < 1:
        raise ValidationError("ns must be nonempty with n >= 1")
    if side not in ("multigrid", "tiling"):
        raise ValidationError(f"side must be 'multigrid' or 'tiling', got {side!r}")
    target = (grid_char_polygon(spec) if side == "multigrid" else
              tiling_char_polygon(spec)).vertices
    if sequence is None:
        layers: Iterable[Iterable[Key]] = corona_layers(spec, patch, ns[-1])
    elif ns[-1] > sequence.n_max:
        raise IndexError(f"corona index {ns[-1]} not in [0, {sequence.n_max}]")
    else:
        layers = map(sequence.layer, range(ns[-1] + 1))
    normals = spec.normals
    rows = []
    chain: list[tuple[float, float]] = []
    # the last frontier's corners: vertex key -> position as an (x, y) pair
    positions: dict[tuple[int, ...], tuple[float, float]] = {}
    for n, layer in enumerate(layers):
        if side == "multigrid":
            points: Iterable[tuple[float, float]] = crossing_pairs(spec, layer)
        else:
            current = dict.fromkeys(corner_keys(spec, layer))
            for vertex in current:
                xy = positions.get(vertex)
                if xy is None:
                    z = sum(map(mul, vertex, normals))
                    xy = z.real, z.imag
                current[vertex] = xy
            positions = current
            points = current.values()
        chain = hull_chain_xy(itertools.chain(chain, points))
        for _ in range(ns.count(n)):
            h = geom.hausdorff_between([(1.0 / n) * complex(x, y) for x, y in chain], target)
            rows.append(ConvergenceRow(n, side, len(chain), h))
    return rows


def grow_until_dominant(
    spec: MultigridSpec, patch: Patch,
) -> tuple[frozenset[Key], tuple[LineId, ...], int]:
    """Grow the patch's keys by corona steps until every grid direction has a
    line through them, then choose dominant lines.  Returns (keys, lines, steps).

    Raises GridNotRepresented, naming the grids still missing, after
    _dominant_steps(d) steps, and ResourceLimit as corona_layers does.  The
    grids met so far are tracked layer by layer, so each key is read once
    before the lines are chosen.
    """
    ball: set[Key] = set()
    seen: set[int] = set()
    for steps, layer in enumerate(corona_layers(spec, patch, _dominant_steps(spec.d))):
        ball |= layer
        for i, _, j, _ in layer:
            seen.add(i)
            seen.add(j)
        if len(seen) == spec.d:
            return frozenset(ball), dominant_lines(spec, ball), steps
    raise GridNotRepresented(tuple(g for g in range(spec.d) if g not in seen))


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

    The patch is grown until it meets a line of every direction.  Each
    dominant line is walked once per direction, to max(ns), from the grown
    patch's crossing of largest (+1) and smallest (-1) parameter; step n
    gives the 2d endpoints of row n.  Rows divide by max(n, 1), so the n = 0
    row is the raw hull, which may be a single point.  Raises ResourceLimit
    first when the walks would pass more crossings than the crossing cap,
    and when the growth passes it.
    """
    ns = sorted(ns)
    if not ns or ns[0] < 0:
        raise ValidationError("ns must be nonempty with n >= 0")
    cap = default_crossing_cap()
    if 2 * spec.d * ns[-1] > cap:
        raise ResourceLimit(f"the endpoint walks would exceed {cap} crossings (set ${CAP_ENV})")
    ball, lines, _ = grow_until_dominant(spec, patch)
    on_line: dict[tuple[int, int], list[Key]] = {line: [] for line in lines}
    for key in ball:
        for line in (key[:2], key[2:]):
            if line in on_line:
                on_line[line].append(key)
    wanted = set(ns)
    walks = []   # per dominant line and direction, the point at each n in ns
    for line in lines:
        by_t = sorted((crossing_point(spec, (i, ki), (j, kj)) for i, ki, j, kj in on_line[line]),
                      key=partial(spec.line_parameter, line))
        for start, direction in ((by_t[-1], +1), (by_t[0], -1)):
            steps = line_crossings(spec, line, spec.line_parameter(line, start), direction)
            walk = {0: start}
            for n, (_, j, m) in enumerate(islice(steps, ns[-1]), 1):
                if n in wanted:
                    walk[n] = crossing_point(spec, line, (j, m))
            walks.append(walk)
    target = grid_char_polygon(spec).vertices
    chains = ((n, hull_chain([walk[n] / max(n, 1) for walk in walks])) for n in ns)
    return [EndpointRow(n, geom.hausdorff_between(chain, target)) for n, chain in chains]
