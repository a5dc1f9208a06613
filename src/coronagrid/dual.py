"""Dualization: from multigrid crossings to an edge-to-edge rhombus tiling.

Each open cell of the multigrid maps to one tiling vertex: the vertex's
integer key is the ceiled level vector of any point in the cell, and its
position is the key contracted against the grid normals.  Each crossing of
two lines is surrounded by four cells whose vertices form a unit rhombus
with edges along the two normals; that rhombus is the crossing's dual tile.

The key vector is the canonical vertex identity: deduplication is exact
integer comparison, immune to floating point accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import OnGridLine, SingularMultigrid
from .geom import EPS_GEOM, scalar_product
from .multigrid import EPS_SINGULAR, Crossing, Key, MultigridSpec, enumerate_crossings


@dataclass(frozen=True, slots=True)
class TilingVertex:
    """Vertex of the dual tiling: integer key vector plus cached position."""

    key: tuple[int, ...]
    position: complex

    @staticmethod
    def from_key(spec: MultigridSpec, key: tuple[int, ...]) -> "TilingVertex":
        return TilingVertex(key, vertex_position(spec, key))


def vertex_position(spec: MultigridSpec, key: tuple[int, ...]) -> complex:
    """Position of the tiling vertex with this key: sum of key_i * normal_i."""
    return sum(map(mul, key, spec.normals))


def dual_vertex(spec: MultigridSpec, z: complex) -> TilingVertex:
    """Tiling vertex of the multigrid cell containing z (key = ceiled levels).

    The map is constant on open cells; z on (or within EPS_GEOM of) a grid
    line raises OnGridLine, since the cell is ambiguous there.
    """
    key = []
    for i in range(spec.d):
        u = spec.level(i, z)
        if abs(u - round(u)) <= EPS_GEOM:
            raise OnGridLine(f"{z} lies on a grid-{i} line; offset it into a cell")
        key.append(math.ceil(u))
    return TilingVertex.from_key(spec, tuple(key))


def linear_dual(spec: MultigridSpec, z: complex) -> complex:
    """Linear companion of the dualization: sum of (z . normal_i) * normal_i.

    Uniformly within 2d of the true (cell-wise constant) dual map; being
    linear, it transports limit shapes from the multigrid to the tiling.
    """
    return sum(scalar_product(z, n) * n for n in spec.normals)


@dataclass(frozen=True, slots=True)
class Tile:
    """Unit rhombus dual to one crossing.

    ``corners`` walks the boundary: base, base + normal_i, base + both,
    base + normal_j, where (i, j) are the crossing's grid families.  All
    four corner keys differ from the base key only by +1 in slots i and j.
    """

    crossing: Crossing
    corners: tuple[TilingVertex, TilingVertex, TilingVertex, TilingVertex]

    @property
    def corner_points(self) -> tuple[complex, complex, complex, complex]:
        return tuple(v.position for v in self.corners)

    def edge_keys(self) -> list[frozenset]:
        """The 4 boundary edges as unordered pairs of corner keys."""
        c = self.corners
        return [frozenset((c[k].key, c[(k + 1) % 4].key)) for k in range(4)]


def tile_corner_keys(
    spec: MultigridSpec, key: Key, point: complex,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Corner keys of the rhombus dual to the crossing with this key and
    point, in boundary order: base, base + e_i, base + e_i + e_j, base + e_j.

    The four cells around the crossing share all grid levels except on the
    crossing's own two lines, where they straddle the integer exactly at the
    line index; the base cell is the one on the negative side of both lines.
    The other levels are MultigridSpec.level, read from the spec's per-grid
    level table.  A third line passing within EPS_SINGULAR of the crossing
    makes the cell assignment unreliable and raises SingularMultigrid.
    """
    i, ki, j, kj = key
    x, y = point.real, point.imag
    ceil = math.ceil
    base = []
    for l, (re, im, offset) in enumerate(spec._levels):
        if l == i:
            base.append(ki)
        elif l == j:
            base.append(kj)
        else:
            u = x * re + y * im - offset
            if abs(u - round(u)) <= EPS_SINGULAR:
                raise SingularMultigrid(f"a grid-{l} line passes through crossing {key}")
            base.append(ceil(u))
    corners = [tuple(base)]
    base[i] += 1
    corners.append(tuple(base))
    base[j] += 1
    corners.append(tuple(base))
    base[i] -= 1
    corners.append(tuple(base))
    return tuple(corners)


def tile_of_crossing(spec: MultigridSpec, crossing: Crossing) -> Tile:
    """Build the rhombus dual to a crossing (corners as in tile_corner_keys)."""
    corners = tuple(TilingVertex.from_key(spec, key)
                    for key in tile_corner_keys(spec, crossing.key, crossing.point))
    return Tile(crossing, corners)


@dataclass
class TilingWindow:
    """All tiles dual to crossings within `radius` of the origin.

    Immutable by convention once built.  The tile set is crossing-ball
    shaped (selected by crossing position), matching the graph exploration,
    so vertex positions may exceed the nominal radius by the linear-dual
    stretch factor.
    """

    spec: MultigridSpec
    radius: float
    tiles: dict[Crossing, Tile]

    def __len__(self) -> int:
        return len(self.tiles)

    def crossings(self) -> list[Crossing]:
        return sorted(self.tiles, key=lambda c: c.key)


def tiling_window(spec: MultigridSpec, radius: float) -> TilingWindow:
    """Extract the dual-tiling window over all crossings with |point| <= radius.

    Vertices are deduplicated by key: each corner key is looked up in the
    vertex pool first, so every vertex is built once and shared by the tiles
    around it.  Raises SingularMultigrid if any crossing in the window has a
    third line within EPS_SINGULAR.
    """
    vertex_pool: dict[tuple[int, ...], TilingVertex] = {}
    tiles: dict[Crossing, Tile] = {}
    for c in enumerate_crossings(spec, radius):
        corners = []
        for key in tile_corner_keys(spec, c.key, c.point):
            vertex = vertex_pool.get(key)
            if vertex is None:
                vertex = vertex_pool[key] = TilingVertex.from_key(spec, key)
            corners.append(vertex)
        tiles[c] = Tile(c, tuple(corners))
    return TilingWindow(spec, radius, tiles)
