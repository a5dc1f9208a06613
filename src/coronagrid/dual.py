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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable, Iterator

from .errors import OnGridLine, SingularMultigrid
from .geom import EPS_GEOM, scalar_product
from .multigrid import EPS_SINGULAR, Crossing, Key, MultigridSpec, window_keys


def vertex_position(spec: MultigridSpec, key: tuple[int, ...]) -> complex:
    """Position of the tiling vertex with this key: sum of key_i * normal_i."""
    return sum(map(mul, key, spec.normals))


def dual_vertex(spec: MultigridSpec, z: complex) -> tuple[int, ...]:
    """Key of the tiling vertex of the multigrid cell containing z: its
    ceiled levels (vertex_position gives the vertex's position).

    The map is constant on open cells; z on (or within EPS_GEOM of) a grid
    line raises OnGridLine, since the cell is ambiguous there.
    """
    key = []
    for i in range(spec.d):
        u = spec.level(i, z)
        if abs(u - round(u)) <= EPS_GEOM:
            raise OnGridLine(f"{z} lies on a grid-{i} line; offset it into a cell")
        key.append(math.ceil(u))
    return tuple(key)


def linear_dual(spec: MultigridSpec, z: complex) -> complex:
    """Linear companion of the dualization: sum of (z . normal_i) * normal_i.

    Uniformly within 2d of the true (cell-wise constant) dual map; being
    linear, it transports limit shapes from the multigrid to the tiling.
    """
    return sum(scalar_product(z, n) * n for n in spec.normals)


def corner_keys(spec: MultigridSpec, keys: Iterable[Key]) -> Iterator[tuple[int, ...]]:
    """Per crossing key, the four vertex keys of its dual rhombus, in boundary
    order (base, base + e_i, base + e_i + e_j, base + e_j): the cells around
    a crossing share every level but those of its own two lines, and the
    base cell lies on the negative side of both.  The point is solved from
    the spec's _pairs entry, as crossing_point solves it, and each other
    grid's level there from grid i's _rows entry.  A level u within
    EPS_SINGULAR of an integer raises SingularMultigrid, at the first such
    crossing and grid.  With f = floor(u), u - f or f + 1 - u is the float
    abs(u - round(u)) takes, and the other is at least 0.5, so the test
    decides as that form does; the vertex's level is f + 1 = ceil(u).
    """
    rows, _, pairs = spec._kernel_tables()
    floor = math.floor
    d = spec.d
    for key in keys:
        i, ki, j, kj = key
        det, (ax, ay, ga), (bx, by, gb), _, _, _ = pairs[i, j]
        ra, rb = ga + ki, gb + kj
        x = (ra * by - rb * ay) / det
        y = (ax * rb - bx * ra) / det
        base = [ki] * d
        for nx, ny, g, _, _, l in rows[i]:
            if l == j:
                base[l] = kj
                continue
            u = x * nx + y * ny - g
            f = floor(u)
            if u - f <= EPS_SINGULAR or f + 1 - u <= EPS_SINGULAR:
                raise SingularMultigrid(f"a grid-{l} line passes through crossing {key}")
            base[l] = f + 1
        yield tuple(base)
        base[i] += 1
        yield tuple(base)
        base[j] += 1
        yield tuple(base)
        base[i] -= 1
        yield tuple(base)


def corner_tables(
    spec: MultigridSpec, keys: Iterable[Key],
) -> tuple[list[int], list[tuple[int, ...]], list[complex]]:
    """The corners of the rhombi dual to the crossings with these keys, as
    tables: ``corners[4n:4n + 4]`` index tile n's corner_keys, into the
    distinct vertex keys, in order of first use, and their positions, each
    vertex_position computed once however many tiles share it.
    """
    pool: dict[tuple[int, ...], int] = {}   # vertex key -> its index
    index = pool.setdefault
    corners = [index(vertex, len(pool)) for vertex in corner_keys(spec, keys)]
    vertex_keys = list(pool)
    normals = spec.normals
    return corners, vertex_keys, [sum(map(mul, key, normals)) for key in vertex_keys]


def corner_cycles(corners: list[int], positions: list[complex]) -> list[tuple[complex, ...]]:
    """Per tile of corner_tables' tables, its four corner points in boundary order."""
    points = [positions[m] for m in corners]
    return [tuple(points[q:q + 4]) for q in range(0, len(points), 4)]


def tile_of_crossing(
    spec: MultigridSpec, crossing: Crossing,
) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """The rhombus dual to a crossing: its four corners as (vertex key,
    position) pairs, in corner_tables' boundary order."""
    corners, keys, positions = corner_tables(spec, [crossing.key])
    return tuple((keys[m], positions[m]) for m in corners)


@dataclass
class TilingWindow:
    """All tiles dual to crossings within `radius` of the origin, as packed
    tables.

    Tile n is dual to the crossing with key ``key(n)``; the tiles are in
    ascending key order, as window_keys lists them, so ``keys()`` iterates
    the keys sorted and ``index(key)`` finds a key's tile by binary search.
    ``corners[4n:4n + 4]`` index tile n's corners, in corner_tables'
    boundary order, into the vertex table: ``vertex_keys()`` iterates the
    vertex keys, and vertex m lies at ``positions[m]``.  The keys (4 ints
    per tile), the corners and the vertex keys (d ints per vertex) are flat
    array('q') tables, and only this class reads the key layouts: with the
    positions, a radius-30 pentagrid window holds about 149 B per tile.
    The tile set is crossing-ball shaped (selected by crossing position),
    matching the graph exploration, so vertex positions may exceed the
    nominal radius by the linear-dual stretch factor.  Immutable by
    convention once built.  The writers, the scene, the sandpile and the
    edge-to-edge audit read the tables.
    """

    spec: MultigridSpec
    radius: float
    _keys: array
    corners: array
    _vertex_keys: array
    positions: list[complex]

    def __len__(self) -> int:
        return len(self._keys) // 4

    def key(self, n: int) -> Key:
        """The key of tile n's crossing."""
        k, q = self._keys, 4 * n
        return k[q], k[q + 1], k[q + 2], k[q + 3]

    def keys(self) -> Iterator[Key]:
        """The tiles' crossing keys, in tile order."""
        return zip(*[iter(self._keys)] * 4)

    def index(self, key: Key) -> int:
        """The tile of the crossing with this key; ValueError if none."""
        pos = bisect_left(range(len(self)), key, key=self.key)
        if pos == len(self) or self.key(pos) != key:
            raise ValueError(f"{key} is not a window tile")
        return pos

    def vertex_keys(self) -> Iterator[tuple[int, ...]]:
        """The vertex keys, in vertex order."""
        return zip(*[iter(self._vertex_keys)] * self.spec.d)


def tiling_window(spec: MultigridSpec, radius: float) -> TilingWindow:
    """The dual-tiling window over all crossings with |point| <= radius.

    The crossing keys come straight from the window's lines (window_keys),
    already in key order, and one corner_tables pass gives every tile's
    corners, so each vertex is positioned once and no Crossing is built;
    the tables are then packed once.  Raises ValidationError and
    ResourceLimit as window_keys does, and SingularMultigrid if any crossing
    in the window has a third line within EPS_SINGULAR.
    """
    keys = window_keys(spec, radius)
    packed = array("q", chain.from_iterable(keys))
    del keys   # the list of key tuples is the largest table: free it first
    corners, vertex_keys, positions = corner_tables(spec, zip(*[iter(packed)] * 4))
    return TilingWindow(spec, radius, packed, array("q", corners),
                        array("q", chain.from_iterable(vertex_keys)), positions)
