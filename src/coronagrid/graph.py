"""The multigrid as an infinite graph, explored lazily.

Vertices are crossings; two crossings are adjacent when they are consecutive
along a common grid line.  Nothing is ever materialized beyond the explored
region: neighbor generation solves, per other grid, for the next integer
level in closed form, so each neighbor costs O(d) regardless of how far the
walk has drifted from the origin.

The same graph is the tile-adjacency graph of the dual rhombus tiling, which
is why coronas computed here are tiling coronas as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import DisconnectedPatch, ResourceLimit, Unreachable
from .multigrid import Crossing, LineId, MultigridSpec, crossing_point, line_step_keys, make_crossing

_CAP_ENV = "CORONAGRID_MAX_CROSSINGS"

Node = TypeVar("Node", bound=Hashable)
Key = tuple[int, int, int, int]


def default_crossing_cap() -> int:
    return int(os.environ.get(_CAP_ENV, 2_000_000))


def neighbor_keys(spec: MultigridSpec, key: Key) -> tuple[Key, Key, Key, Key]:
    """Keys of the 4 crossings adjacent to the crossing with this key: the
    next crossing along each of its lines, both ways (line a then line b,
    direction +1 then -1).

    A regular multigrid is infinite in every direction, so there are always
    exactly 4.  Raises SingularMultigrid if consecutive-crossing order is
    numerically unreliable near the crossing.
    """
    i, ki, j, kj = key
    return line_step_keys(spec, i, ki, j, kj) + line_step_keys(spec, j, kj, i, ki)


def neighbors(spec: MultigridSpec, c: Crossing) -> list[Crossing]:
    """The 4 adjacent crossings, in the order of neighbor_keys."""
    return [make_crossing(spec, LineId(i, ki), LineId(j, kj))
            for i, ki, j, kj in neighbor_keys(spec, c.key)]


@dataclass(frozen=True)
class Patch:
    """Finite, connected set of crossings.  Build with make_patch, which
    validates connectivity; internal growth paths construct directly since
    a superset grown by adjacency stays connected."""

    crossings: frozenset[Crossing]

    def __len__(self) -> int:
        return len(self.crossings)

    def __iter__(self):
        return iter(self.crossings)

    def points(self) -> list[complex]:
        return [c.point for c in self.crossings]


def bfs_layers(
    sources: Iterable[Node], neighbors_of: Callable[[Node], Iterable[Node]],
) -> Iterator[frozenset[Node]]:
    """Yield the nodes at graph distance 0, 1, 2, ... from `sources`.

    Every consumer of breadth-first search in the package reads this one
    generator.  It holds only the previous, current and next layer and no
    visited set: in an undirected graph a layer-n node's neighbors all lie
    in layers n-1, n and n+1.  A layer is computed only when asked for, and
    the walk ends after the last nonempty layer of a finite graph.
    """
    previous: frozenset[Node] = frozenset()
    current = frozenset(sources)
    while current:
        yield current
        nxt: set[Node] = set()
        for node in current:
            nxt.update(neighbors_of(node))
        nxt -= current
        nxt -= previous
        previous, current = current, frozenset(nxt)


def make_patch(spec: MultigridSpec, crossings: Iterable[Crossing]) -> Patch:
    """Validating Patch constructor: the set must be connected in the graph."""
    cs = frozenset(crossings)
    if not cs:
        raise DisconnectedPatch("patch must be nonempty")

    def inside(c: Crossing) -> list[Crossing]:
        return [nb for nb in neighbors(spec, c) if nb in cs]

    reached = sum(len(layer) for layer in bfs_layers([next(iter(cs))], inside))
    if reached != len(cs):
        raise DisconnectedPatch(
            f"patch has {len(cs)} crossings but only {reached} reachable")
    return Patch(cs)


def corona_step(spec: MultigridSpec, patch: Patch) -> Patch:
    """One growth step: the patch plus every crossing adjacent to it."""
    layers = bfs_layers(patch.crossings, partial(neighbors, spec))
    return Patch(frozenset().union(*islice(layers, 2)))


@dataclass(frozen=True)
class CoronaSequence:
    """Frontier-by-frontier BFS record of a corona growth run.

    frontiers[0] is the base patch; frontiers[n] holds the crossings at
    graph distance exactly n from it.  corona(n) is the cumulative union.
    """

    base: Patch
    frontiers: tuple[frozenset[Crossing], ...]

    @property
    def n_max(self) -> int:
        return len(self.frontiers) - 1

    def corona(self, n: int) -> frozenset[Crossing]:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"corona index {n} not in [0, {self.n_max}]")
        out: set[Crossing] = set()
        for f in self.frontiers[:n + 1]:
            out.update(f)
        return frozenset(out)

    def sizes(self) -> list[int]:
        """Cumulative corona sizes |P_0|, |P_1|, ..."""
        return list(accumulate(len(f) for f in self.frontiers))


def corona_sequence(
    spec: MultigridSpec,
    patch: Patch,
    n_max: int,
    max_crossings: int | None = None,
) -> CoronaSequence:
    """Grow n_max coronas from the patch: the first n_max + 1 layers of
    bfs_layers, each kept as a frontier.  The walk runs on crossing keys;
    each crossing is built once, when its frontier is stored.

    Memory is proportional to the explored region only; exceeding the
    crossing cap (default from $CORONAGRID_MAX_CROSSINGS) raises
    ResourceLimit.
    """
    cap = default_crossing_cap() if max_crossings is None else max_crossings
    layers = bfs_layers((c.key for c in patch.crossings), partial(neighbor_keys, spec))
    lines: dict[tuple[int, int], LineId] = {}   # the crossings of a line share its LineId

    def crossing(key: Key) -> Crossing:
        i, ki, j, kj = key   # canonical: i < j
        a = lines.get((i, ki)) or lines.setdefault((i, ki), LineId(i, ki))
        b = lines.get((j, kj)) or lines.setdefault((j, kj), LineId(j, kj))
        return Crossing(a, b, crossing_point(spec, a, b))

    frontiers = []
    total = 0
    for n in range(n_max + 1):
        layer = next(layers, frozenset())
        total += len(layer)
        if n and total > cap:   # the base patch itself is never refused
            raise ResourceLimit(
                f"corona growth exceeded {cap} crossings (set ${_CAP_ENV})")
        frontiers.append(frozenset(map(crossing, layer)))
    return CoronaSequence(patch, tuple(frontiers))


def graph_distance(
    spec: MultigridSpec, a: Crossing, b: Crossing, cap: int,
) -> int:
    """Exact BFS distance between two crossings; raises Unreachable beyond cap.

    This is the oracle the shortest-path facts are checked against; it never
    assumes anything about path shapes.
    """
    for dist, layer in enumerate(bfs_layers([a.key], partial(neighbor_keys, spec))):
        if b.key in layer:
            return dist
        if dist >= cap:
            break
    raise Unreachable(f"distance({a.key}, {b.key}) > {cap}")
