"""The multigrid as an infinite graph, explored lazily.

Vertices are crossings; two crossings are adjacent when they are consecutive
along a common grid line.  Nothing is ever materialized beyond the explored
region: a BFS layer is expanded by multigrid.frontier_neighbor_keys, which
solves each crossing's point once and reads every other grid's level there
once for both of its lines, so a crossing's 4 neighbors cost O(d) together
regardless of how far the walk has drifted from the origin.

The same graph is the tile-adjacency graph of the dual rhombus tiling, which
is why coronas computed here are tiling coronas as well.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import ResourceLimit, Unreachable, ValidationError
from .multigrid import (
    CAP_ENV,
    Crossing,
    Key,
    LineId,
    MultigridSpec,
    default_crossing_cap,
    frontier_neighbor_keys,
    make_crossing,
    neighbor_keys,
)

Node = TypeVar("Node", bound=Hashable)


def neighbors(spec: MultigridSpec, c: Crossing) -> list[Crossing]:
    """The 4 adjacent crossings, in neighbor_keys order (perfbench traces it)."""
    return [make_crossing(spec, LineId(i, ki), LineId(j, kj))
            for i, ki, j, kj in neighbor_keys(spec, c.key)]


@dataclass(frozen=True)
class Patch:
    """Finite, connected set of crossings: a seed crossing, or a set grown
    from one by adjacency."""

    crossings: frozenset[Crossing]


def bfs_layers(
    sources: Iterable[Node], expand: Callable[[frozenset[Node]], set[Node]],
) -> Iterator[frozenset[Node]]:
    """Yield the nodes at graph distance 0, 1, 2, ... from `sources`.

    `expand` maps a layer to a new set of its nodes' neighbors: on crossing
    keys, multigrid.frontier_neighbor_keys; a per-node neighbor function
    is wrapped as a set comprehension over the layer.  Every consumer of
    breadth-first search in the package reads this one generator.  It
    holds only the previous, current and next layer and no visited set: in
    an undirected graph a layer-n node's neighbors all lie in layers n-1, n
    and n+1.  A layer is computed only when asked for, and the walk ends
    after the last nonempty layer of a finite graph.
    """
    previous: frozenset[Node] = frozenset()
    current = frozenset(sources)
    while current:
        yield current
        nxt = expand(current)
        nxt -= current
        nxt -= previous
        previous, current = current, frozenset(nxt)


def corona_step(spec: MultigridSpec, patch: Patch) -> Patch:
    """One growth step: the patch plus its neighbors, from corona_layers."""
    return Patch(frozenset(make_crossing(spec, LineId(i, ki), LineId(j, kj))
                           for layer in corona_layers(spec, patch, 1)
                           for i, ki, j, kj in layer))


@dataclass(frozen=True)
class CoronaSequence:
    """Frontier-by-frontier BFS record of a corona growth run, on keys.

    Layer 0 holds the keys of the seed patch's crossings; layer n the keys
    of the crossings at graph distance exactly n from it.  packed[n] stores
    layer n as one flat array('q') of its keys' four integers (32 B per
    crossing), in the order bfs_layers' frozenset iterated them.  layer(n)
    decodes layer n in that order, and corona(n) is the union of layers
    0..n, as keys; no reader builds a Crossing.  The record holds the
    layers only: a reader that needs the spec or the patch is given them.
    """

    packed: tuple[array, ...]

    @property
    def n_max(self) -> int:
        return len(self.packed) - 1

    def layer(self, n: int) -> Iterator[Key]:
        """The keys of layer n, in the order they were packed."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"layer index {n} not in [0, {self.n_max}]")
        return zip(*[iter(self.packed[n])] * 4)

    def corona(self, n: int) -> frozenset[Key]:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"corona index {n} not in [0, {self.n_max}]")
        return frozenset(chain.from_iterable(map(self.layer, range(n + 1))))

    def sizes(self) -> list[int]:
        """Cumulative corona sizes |P_0|, |P_1|, ..."""
        return list(accumulate(len(p) // 4 for p in self.packed))


def corona_layers(spec: MultigridSpec, patch: Patch, n_max: int) -> Iterator[frozenset[Key]]:
    """The first n_max + 1 layers of bfs_layers from the patch's keys, as
    frozensets of crossing keys (empty past a finite graph's last layer).

    Every walk of the crossing graph reads this stream.  Only the layers
    bfs_layers needs are held, so a consumer that does not keep them walks
    in memory proportional to the frontier.  A layer that takes the running
    total past the crossing cap ($CORONAGRID_MAX_CROSSINGS) raises
    ResourceLimit instead of being yielded; the base patch is never refused.
    """
    cap = default_crossing_cap()
    layers = bfs_layers((c.key for c in patch.crossings),
                        partial(frontier_neighbor_keys, spec))
    total = 0
    for n in range(n_max + 1):
        layer = next(layers, frozenset())
        total += len(layer)
        if n and total > cap:
            raise ResourceLimit(
                f"corona growth exceeded {cap} crossings (set ${CAP_ENV})")
        yield layer


def corona_sequence(spec: MultigridSpec, patch: Patch, n_max: int) -> CoronaSequence:
    """Grow n_max coronas from the patch: the layers of corona_layers, each
    packed as it arrives, so the run holds 32 B per crossing of the ball
    plus the frontier layers bfs_layers is working on.

    Exceeding the crossing cap raises ResourceLimit, as in corona_layers,
    and a layer with a line index outside the 64-bit range of array('q')
    (a patch that holds one, or its growth) raises ValidationError.
    """
    packed: list[array] = []
    for n, layer in enumerate(corona_layers(spec, patch, n_max)):
        try:
            packed.append(array("q", list(chain.from_iterable(layer))))
        except OverflowError:
            raise ValidationError(f"corona layer {n} has a line index beyond 64 bits") from None
    return CoronaSequence(tuple(packed))


def graph_distance(
    spec: MultigridSpec, a: Crossing, b: Crossing, cap: int,
) -> int:
    """Exact BFS distance between two crossings, read from corona_layers;
    raises Unreachable beyond cap and ResourceLimit past the crossing cap.

    This is the oracle the shortest-path facts are checked against; it never
    assumes anything about path shapes.
    """
    for dist, layer in enumerate(corona_layers(spec, Patch(frozenset([a])), cap)):
        if b.key in layer:
            return dist
    raise Unreachable(f"distance({a.key}, {b.key}) > {cap}")
