"""Desk-scale sandpile engine on a tiling window.

Start every tile at one grain below its number of adjacent tiles, drop a
single extra grain somewhere in the interior, and run synchronous rounds:
each tile holding at least as many grains as it has neighbors topples,
losing one grain per neighbor.  The wave of first topplings then sweeps
outward exactly one graph-distance layer per round, which is what makes it
an independent re-derivation of the corona sequence.

Neighbors are tiles that share an edge, read from the window's exact
vertex indices (the crossing graph's adjacency, by the multigrid duality),
and degrees are window degrees.  Certified runs never let the avalanche
within graph distance 2 of the window boundary (enforced by
BoundaryContamination), so only degree-4 tiles ever topple and grain count
is exactly conserved.

The state is held on tile indices, in the window's key order: neighbor
lists, grain counts and first-toppling rounds.  A toppled set is handed out
as the window's crossing keys, the form CoronaSequence.corona gives, and
corona_comparison holds both against each other round by round.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator

from .dual import TilingWindow
from .errors import BoundaryContamination, ValidationError
from .graph import CoronaSequence, bfs_layers
from .multigrid import Crossing, Key


def window_adjacency(window: TilingWindow) -> list[tuple[int, ...]]:
    """In-window tile adjacency: tiles that share an edge, which by the
    multigrid duality are crossings consecutive on a common line.

    Edge k of tile n joins corners[4n + k] and corners[4n + (k + 1) % 4],
    keyed by its vertex indices unordered (tiles of different grid pairs
    walk their rhombi in opposite senses).  The second tile to claim an open
    edge is linked to the first and closes it; an edge claimed once lies on
    the window rim.  Entry n holds tile n's neighbors as tile indices, in
    its edge order (corners 0-1, 1-2, 2-3, 3-0).
    """
    corners = window.corners
    span = len(window.positions)
    claimed: dict[int, int] = {}   # open edge key -> its first claimant's slot 4n + k
    slots: list[int | None] = [None] * len(corners)
    for q, a in enumerate(corners):
        b = corners[q - 3 if q % 4 == 3 else q + 1]
        edge = a * span + b if a < b else b * span + a
        other = claimed.pop(edge, None)
        if other is None:
            claimed[edge] = q
        else:
            slots[q], slots[other] = other // 4, q // 4
    return [tuple(m for m in slots[q:q + 4] if m is not None)
            for q in range(0, len(slots), 4)]


@dataclass
class SandpileConfig:
    """Grain state over a window plus the first-toppling round per tile,
    every field indexed by tile position in the window (key order)."""

    window: TilingWindow
    neighbors: list[tuple[int, ...]]
    grains: list[int]
    toppled_rounds: dict[int, int]

    def total_grains(self) -> int:
        return sum(self.grains)

    @cached_property
    def _toppled(self) -> tuple[list[int], list[Key]]:
        """The toppled tiles' first rounds, ascending, and their crossing
        keys in that order: each key is decoded from the window once."""
        order = sorted(self.toppled_rounds.items(), key=itemgetter(1))
        key = self.window.key
        return [r for _, r in order], [key(n) for n, _ in order]

    def toppled_by(self, round_n: int) -> frozenset[Key]:
        """Keys of the tiles that toppled in rounds 1..round_n."""
        rounds, keys = self._toppled
        return frozenset(keys[:bisect_right(rounds, round_n)])


def max_stable(window: TilingWindow) -> SandpileConfig:
    """Every tile at (degree - 1) grains, a degree being its shared window
    edges: 3 in the interior, fewer on the rim.  One more grain starts an
    avalanche."""
    neighbors = window_adjacency(window)
    return SandpileConfig(window, neighbors, [max(len(nbs) - 1, 0) for nbs in neighbors], {})


def _boundary_halo(neighbors: list[tuple[int, ...]]) -> set[int]:
    """Tiles within graph distance 2 of the window boundary (tiles whose
    infinite-graph neighborhood is clipped by the window), as indices."""
    boundary = [n for n, nbs in enumerate(neighbors) if len(nbs) < 4]
    layers = bfs_layers(boundary, lambda layer: {m for n in layer for m in neighbors[n]})
    return set().union(*islice(layers, 3))


def add_grain_and_topple(
    config: SandpileConfig, at: Crossing, rounds: int,
) -> SandpileConfig:
    """Drop one grain on `at` and run synchronous toppling rounds.

    Returns a new configuration; records the first round each tile toppled.
    Raises BoundaryContamination, naming the least such key, as soon as a
    toppling tile comes within graph distance 2 of the window boundary, as
    from then on the finite window no longer emulates the infinite tiling.

    Round 1 scans every tile; after that only the previous round's topplers
    and their neighbors can have become unstable (every other tile neither
    gained nor lost grains), so each round scans just those, in window order.
    """
    window, neighbors = config.window, config.neighbors
    try:
        start = window.index(at.key)
    except ValueError:
        raise ValidationError(f"tile {at.key} is not in the window") from None
    if len(neighbors[start]) < 4:
        raise ValidationError(f"tile {at.key} is on the window boundary")
    grains = list(config.grains)
    grains[start] += 1
    toppled_rounds = dict(config.toppled_rounds)
    halo = _boundary_halo(neighbors)
    candidates: Iterable[int] = range(len(window))
    for round_n in range(1, rounds + 1):
        # degree-0 tiles (clipped window corners) are inert, not avalanching
        topplers = [n for n in candidates if 0 < len(neighbors[n]) <= grains[n]]
        if not topplers:
            break
        contaminated = halo.intersection(topplers)
        if contaminated:
            raise BoundaryContamination(
                f"round {round_n}: avalanche reached within distance 2 of the "
                f"window boundary at {window.key(min(contaminated))}; grow the window")
        active = set(topplers)
        for n in topplers:
            nbs = neighbors[n]
            grains[n] -= len(nbs)
            for m in nbs:
                grains[m] += 1
            active.update(nbs)
            toppled_rounds.setdefault(n, round_n)
        candidates = sorted(active)
    return SandpileConfig(window, neighbors, grains, toppled_rounds)


def corona_comparison(
    config: SandpileConfig, seq: CoronaSequence, rounds: int,
) -> Iterator[tuple[int, int, int, bool]]:
    """Per round n = 1..rounds: (n, |toppled_by(n)|, |seq.corona(n - 1)|,
    whether the two key sets are equal).

    Both sets are running unions: the toppled set grows by the tiles that
    first toppled in round n, and the corona by seq.layer(n - 1), so each
    toppled key and each layer is decoded once.  seq must hold layers
    0..rounds - 1.
    """
    first, keys = config._toppled
    toppled: set[Key] = set()
    corona: set[Key] = set()
    done = 0
    for n in range(1, rounds + 1):
        upto = bisect_right(first, n)
        toppled.update(keys[done:upto])
        done = upto
        corona.update(seq.layer(n - 1))
        yield n, len(toppled), len(corona), toppled == corona
