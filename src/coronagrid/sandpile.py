"""Desk-scale sandpile engine on a tiling window.

Start every tile at one grain below its number of adjacent tiles, drop a
single extra grain somewhere in the interior, and run synchronous rounds:
each tile holding at least as many grains as it has neighbors topples,
losing one grain per neighbor.  The wave of first topplings then sweeps
outward exactly one graph-distance layer per round, which is what makes it
an independent re-derivation of the corona sequence.

Degrees are window degrees (in-window neighbors).  Certified runs never let
the avalanche within graph distance 2 of the window boundary (enforced by
BoundaryContamination), so only degree-4 tiles ever topple and grain count
is exactly conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .dual import TilingWindow
from .errors import BoundaryContamination, ValidationError
from .graph import bfs_layers, neighbors
from .multigrid import Crossing


def window_adjacency(window: TilingWindow) -> dict[Crossing, tuple[Crossing, ...]]:
    """In-window tile adjacency (tiles share an edge iff their crossings are
    consecutive on a common line, i.e. graph neighbors)."""
    present = window.tiles.keys()
    return {c: tuple(nb for nb in neighbors(window.spec, c) if nb in present)
            for c in present}


@dataclass
class SandpileConfig:
    """Grain state over a window plus the first-toppling round per tile."""

    window: TilingWindow
    adjacency: dict[Crossing, tuple[Crossing, ...]]
    grains: dict[Crossing, int]
    toppled_rounds: dict[Crossing, int]

    def degree(self, c: Crossing) -> int:
        return len(self.adjacency[c])

    def total_grains(self) -> int:
        return sum(self.grains.values())

    def toppled_by(self, round_n: int) -> frozenset[Crossing]:
        return frozenset(c for c, r in self.toppled_rounds.items() if r <= round_n)


def max_stable(window: TilingWindow) -> SandpileConfig:
    """Every tile at (degree - 1) grains: 3 in the interior, fewer on the
    window boundary.  One more grain anywhere starts an avalanche."""
    adjacency = window_adjacency(window)
    grains = {c: max(len(nbs) - 1, 0) for c, nbs in adjacency.items()}
    return SandpileConfig(window, adjacency, grains, {})


def _boundary_halo(config: SandpileConfig, depth: int = 2) -> set[Crossing]:
    """Tiles within graph distance `depth` of the window boundary (tiles
    whose infinite-graph neighborhood is clipped by the window)."""
    boundary = [c for c, nbs in config.adjacency.items() if len(nbs) < 4]
    layers = bfs_layers(boundary, config.adjacency.__getitem__)
    return set().union(*islice(layers, depth + 1))


def add_grain_and_topple(
    config: SandpileConfig, at: Crossing, rounds: int,
) -> SandpileConfig:
    """Drop one grain on `at` and run synchronous toppling rounds.

    Returns a new configuration; records the first round each tile toppled.
    Raises BoundaryContamination as soon as any toppling tile comes within
    graph distance 2 of the window boundary, because from then on the finite
    window no longer emulates the infinite tiling.
    """
    if at not in config.grains:
        raise ValidationError(f"tile {at.key} is not in the window")
    if config.degree(at) < 4:
        raise ValidationError(f"tile {at.key} is on the window boundary")
    grains = dict(config.grains)
    toppled_rounds = dict(config.toppled_rounds)
    grains[at] = grains.get(at, 0) + 1
    halo = _boundary_halo(config)
    for round_n in range(1, rounds + 1):
        # degree-0 tiles (clipped window corners) are inert, not avalanching
        topplers = [c for c, g in grains.items()
                    if len(config.adjacency[c]) > 0 and g >= len(config.adjacency[c])]
        if not topplers:
            break
        contaminated = [c for c in topplers if c in halo]
        if contaminated:
            raise BoundaryContamination(
                f"round {round_n}: avalanche reached within distance 2 of the "
                f"window boundary at {contaminated[0].key}; grow the window")
        for c in topplers:
            deg = len(config.adjacency[c])
            grains[c] -= deg
            for nb in config.adjacency[c]:
                grains[nb] += 1
            toppled_rounds.setdefault(c, round_n)
    return SandpileConfig(config.window, config.adjacency, grains, toppled_rounds)
