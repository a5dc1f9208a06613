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
from typing import Iterable

from .dual import TilingWindow
from .errors import BoundaryContamination, ValidationError
from .graph import bfs_layers
from .multigrid import Crossing


def window_adjacency(window: TilingWindow) -> dict[Crossing, tuple[Crossing, ...]]:
    """In-window tile adjacency: two tiles share an edge iff their crossings
    are consecutive on a common line.

    Each crossing's parameter on both of its lines comes from its key in
    closed form, as in neighbor_keys.  Each window line's crossings are
    sorted by parameter once, and consecutive ones are neighbors.  Runs on
    the window's key table; the tiles and their neighbors are the window's
    own Crossing objects (``window.crossings``), in neighbor_keys order:
    line a up, line a down, line b up, line b down.
    """
    spec = window.spec
    offsets, dots, crosses = spec.offsets, spec._dots, spec._crosses
    # entry (t, slot): neighbor slots slot (up) and slot + 1 (down) of tile slot // 4
    on_line: dict[tuple[int, int], list[tuple[float, int]]] = {}
    for n, (i, ki, j, kj) in enumerate(window.keys):
        ri, rj = offsets[i] + ki, offsets[j] + kj
        ta = (kj - (ri * dots[i][j] - offsets[j])) / crosses[i][j]
        tb = (ki - (rj * dots[j][i] - offsets[i])) / crosses[j][i]
        on_line.setdefault((i, ki), []).append((ta, 4 * n))
        on_line.setdefault((j, kj), []).append((tb, 4 * n + 2))
    slots: list[int | None] = [None] * (4 * len(window))
    for entries in on_line.values():
        entries.sort()
        for (_, lo), (_, hi) in zip(entries, entries[1:]):
            slots[lo] = hi // 4
            slots[hi + 1] = lo // 4
    tiles = window.crossings
    return {c: tuple(tiles[m] for m in slots[4 * n:4 * n + 4] if m is not None)
            for n, c in enumerate(tiles)}


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
    Raises BoundaryContamination as soon as any toppling tile comes within
    graph distance 2 of the window boundary, because from then on the finite
    window no longer emulates the infinite tiling.

    Runs on tile indices in ``config.grains`` order.  Round 1 scans every
    tile; after that only the previous round's topplers and their neighbors
    can have become unstable (every other tile neither gained nor lost
    grains), so each round scans just those, in window order.
    """
    if at not in config.grains:
        raise ValidationError(f"tile {at.key} is not in the window")
    if config.degree(at) < 4:
        raise ValidationError(f"tile {at.key} is on the window boundary")
    tiles = list(config.grains)
    index = {c: n for n, c in enumerate(tiles)}
    neighbors = [tuple(index[nb] for nb in config.adjacency[c]) for c in tiles]
    grains = list(config.grains.values())
    grains[index[at]] += 1
    first_rounds: dict[int, int] = {}
    halo = _boundary_halo(neighbors)
    candidates: Iterable[int] = range(len(tiles))
    for round_n in range(1, rounds + 1):
        # degree-0 tiles (clipped window corners) are inert, not avalanching
        topplers = [n for n in candidates if 0 < len(neighbors[n]) <= grains[n]]
        if not topplers:
            break
        contaminated = halo.intersection(topplers)
        if contaminated:
            raise BoundaryContamination(
                f"round {round_n}: avalanche reached within distance 2 of the "
                f"window boundary at {tiles[min(contaminated)].key}; grow the window")
        active = set(topplers)
        for n in topplers:
            nbs = neighbors[n]
            grains[n] -= len(nbs)
            for m in nbs:
                grains[m] += 1
            active.update(nbs)
            first_rounds.setdefault(n, round_n)
        candidates = sorted(active)
    toppled_rounds = dict(config.toppled_rounds)
    for n, round_n in first_rounds.items():
        toppled_rounds.setdefault(tiles[n], round_n)
    return SandpileConfig(config.window, config.adjacency,
                          dict(zip(tiles, grains)), toppled_rounds)
