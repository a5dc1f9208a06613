from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, strategies as st

from coronagrid import graph, multigrid as mg, sandpile
from coronagrid.certify import random_multigrid
from coronagrid.dual import TilingWindow, tiling_window
from coronagrid.errors import BoundaryContamination, SingularMultigrid, ValidationError
from coronagrid.multigrid import LineId
from specs import crossing_of


@pytest.fixture(scope="module")
def square_window(square):
    return tiling_window(square, 12.0)


@pytest.fixture(scope="module")
def penta_window(pentagrid):
    return tiling_window(pentagrid, 12.0)


def test_max_stable_degrees(square_window):
    config = sandpile.max_stable(square_window)
    assert len(config.neighbors) == len(config.grains) == len(square_window)
    center = square_window.index((0, 0, 1, 0))
    assert config.grains[center] == 3
    boundary_grains = {g for g, nbs in zip(config.grains, config.neighbors) if len(nbs) < 4}
    assert boundary_grains and all(g < 3 for g in boundary_grains)
    assert all(g == 3 for g, nbs in zip(config.grains, config.neighbors) if len(nbs) == 4)


def neighbor_keys_adjacency(window):
    """Reference: each tile's neighbor_keys that are window tiles, as a set
    of tile indices.  It walks the crossings' lines, so it is independent of
    the tile edges that window_adjacency pairs."""
    index = {key: n for n, key in enumerate(window.keys())}
    return [{index[k] for k in mg.neighbor_keys(window.spec, key) if k in index}
            for key in window.keys()]


def assert_same_neighbors(adjacency, want):
    """Per tile, adjacency lists the neighbors in want, each once, and m is
    a neighbor of n exactly when n is a neighbor of m."""
    assert [set(nbs) for nbs in adjacency] == want
    assert all(len(set(nbs)) == len(nbs) for nbs in adjacency)
    assert all(n in adjacency[m] for n, nbs in enumerate(adjacency) for m in nbs)


def test_window_adjacency_is_graph_adjacency_on_window_tiles(penta_window):
    """Tiles that share an edge are the crossings that neighbor_keys links:
    the multigrid duality, on the radius-12 pentagrid window."""
    assert_same_neighbors(sandpile.window_adjacency(penta_window),
                          neighbor_keys_adjacency(penta_window))


def test_window_adjacency_lists_neighbors_in_edge_order(square_window):
    """Entry n lists tile n's neighbors in its edge order (corners 0-1,
    1-2, 2-3, 3-0), each edge's neighbor the other tile that has both its
    corners."""
    corners = square_window.corners
    for n, nbs in enumerate(sandpile.window_adjacency(square_window)):
        own = corners[4 * n:4 * n + 4]
        edges = [{own[k], own[(k + 1) % 4]} for k in range(4)]
        sharing = [[m for m in nbs if edge <= set(corners[4 * m:4 * m + 4])] for edge in edges]
        assert [m for ms in sharing for m in ms] == list(nbs)
        assert all(len(ms) <= 1 for ms in sharing)


@given(d=st.integers(3, 7), seed=st.integers(1, 10_000),
       radius=st.sampled_from([2.0, 5.0, 9.0]))
def test_window_adjacency_matches_neighbor_keys(d, seed, radius):
    """Pairing shared tile edges gives the neighbor_keys adjacency on random
    windows.  Windows that tiling_window refuses are skipped, and so are
    those that only neighbor_keys refuses, for a near-coincidence one step
    outside the window."""
    try:
        window = tiling_window(random_multigrid(d, seed), radius)
        want = neighbor_keys_adjacency(window)
    except SingularMultigrid:
        assume(False)
    assert_same_neighbors(sandpile.window_adjacency(window), want)


def test_round_one_only_seed_topples(square, square_window):
    at = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    config = sandpile.max_stable(square_window)
    after = sandpile.add_grain_and_topple(config, at, rounds=1)
    assert after.toppled_rounds == {square_window.index(at.key): 1}
    assert after.toppled_by(1) == {at.key}


def test_square_equivalence_with_lattice_ball(square, square_window):
    at = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    config = sandpile.max_stable(square_window)
    final = sandpile.add_grain_and_topple(config, at, rounds=8)
    seq = graph.corona_sequence(square, graph.Patch(frozenset([at])), 7)
    for n in range(1, 9):
        assert final.toppled_by(n) == seq.corona(n - 1)


def test_pentagrid_equivalence(pentagrid, penta_window):
    at = mg.nearest_crossing(pentagrid)
    config = sandpile.max_stable(penta_window)
    final = sandpile.add_grain_and_topple(config, at, rounds=6)
    seq = graph.corona_sequence(pentagrid, graph.Patch(frozenset([at])), 5)
    for n in range(1, 7):
        assert final.toppled_by(n) == seq.corona(n - 1)


@given(d=st.integers(3, 9), seed=st.integers(1, 10_000),
       radius=st.sampled_from([8.0, 9.0]), rounds=st.integers(1, 6))
def test_random_multigrid_equivalence(d, seed, radius, rounds):
    """On random multigrids, as on the pentagrid, the tiles that topple by
    round n after one grain at the nearest crossing are the corona
    P_{n - 1}.  Windows and growths that refuse, avalanches that reach the
    rim's halo and seeds on the rim are skipped."""
    spec = random_multigrid(d, seed)
    try:
        window = tiling_window(spec, radius)
        at = mg.nearest_crossing(spec)
        config = sandpile.max_stable(window)
        assume(at.key in set(window.keys()) and len(config.neighbors[window.index(at.key)]) == 4)
        final = sandpile.add_grain_and_topple(config, at, rounds)
        seq = graph.corona_sequence(spec, graph.Patch(frozenset([at])), rounds - 1)
    except (SingularMultigrid, BoundaryContamination):
        assume(False)
    comparison = list(sandpile.corona_comparison(final, seq, rounds))
    assert [match for *_, match in comparison] == [True] * rounds, comparison


def test_grain_conservation_and_monotone_toppling(pentagrid, penta_window):
    at = mg.nearest_crossing(pentagrid)
    config = sandpile.max_stable(penta_window)
    before = config.total_grains()
    prev = frozenset()
    for rounds in (1, 2, 4, 6):
        final = sandpile.add_grain_and_topple(config, at, rounds=rounds)
        assert final.total_grains() == before + 1
        toppled = final.toppled_by(rounds)
        assert prev <= toppled
        prev = toppled


def test_boundary_contamination(square):
    tiny = tiling_window(square, 4.5)
    at = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    config = sandpile.max_stable(tiny)
    with pytest.raises(BoundaryContamination):
        sandpile.add_grain_and_topple(config, at, rounds=10)


def test_seed_must_be_interior(square, square_window):
    config = sandpile.max_stable(square_window)
    rim = next(key for key, nbs in zip(square_window.keys(), config.neighbors) if len(nbs) < 4)
    with pytest.raises(ValidationError, match="on the window boundary"):
        sandpile.add_grain_and_topple(config, crossing_of(square, rim), rounds=1)
    outside = mg.make_crossing(square, LineId(0, 40), LineId(1, 0))
    with pytest.raises(ValidationError, match="not in the window"):
        sandpile.add_grain_and_topple(config, outside, rounds=1)


def test_empty_window():
    offset_square = mg.MultigridSpec.from_angles([0, 90], 0.5)
    empty = tiling_window(offset_square, 0.1)  # nearest crossing at ~0.707
    config = sandpile.max_stable(empty)
    assert config.grains == [] and config.total_grains() == 0


def test_sandpile_builds_no_objects(pentagrid, count_constructions):
    """max_stable and add_grain_and_topple run on tile indices, and the
    corona comparison on keys: neither toppled_by nor CoronaSequence.corona
    builds a Crossing."""
    window = tiling_window(pentagrid, 12.0)
    at = mg.nearest_crossing(pentagrid)
    seq = graph.corona_sequence(pentagrid, graph.Patch(frozenset([at])), 5)
    counts = count_constructions()
    final = sandpile.add_grain_and_topple(sandpile.max_stable(window), at, rounds=6)
    assert len(final.toppled_by(6)) == len(final.toppled_rounds) > 1
    for n in range(1, 7):
        assert final.toppled_by(n) == seq.corona(n - 1)
    assert counts == {}


def test_corona_comparison_decodes_each_layer_and_key_once(pentagrid, monkeypatch):
    """corona_comparison gives, per round, the sizes of toppled_by(n) and
    corona(n - 1) and whether they are equal, from running unions: each
    layer is decoded once, and each toppled tile's key once."""
    window = tiling_window(pentagrid, 12.0)
    at = mg.nearest_crossing(pentagrid)
    final = sandpile.add_grain_and_topple(sandpile.max_stable(window), at, rounds=6)
    seq = graph.corona_sequence(pentagrid, graph.Patch(frozenset([at])), 5)
    want = [(n, len(final.toppled_by(n)), len(seq.corona(n - 1)),
             final.toppled_by(n) == seq.corona(n - 1)) for n in range(1, 7)]
    assert all(match for *_, match in want)
    layers, keys = Counter(), Counter()

    def layer(self, n, _layer=graph.CoronaSequence.layer):
        layers[n] += 1
        return _layer(self, n)

    def key(self, n, _key=TilingWindow.key):
        keys[n] += 1
        return _key(self, n)

    monkeypatch.setattr(graph.CoronaSequence, "layer", layer)
    monkeypatch.setattr(TilingWindow, "key", key)
    fresh = sandpile.SandpileConfig(window, final.neighbors, final.grains, final.toppled_rounds)
    assert list(sandpile.corona_comparison(fresh, seq, 6)) == want
    assert layers == Counter(range(6))
    assert keys == Counter(final.toppled_rounds.keys())


# differential check of the toppler -------------------------------------------

def full_scan_topple(config, at, rounds):
    """Reference synchronous toppling on crossing keys: its own adjacency
    from neighbor_keys over the window's keys, every round a rescan of every
    tile, and the halo from a visited-set BFS.  Returns the grains and the
    toppled rounds, keyed by crossing key."""
    keys = list(config.window.keys())
    in_window = set(keys)
    adjacency = {key: tuple(k for k in mg.neighbor_keys(config.window.spec, key)
                            if k in in_window)
                 for key in keys}
    halo = {key for key, nbs in adjacency.items() if len(nbs) < 4}
    frontier = halo
    for _ in range(2):
        frontier = {nb for key in frontier for nb in adjacency[key]} - halo
        halo |= frontier
    grains = dict(zip(keys, config.grains))
    toppled_rounds = {keys[n]: r for n, r in config.toppled_rounds.items()}
    grains[at.key] += 1
    for round_n in range(1, rounds + 1):
        topplers = [key for key, g in grains.items() if 0 < len(adjacency[key]) <= g]
        if not topplers:
            break
        contaminated = [key for key in topplers if key in halo]
        if contaminated:
            raise BoundaryContamination(
                f"round {round_n}: avalanche reached within distance 2 of the "
                f"window boundary at {contaminated[0]}; grow the window")
        for key in topplers:
            grains[key] -= len(adjacency[key])
            for nb in adjacency[key]:
                grains[nb] += 1
            toppled_rounds.setdefault(key, round_n)
    return grains, toppled_rounds


@lru_cache(maxsize=None)
def stable_window(d: int, seed: int, radius: float):
    spec = mg.MultigridSpec.dfold(5, 0.5) if d == 0 else random_multigrid(d, seed)
    try:
        return sandpile.max_stable(tiling_window(spec, radius))
    except SingularMultigrid:
        return None


def topple_outcome(config, at, rounds):
    """add_grain_and_topple's grains and toppled rounds per crossing key, in
    window order and in toppling order, or its refusal message; and the
    resulting configuration, if any."""
    try:
        result = sandpile.add_grain_and_topple(config, at, rounds)
    except BoundaryContamination as exc:
        return str(exc), None
    keys = list(config.window.keys())
    return (list(zip(keys, result.grains)),
            [(keys[n], r) for n, r in result.toppled_rounds.items()]), result


def full_scan_outcome(config, at, rounds):
    try:
        grains, toppled_rounds = full_scan_topple(config, at, rounds)
    except BoundaryContamination as exc:
        return str(exc)
    return list(grains.items()), list(toppled_rounds.items())


@given(d=st.sampled_from([0, 3, 4, 5, 6, 7]), seed=st.integers(1, 3),
       radius=st.sampled_from([5.0, 8.0]), data=st.data())
def test_active_set_toppler_matches_full_scan(d, seed, radius, data):
    """add_grain_and_topple equals the full-scan reference on pentagrid
    (d = 0) and random windows with extra grains on several tiles,
    then again on its own result (toppled rounds carried over)."""
    config = stable_window(d, seed, radius)
    assume(config is not None)
    window = config.window
    points = mg.crossing_pairs(window.spec, window.keys())
    # drops in the inner half of the window, so runs end both ways
    inner = sorted(key for key, nbs, (x, y) in zip(window.keys(), config.neighbors, points)
                   if len(nbs) == 4 and abs(complex(x, y)) <= radius / 2)
    assume(inner)
    extra = data.draw(st.dictionaries(st.sampled_from(inner), st.integers(1, 9),
                                      max_size=5))
    grains = [g + extra.get(key, 0) for key, g in zip(window.keys(), config.grains)]
    config = sandpile.SandpileConfig(window, config.neighbors, grains, {})
    for _ in range(2):
        at = crossing_of(window.spec, data.draw(st.sampled_from(inner)))
        rounds = data.draw(st.integers(1, 12))
        got, result = topple_outcome(config, at, rounds)
        assert got == full_scan_outcome(config, at, rounds)
        if result is None:
            break
        config = result
