import pytest

from coronagrid import graph, multigrid as mg, sandpile
from coronagrid.dual import tiling_window
from coronagrid.errors import BoundaryContamination, ValidationError
from coronagrid.multigrid import LineId


@pytest.fixture(scope="module")
def square_window(square):
    return tiling_window(square, 12.0)


@pytest.fixture(scope="module")
def penta_window(pentagrid):
    return tiling_window(pentagrid, 12.0)


def test_max_stable_degrees(square, square_window):
    config = sandpile.max_stable(square_window)
    center = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    assert config.grains[center] == 3
    boundary_grains = {config.grains[c] for c in config.grains
                       if config.degree(c) < 4}
    assert boundary_grains and all(g < 3 for g in boundary_grains)
    interior = [c for c in config.grains if config.degree(c) == 4]
    assert all(config.grains[c] == 3 for c in interior)


def test_window_adjacency_is_graph_adjacency_on_window_tiles(pentagrid, penta_window):
    """In-window neighbors in neighbors() order, as the window's own objects."""
    adjacency = sandpile.window_adjacency(penta_window)
    tiles = {id(c) for c in penta_window.tiles}
    assert list(adjacency) == list(penta_window.tiles)
    for c, nbs in adjacency.items():
        assert list(nbs) == [nb for nb in graph.neighbors(pentagrid, c)
                             if nb in penta_window.tiles]
        assert all(id(nb) in tiles for nb in nbs)


def test_round_one_only_seed_topples(square, square_window):
    at = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    config = sandpile.max_stable(square_window)
    after = sandpile.add_grain_and_topple(config, at, rounds=1)
    assert after.toppled_rounds == {at: 1}


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
    rim = next(c for c in config.grains if config.degree(c) < 4)
    with pytest.raises(ValidationError):
        sandpile.add_grain_and_topple(config, rim, rounds=1)


def test_empty_window():
    offset_square = mg.MultigridSpec.from_angles([0, 90], 0.5)
    empty = tiling_window(offset_square, 0.1)  # nearest crossing at ~0.707
    config = sandpile.max_stable(empty)
    assert config.grains == {} and config.total_grains() == 0
