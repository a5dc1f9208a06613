import copy
import math
import pickle
from io import StringIO
from random import Random

import pytest
from hypothesis import given, strategies as st
from specs import crossing_of, walk_specs
from test_io import first_difference, outcome, reference_render

from coronagrid import dual, multigrid as mg
from coronagrid import io as cio
from coronagrid.certify import check_edge_to_edge, random_multigrid
from coronagrid.errors import OnGridLine, SingularMultigrid, ValidationError
from coronagrid.multigrid import EPS_SINGULAR, LineId, MultigridSpec


# dual vertex ---------------------------------------------------------------

def test_dual_vertex_pentagrid_origin(pentagrid):
    key = dual.dual_vertex(pentagrid, 0j)
    assert key == (0, 0, 0, 0, 0)
    assert dual.vertex_position(pentagrid, key) == 0j


def test_dual_vertex_square_cell(square):
    key = dual.dual_vertex(square, 0.5 + 0.5j)
    assert key == (1, 1)
    assert dual.vertex_position(square, key) == pytest.approx(1 + 1j)


def test_dual_vertex_on_line_raises(square):
    with pytest.raises(OnGridLine):
        dual.dual_vertex(square, 1.0 + 0.5j)


def test_position_recomputable_from_key(pentagrid):
    """The key is the cell's ceiled levels, and the vertex position follows
    from the key alone."""
    rng = Random(0)
    for _ in range(100):
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        try:
            key = dual.dual_vertex(pentagrid, z)
        except OnGridLine:
            continue
        assert key == tuple(math.ceil(pentagrid.level(i, z)) for i in range(pentagrid.d))
        again = sum(k * n for k, n in zip(key, pentagrid.normals))
        assert abs(again - dual.vertex_position(pentagrid, key)) < 1e-9


# linear dual ---------------------------------------------------------------

def test_linear_dual_zero(pentagrid):
    assert dual.linear_dual(pentagrid, 0j) == 0j


def test_linear_dual_pentagrid_unit(pentagrid):
    assert dual.linear_dual(pentagrid, 1 + 0j) == pytest.approx(2.5 + 0j, abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_linear_dual_is_half_d_scaling(d):
    spec = MultigridSpec.dfold(d, 0.3)
    rng = Random(d)
    for _ in range(50):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        assert abs(dual.linear_dual(spec, z) - (d / 2) * z) < 1e-10 * max(1, abs(z))


def test_dualization_near_linear_bound():
    rng = Random(7)
    for spec in (MultigridSpec.dfold(5, 0.5), random_multigrid(7, seed=11)):
        bound = 2 * spec.d
        for _ in range(2000):
            z = complex(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
            try:
                f = dual.vertex_position(spec, dual.dual_vertex(spec, z))
            except OnGridLine:
                continue
            assert abs(f - dual.linear_dual(spec, z)) <= bound


# tiles ----------------------------------------------------------------------

def corner_points(spec, c):
    return [position for _, position in dual.tile_of_crossing(spec, c)]


def test_tile_square_cell_corners(square):
    c = mg.make_crossing(square, LineId(0, 2), LineId(1, 3))
    expected = [2 + 3j, 3 + 3j, 3 + 4j, 2 + 4j]
    points = corner_points(square, c)
    assert len(points) == 4
    for got, want in zip(points, expected):
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("j,angle_deg", [(1, 72.0), (2, 144.0)])
def test_tile_pentagrid_rhombus_angles(pentagrid, j, angle_deg):
    c = mg.make_crossing(pentagrid, LineId(0, 0), LineId(j, 0))
    pts = corner_points(pentagrid, c)
    for k in range(4):
        assert abs(abs(pts[(k + 1) % 4] - pts[k]) - 1.0) < 1e-9
    e1 = pts[1] - pts[0]
    e2 = pts[3] - pts[0]
    got = math.degrees(abs(math.atan2((e1 * e2.conjugate()).imag,
                                      (e1 * e2.conjugate()).real)))
    assert got == pytest.approx(angle_deg, abs=1e-9)


def test_tile_keys_shift_only_crossing_slots(pentagrid):
    c = mg.make_crossing(pentagrid, LineId(1, 2), LineId(3, -1))
    tile = dual.tile_of_crossing(pentagrid, c)
    base = tile[0][0]
    deltas = sorted(tuple(k - b for k, b in zip(key, base)) for key, _ in tile)
    expect_i = tuple(1 if l == 1 else 0 for l in range(5))
    expect_j = tuple(1 if l == 3 else 0 for l in range(5))
    expect_ij = tuple(x + y for x, y in zip(expect_i, expect_j))
    assert deltas == sorted([(0,) * 5, expect_i, expect_j, expect_ij])


def test_tile_edge_directions_are_normals(pentagrid):
    rng = Random(8)
    crossings = mg.enumerate_crossings(pentagrid, 6.0)
    for c in rng.sample(crossings, 40):
        pts = corner_points(pentagrid, c)
        i, j = c.a.grid, c.b.grid
        allowed = {i, j}
        for k in range(4):
            e = pts[(k + 1) % 4] - pts[k]
            hits = {l for l in range(5)
                    if abs(e - pentagrid.normals[l]) < 1e-9
                    or abs(e + pentagrid.normals[l]) < 1e-9}
            assert hits and hits <= allowed


def test_tile_singular_crossing_raises():
    spec = MultigridSpec.dfold(5, 0.0)
    c = mg.make_crossing(spec, LineId(0, 0), LineId(1, 0))  # at the origin
    with pytest.raises(SingularMultigrid):
        dual.tile_of_crossing(spec, c)


# windows ---------------------------------------------------------------------

def test_window_square_block(square):
    # radius 2.9 covers exactly the integer crossings with both coordinates
    # in -2..2 (corner distance sqrt(8) = 2.83): a 5x5 block of unit cells
    window = dual.tiling_window(square, 2.9)
    assert len(window) == 25
    cycles = dual.corner_cycles(window.corners, window.positions)
    vertex_keys = list(window.vertex_keys())
    for n, (_, ki, _, kj) in enumerate(window.keys()):
        assert vertex_keys[window.corners[4 * n]] == (ki, kj)
        base = cycles[n][0]
        expected = [base, base + 1, base + 1 + 1j, base + 1j]
        for got, want in zip(cycles[n], expected):
            assert abs(got - want) < 1e-12


def test_window_pentagrid_edge_to_edge(pentagrid):
    detail = check_edge_to_edge(pentagrid, 8.0)
    assert "disjoint" in detail


def test_window_penrose_offsets_valid():
    # offsets summing to 0 mod 1 give the classic matching-rule tilings;
    # structure checks are identical
    spec = MultigridSpec.dfold(5, [0.1, 0.15, 0.2, 0.25, 0.3])
    assert sum(spec.offsets) % 1.0 == pytest.approx(0.0, abs=1e-12)
    assert mg.check_regular(spec, 8.0).is_regular
    check_edge_to_edge(spec, 8.0)


def test_window_vertices_deduplicated(pentagrid):
    """Each corner key is listed once, at its key's position, and every
    tile's corners are those of tile_of_crossing."""
    for spec, radius in ((pentagrid, 12.0), (random_multigrid(7, 47), 8.0)):
        window = dual.tiling_window(spec, radius)
        vertex_keys = list(window.vertex_keys())
        assert len(set(vertex_keys)) == len(vertex_keys)
        assert window.positions == [dual.vertex_position(spec, key) for key in vertex_keys]
        for n, key in enumerate(window.keys()):
            corners = tuple((vertex_keys[m], window.positions[m])
                            for m in window.corners[4 * n:4 * n + 4])
            assert corners == dual.tile_of_crossing(spec, crossing_of(spec, key))


def test_hot_dataclasses_are_slotted_and_round_trip(pentagrid):
    """Crossing keeps no instance __dict__ and survives pickle and deepcopy
    with equality and hash; its equality still ignores its point."""
    c = mg.nearest_crossing(pentagrid)
    assert not hasattr(c, "__dict__")
    for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert twin is not c
        assert twin == c and hash(twin) == hash(c)
    assert pickle.loads(pickle.dumps(c)).point == c.point
    moved = mg.Crossing(c.a, c.b, c.point + 1)
    assert moved == c and hash(moved) == hash(c)


def test_packed_window_accessors(pentagrid):
    """key(n) and keys() decode the same keys, index finds each tile and
    refuses a key outside the window, and the vertex keys decode to d ints
    each.  That the keys come sorted is test_multigrid's window-order
    check."""
    window = dual.tiling_window(pentagrid, 5.0)
    keys = list(window.keys())
    assert len(keys) == len(window) > 100
    assert [window.key(n) for n in range(len(window))] == keys
    assert window.key(-1) == keys[-1]
    assert [window.index(key) for key in keys] == list(range(len(keys)))
    for outside in [(0, 0, 1, 99), (0, -99, 1, 0), (4, 0, 4, 0)]:
        with pytest.raises(ValueError):
            window.index(outside)
    vertex_keys = list(window.vertex_keys())
    assert len(vertex_keys) == len(window.positions)
    assert all(len(key) == pentagrid.d for key in vertex_keys)


def test_window_singular_raises():
    with pytest.raises(SingularMultigrid):
        dual.tiling_window(MultigridSpec.dfold(5, 0.0), 3.0)


def test_adjacent_tiles_share_edge_iff_consecutive(pentagrid):
    window = dual.tiling_window(pentagrid, 6.0)
    keys = list(window.keys())
    vertex_keys = list(window.vertex_keys())
    corner_keys = [vertex_keys[m] for m in window.corners]
    edges = {key: {frozenset((corner_keys[4 * n + k], corner_keys[4 * n + (k + 1) % 4]))
                   for k in range(4)}
             for n, key in enumerate(keys)}
    rng = Random(9)
    inner = [key for key, (x, y) in zip(keys, mg.crossing_pairs(pentagrid, keys))
             if abs(complex(x, y)) < 4.0]
    for key in rng.sample(inner, 25):
        my_edges = edges[key]
        neighbor_set = set(mg.neighbor_keys(pentagrid, key))
        for other in keys:
            if other == key:
                continue
            shared = my_edges & edges[other]
            if other in neighbor_set:
                assert len(shared) == 1
            else:
                assert not shared


# the table window against a per-crossing reference ---------------------------

def reference_tiles(spec, radius):
    """Per-crossing reference for tiling_window: enumerate_crossings, then
    each crossing's corner keys from the levels at its point, then
    vertex_position of each corner.  Per tile: (crossing, corner keys,
    corner positions)."""
    tiles = []
    for c in mg.enumerate_crossings(spec, radius):
        i, ki, j, kj = c.key
        base = []
        for l in range(spec.d):
            if l in (i, j):
                base.append(ki if l == i else kj)
                continue
            u = spec.level(l, c.point)
            if abs(u - round(u)) <= EPS_SINGULAR:
                raise SingularMultigrid(f"a grid-{l} line passes through crossing {c.key}")
            base.append(math.ceil(u))
        keys = []
        for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
            corner = list(base)
            corner[i] += di
            corner[j] += dj
            keys.append(tuple(corner))
        tiles.append((c, tuple(keys), tuple(dual.vertex_position(spec, k) for k in keys)))
    return tiles


def reference_csv(tiles):
    rows = ["i,j,ki,kj,key0,key1,key2,key3,x0,y0,x1,y1,x2,y2,x3,y3"]
    for c, keys, points in sorted(tiles, key=lambda tile: tile[0].key):
        i, ki, j, kj = c.key
        rows.append(",".join([str(i), str(j), str(ki), str(kj),
                              *(" ".join(map(str, key)) for key in keys),
                              *(f"{p.real!r},{p.imag!r}" for p in points)]))
    return "\n".join(rows) + "\n"


def reference_svg(spec, radius, tiles):
    """The reference tiles sorted by crossing key, each with its own four
    position entries, filled by grid pair, drawn by test_io's tuple
    renderer (so a fault in render_svg's paths shows here too)."""
    pairs = [(i, j) for i in range(spec.d) for j in range(i + 1, spec.d)]
    fills = cio.TYPE_FILLS
    tiles = sorted(tiles, key=lambda tile: tile[0].key)
    layer = cio.TilesLayer([p for _, _, points in tiles for p in points],
                           range(4 * len(tiles)),
                           [fills[pairs.index((c.a.grid, c.b.grid)) % len(fills)]
                            for c, _, _ in tiles])
    return outcome(reference_render, cio.SceneSpec(radius * spec.d / 2 + 2.0, (layer,)))


def bits(z):
    """A complex number's exact bits: tells 0.0 from -0.0."""
    return z.real.hex(), z.imag.hex()


@st.composite
def window_specs(draw):
    """random_multigrid(d, s) for d = 3..9, or a walk_specs draw, and a
    radius in [0, 8]."""
    if draw(st.booleans()):
        spec = random_multigrid(draw(st.integers(3, 9)), draw(st.integers(0, 10**6)))
    else:
        spec = draw(walk_specs())
    return spec, draw(st.floats(0.0, 8.0))


@given(spec_radius=window_specs())
def test_table_window_matches_per_crossing_reference(spec_radius):
    """The same tiles in the same order, with the same corner keys and
    bit-equal points and positions, each vertex key listed once, and the
    same tiles.csv and tiling.svg bytes as the per-crossing reference; or
    the same SingularMultigrid message."""
    spec, radius = spec_radius
    try:
        want = reference_tiles(spec, radius)
    except SingularMultigrid as exc:
        with pytest.raises(SingularMultigrid) as got:
            dual.tiling_window(spec, radius)
        assert str(got.value) == str(exc)
        return
    window = dual.tiling_window(spec, radius)
    assert [tile[0].key for tile in want] == list(window.keys())
    cycles = dual.corner_cycles(window.corners, window.positions)
    pairs = list(mg.crossing_pairs(spec, window.keys()))
    vertex_keys = list(window.vertex_keys())
    for n, (c, keys, points) in enumerate(want):
        assert bits(complex(*pairs[n])) == bits(c.point)
        assert tuple(vertex_keys[m] for m in window.corners[4 * n:4 * n + 4]) == keys
        assert list(map(bits, cycles[n])) == list(map(bits, points))
    assert len(set(vertex_keys)) == len(vertex_keys) \
        == len({key for _, keys, _ in want for key in keys})
    buf = StringIO()
    cio.write_tiles_csv(window, buf)
    assert first_difference(buf.getvalue(), reference_csv(want)) is None
    assert first_difference(outcome(cio.render_svg, cio.tiling_scene(window)),
                            reference_svg(spec, radius, want)) is None


# A third line at offset g passes at level -g through the crossing of lines
# 0 and 1 at the origin: within EPS_SINGULAR of the integer above it for
# g near 1e-7, and of the integer below it for g near 1 - 1e-7, where
# fold_offset maps -1e-7 (whose own neighbours fold to the same offset).
_FOLDED = mg.fold_offset(-1e-7)
_REFUSAL_CASES = [
    (MultigridSpec.dfold(5, 0.0), True),                   # five lines through the origin
    *((MultigridSpec.from_angles([0, 90, 10], [0, 0, g]), refused) for g, refused in [
        (5e-8, True),
        (math.nextafter(1e-7, 0), True),
        (1e-7, True),
        (math.nextafter(1e-7, 1), False),
        (-1e-7, True),
        (math.nextafter(_FOLDED, 0), False),
        (math.nextafter(_FOLDED, 1), True),
    ]),
]


@pytest.mark.parametrize(("spec", "refused"), _REFUSAL_CASES,
                         ids=[f"spec{k}" for k in range(len(_REFUSAL_CASES))])
def test_table_window_refuses_as_per_crossing_reference(spec, refused):
    """Across EPS_SINGULAR, tiling_window refuses exactly where the
    per-crossing reference refuses, with its message, and otherwise gives
    its corner keys."""
    try:
        want = reference_tiles(spec, 3.0)
    except SingularMultigrid as exc:
        assert refused
        with pytest.raises(SingularMultigrid) as got:
            dual.tiling_window(spec, 3.0)
        assert str(got.value) == str(exc)
        return
    assert not refused
    window = dual.tiling_window(spec, 3.0)
    vertex_keys = list(window.vertex_keys())
    assert [tuple(vertex_keys[m] for m in window.corners[4 * n:4 * n + 4])
            for n in range(len(window))] == [keys for _, keys, _ in want]


def test_negative_window_radius_is_refused(pentagrid):
    with pytest.raises(ValidationError, match=r"radius must be >= 0, got -3\.0"):
        dual.tiling_window(pentagrid, -3.0)
