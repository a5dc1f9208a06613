import math
import sys
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from coronagrid import analysis, certify, geom, graph, multigrid as mg
from coronagrid.cli import run
from coronagrid.dual import corner_tables, linear_dual
from coronagrid.errors import (CoronagridError, GridNotRepresented, NotACrossing,
                               ResourceLimit, SingularMultigrid, ValidationError)
from coronagrid.geom import cross, hull_chain_xy, perp
from coronagrid.multigrid import MultigridSpec


# characteristic polygons -----------------------------------------------------

def test_pentagrid_radii_closed_form(pentagrid):
    chi = analysis.grid_char_polygon(pentagrid)
    expect = 1.0 / (2 * math.sin(2 * math.pi / 5) + 2 * math.sin(4 * math.pi / 5))
    assert chi.radii == (pytest.approx(expect, abs=1e-12),) * 5
    chid = analysis.tiling_char_polygon(pentagrid)
    assert chid.radii == (pytest.approx(2.5 * expect, abs=1e-12),) * 5
    assert len(chi.vertices) == len(chid.vertices) == 10


def test_square_grid_is_tilted_square(square):
    chi = analysis.grid_char_polygon(square)
    assert chi.radii == (1.0, 1.0)
    assert {complex(round(v.real), round(v.imag)) for v in chi.vertices} \
        == {1j, -1j, 1 + 0j, -1 + 0j}
    chid = analysis.tiling_char_polygon(square)
    for v in chi.vertices:
        assert min(abs(v - w) for w in chid.vertices) < 1e-12


def test_threefold_hexagon():
    chi = analysis.grid_char_polygon(MultigridSpec.dfold(3, 0.2))
    assert chi.radii == (pytest.approx(1 / math.sqrt(3), abs=1e-12),) * 3
    assert len(chi.vertices) == 6


def test_tiling_polygon_is_linear_dual_of_grid_polygon(pentagrid):
    chi = analysis.grid_char_polygon(pentagrid)
    chid = analysis.tiling_char_polygon(pentagrid)
    images = {linear_dual(pentagrid, v) for v in chi.vertices}
    for w in chid.vertices:
        assert min(abs(w - im) for im in images) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_dfold_tiling_radius_is_half_d(d):
    spec = MultigridSpec.dfold(d, 0.4)
    chi = analysis.grid_char_polygon(spec)
    chid = analysis.tiling_char_polygon(spec)
    for i in range(d):
        want = (d / 2) * chi.radii[i] * perp(spec.normals[i])
        assert min(abs(v - want) for v in chid.vertices) < 1e-12


def test_char_polygons_centrally_symmetric_with_parallel_sides():
    for spec in (MultigridSpec.dfold(5, 0.5),
                 MultigridSpec.from_angles([0, 30, 75, 110], 0.3)):
        for cp in (analysis.grid_char_polygon(spec),
                   analysis.tiling_char_polygon(spec)):
            verts = cp.vertices
            n = len(verts)
            for v in verts:
                assert min(abs(v + w) for w in verts) < 1e-12
            for k in range(n):
                e1 = verts[(k + 1) % n] - verts[k]
                e2 = verts[(k + 1 + n // 2) % n] - verts[(k + n // 2) % n]
                assert abs(cross(e1, e2)) < 1e-9 * abs(e1) * abs(e2)
            assert len(geom.hull_chain(verts)) == n  # convex, no vertex dropped


def test_char_polygon_offset_invariant():
    a = analysis.grid_char_polygon(MultigridSpec.dfold(5, 0.5))
    b = analysis.grid_char_polygon(MultigridSpec.dfold(5, [0.9, 0.1, 0.3, 0.7, 0.2]))
    assert a.vertices == b.vertices and a.radii == b.radii
    ta = analysis.tiling_char_polygon(MultigridSpec.dfold(5, 0.5))
    tb = analysis.tiling_char_polygon(MultigridSpec.dfold(5, [0.9, 0.1, 0.3, 0.7, 0.2]))
    assert ta.vertices == tb.vertices


# normalized shapes -----------------------------------------------------------

def test_normalized_shape_square_diamond(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    row, = analysis.convergence_table(square, graph.Patch(frozenset([seed])), [10],
                                      "multigrid")
    assert row.h < 1e-9


def test_normalized_shape_single_tile_tiling_side(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    _, _, positions = corner_tables(pentagrid, [seed.key])
    assert len(geom.hull_chain(positions)) == 4  # one rhombus


def test_normalized_shape_first_corona_no_failure(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    row, = analysis.convergence_table(pentagrid, seed, [1], "multigrid")
    assert row.hull_vertices >= 3


# convergence -----------------------------------------------------------------

def nearest_patch(spec):
    return graph.Patch(frozenset([mg.nearest_crossing(spec)]))


def test_convergence_square_exact(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    rows = analysis.convergence_table(square, graph.Patch(frozenset([seed])),
                                      [5, 10, 20], "multigrid")
    for r in rows:
        assert r.n_times_h <= 2.0
        assert r.h == pytest.approx(0.0, abs=1e-9)


def test_convergence_pentagrid_decreasing(pentagrid, pentagrid_run):
    rows = analysis.convergence_table(pentagrid, nearest_patch(pentagrid),
                                      [10, 20, 40, 80], "tiling",
                                      sequence=pentagrid_run)
    h = {r.n: r.h for r in rows}
    assert h[80] < h[10]
    assert h[80] <= 0.1
    assert all(r.side == "tiling" for r in rows)


def test_convergence_multigrid_side(pentagrid, pentagrid_run):
    rows = analysis.convergence_table(pentagrid, nearest_patch(pentagrid),
                                      [10, 40, 80], "multigrid",
                                      sequence=pentagrid_run)
    h = {r.n: r.h for r in rows}
    assert h[80] < h[10]


def test_convergence_offset_independent_target(pentagrid):
    other = MultigridSpec.dfold(5, [0.13, 0.42, 0.77, 0.31, 0.58])
    assert (analysis.tiling_char_polygon(other).vertices
            == analysis.tiling_char_polygon(pentagrid).vertices)
    seed = graph.Patch(frozenset([mg.nearest_crossing(other)]))
    rows = analysis.convergence_table(other, seed, [10, 40], "tiling")
    assert rows[-1].h < rows[0].h


@pytest.mark.parametrize("side", ["multigrid", "tiling"])
@pytest.mark.parametrize("spec", [certify.SQUARE]
                         + [certify.random_multigrid(d, 40 + d) for d in range(3, 8)])
def test_convergence_rows_equal_hulls_of_whole_coronas(spec, side):
    """The hull grown frontier by frontier gives the same rows, bit for bit,
    as the hull of each whole corona: geom.convex_hull over all of P_n's
    points (crossings, or distinct tile corners), scaled by 1/n."""
    patch = nearest_patch(spec)
    seq = graph.corona_sequence(spec, patch, 12)
    ns = [1, 4, 4, 9, 12]
    target = (analysis.grid_char_polygon(spec) if side == "multigrid" else
              analysis.tiling_char_polygon(spec))
    want = []
    for n in ns:
        keys = seq.corona(n)
        points = ([mg.crossing_point(spec, (i, ki), (j, kj)) for i, ki, j, kj in keys]
                  if side == "multigrid" else corner_tables(spec, keys)[2])
        hull = [(1.0 / n) * v for v in geom.convex_hull(points).vertices]
        want.append(analysis.ConvergenceRow(n, side, len(hull),
                                            geom.hausdorff_between(hull, target.vertices)))
    assert analysis.convergence_table(spec, patch, ns, side, sequence=seq) == want


@pytest.mark.parametrize("side", ["multigrid", "tiling"])
@pytest.mark.parametrize("spec", [MultigridSpec.dfold(5, 0.5)]
                         + [certify.random_multigrid(d, 60 + d) for d in (4, 6, 7)])
def test_streamed_convergence_rows_equal_collected(spec, side):
    """Without a sequence the table streams its layers from corona_layers;
    its rows equal those read from a collected corona_sequence, h bit for
    bit."""
    patch = graph.Patch(frozenset([mg.nearest_crossing(spec)]))
    ns = [1, 5, 5, 20, 30]
    want = analysis.convergence_table(spec, patch, ns, side,
                                      sequence=graph.corona_sequence(spec, patch, 30))
    got = analysis.convergence_table(spec, patch, ns, side)
    assert [(r.n, r.h.hex(), r.hull_vertices) for r in got] == \
        [(r.n, r.h.hex(), r.hull_vertices) for r in want]
    assert got == want


@pytest.mark.parametrize("side", ["multigrid", "tiling"])
def test_streamed_convergence_table_refuses_at_the_cap(pentagrid, monkeypatch, side):
    """Under $CORONAGRID_MAX_CROSSINGS the streamed table raises the
    ResourceLimit of corona_sequence, after expanding the same layers."""
    patch = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    expanded = []

    def counting(spec, layer):
        expanded.append(len(layer))
        return mg.frontier_neighbor_keys(spec, layer)

    monkeypatch.setattr(graph, "frontier_neighbor_keys", counting)
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", "500")
    with pytest.raises(ResourceLimit) as collected:
        graph.corona_sequence(pentagrid, patch, 40)
    collected_layers = list(expanded)
    expanded.clear()
    with pytest.raises(ResourceLimit) as streamed:
        analysis.convergence_table(pentagrid, patch, [10, 40], side)
    assert expanded == collected_layers and len(expanded) > 10
    assert str(streamed.value) == str(collected.value)


def test_streamed_convergence_table_holds_the_frontier(pentagrid, traced_memory):
    """Without a sequence the table to n holds the frontier, not the ball:
    each layer is dropped once its points are in the hull.  The multigrid
    side to n=120 peaks at about 0.58 of the 32 B per crossing a packed
    corona_sequence to n=120 keeps, under the bound of 3/4.  The tiling
    side also holds the last two frontiers' maps from vertex key to
    position, about 200 B per vertex, so to n=80 it peaks at about 1.26
    times the packed ball; a map that kept every vertex of the ball would
    peak at about nine times it.  traced_memory collects first, so these
    peaks do not depend on what the process ran before.  (These n keep
    each traced run to a few seconds.)"""
    patch = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    for side, n, share in (("multigrid", 120, 3 / 4), ("tiling", 80, 2)):
        seq = graph.corona_sequence(pentagrid, patch, n)
        held = sum(map(sys.getsizeof, seq.packed))
        del seq
        _, _, peak = traced_memory(analysis.convergence_table, pentagrid, patch, [10, n], side)
        assert peak < held * share, side


def test_convergence_table_refuses_an_unknown_side(pentagrid, monkeypatch):
    """A side other than 'multigrid' or 'tiling' is refused before any
    growth."""
    def no_growth(spec, layer):
        raise AssertionError("the table grew a layer")

    monkeypatch.setattr(graph, "frontier_neighbor_keys", no_growth)
    with pytest.raises(ValidationError,
                       match="side must be 'multigrid' or 'tiling', got 'tilling'"):
        analysis.convergence_table(pentagrid, nearest_patch(pentagrid), [4], "tilling")


def test_tiling_rows_hull_every_corner_of_every_frontier():
    """The tiling side feeds the hull chain every distinct corner of every
    frontier, also the corners whose positions it takes from the previous
    frontier: its rows equal, h bit for bit, those of a loop that hulls
    the chain with all of corner_tables' positions, layer by layer.  Hull
    rows depend on which redundant points reach the chain: on this spec a
    feed of only the corners no earlier frontier had gives 21 hull
    vertices at n = 73, not 22."""
    spec = certify.random_offsets_pentagrid(12)
    patch = nearest_patch(spec)
    target = analysis.tiling_char_polygon(spec).vertices
    want = []
    chain = []
    for n, layer in enumerate(graph.corona_layers(spec, patch, 80)):
        chain = hull_chain_xy(chain + [(p.real, p.imag) for p in corner_tables(spec, layer)[2]])
        if n:
            h = geom.hausdorff_between([(1.0 / n) * complex(x, y) for x, y in chain], target)
            want.append((n, h.hex(), len(chain)))
    rows = analysis.convergence_table(spec, patch, range(1, 81), "tiling")
    assert [(r.n, r.h.hex(), r.hull_vertices) for r in rows] == want


# endpoints -------------------------------------------------------------------

def test_endpoints_diagnostic_square(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    rows = analysis.endpoints_diagnostic(square, graph.Patch(frozenset([seed])),
                                         [0, 5, 20])
    by_n = {r.n: r for r in rows}
    assert by_n[0].h <= 2.0  # raw hull of the seed, finite
    for n in (5, 20):
        assert by_n[n].n_times_h <= 2.0


def test_endpoints_diagnostic_pentagrid_decreasing(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    rows = analysis.endpoints_diagnostic(pentagrid, seed, [20, 80])
    h = {r.n: r.h for r in rows}
    assert h[80] < h[20]
    assert all(math.isfinite(r.n_times_h) for r in rows)


def test_endpoints_diagnostic_large_d():
    """dfold(131) needs 65 corona steps before every grid has a line through
    the patch, more than the old fixed bound of 64."""
    spec = MultigridSpec.dfold(131, 0.5)
    seed = graph.Patch(frozenset([mg.nearest_crossing(spec)]))
    rows = analysis.endpoints_diagnostic(spec, seed, [0, 3])
    assert [r.n for r in rows] == [0, 3] and all(math.isfinite(r.h) for r in rows)


def test_grow_until_dominant_names_missing_grids(pentagrid, monkeypatch):
    """Out of steps, the refusal names the grids the patch still lacks."""
    monkeypatch.setattr(analysis, "_dominant_steps", lambda d: 0)
    seed = mg.nearest_crossing(pentagrid)
    with pytest.raises(GridNotRepresented) as err:
        analysis.grow_until_dominant(pentagrid, graph.Patch(frozenset([seed])))
    assert err.value.missing == tuple(g for g in range(5) if g not in (seed.a.grid, seed.b.grid))
    assert len(err.value.missing) == 3


def test_grow_until_dominant(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    ball, lines, steps = analysis.grow_until_dominant(pentagrid, seed)
    assert steps >= 1
    assert {g for i, _, j, _ in ball for g in (i, j)} == set(range(5))
    for i in range(5):
        assert any(lines[i] in ((a, ka), (b, kb)) for a, ka, b, kb in ball)


def _crossing_at(spec, z):
    """The crossing at point z: exactly two grid levels within 1e-6 of an
    integer, else NotACrossing."""
    on = []
    for i in range(spec.d):
        u = spec.level(i, z)
        if abs(u - round(u)) <= 1e-6:
            on.append(mg.LineId(i, round(u)))
    if len(on) != 2:
        raise NotACrossing(f"{z} lies on {len(on)} grid lines, need exactly 2")
    return mg.make_crossing(spec, *on)


def per_n_endpoint_rows(spec, patch, ns):
    """Reference for endpoints_diagnostic: grow with graph.neighbors until
    dominant_lines succeeds, then, for every n on its own, walk n crossings
    out from the ball's extremes, one next_crossing_on_line step at a time
    (_crossing_at at n = 0)."""
    layers = graph.bfs_layers(patch.crossings,
                              lambda layer: {nb for c in layer for nb in graph.neighbors(spec, c)})
    ball = frozenset()
    for layer in islice(layers, 65):
        ball |= layer
        try:
            lines = mg.dominant_lines(spec, [c.key for c in ball])
            break
        except GridNotRepresented:
            continue
    else:
        raise GridNotRepresented(tuple(range(spec.d)))
    target = analysis.grid_char_polygon(spec)
    rows = []
    for n in sorted(ns):
        points = []
        for line in lines:
            by_t = sorted((c for c in ball if line in (c.a, c.b)),
                          key=lambda c: spec.line_parameter(line, c.point))
            for start, direction in ((by_t[-1], +1), (by_t[0], -1)):
                end = _crossing_at(spec, start.point) if n == 0 else None
                t = spec.line_parameter(line, start.point)
                for _ in range(n):
                    t, end = mg.next_crossing_on_line(spec, line, t, direction)
                points.append(end.point)
        chain = geom.hull_chain([p / max(n, 1) for p in points])
        rows.append(analysis.EndpointRow(n, geom.hausdorff_between(chain, target.vertices)))
    return rows


def _rows_or_refusal(diagnostic, spec, patch, ns):
    try:
        return diagnostic(spec, patch, ns)
    except CoronagridError as exc:
        return type(exc)


@given(d=st.integers(3, 7), s=st.integers(0, 10**6), ball=st.integers(0, 2),
       ns=st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_endpoints_diagnostic_matches_per_n_walk(d, s, ball, ns):
    """One walk per dominant line and direction gives the rows of a fresh
    walk per n; where one refuses, so does the other, with the same type."""
    spec = certify.random_multigrid(d, s)
    layers = graph.bfs_layers([mg.nearest_crossing(spec)],
                              lambda layer: {nb for c in layer for nb in graph.neighbors(spec, c)})
    patch = graph.Patch(frozenset().union(*islice(layers, ball + 1)))
    ns = [0, *ns, ns[0]]   # n = 0 and a repeated n in every example
    assert _rows_or_refusal(analysis.endpoints_diagnostic, spec, patch, ns) \
        == _rows_or_refusal(per_n_endpoint_rows, spec, patch, ns)


@pytest.mark.parametrize("ns, refused", [([0, 2], False), ([0, 3, 30, 30], True)])
def test_endpoints_diagnostic_refuses_as_per_n_walk(ns, refused):
    """Three lines meet only at the origin.  Seeded at (0, 6), the patch
    grows without refusal, and the walk down the dominant line x = 0 reaches
    the origin only when it runs past n = 2."""
    spec = MultigridSpec.from_angles([0, 90, 37], [0.0, 0.0, 0.0])
    patch = graph.Patch(frozenset([mg.make_crossing(spec, mg.LineId(0, 0), mg.LineId(1, 6))]))
    got = _rows_or_refusal(analysis.endpoints_diagnostic, spec, patch, ns)
    assert got == _rows_or_refusal(per_n_endpoint_rows, spec, patch, ns)
    assert (got is SingularMultigrid) == refused


def test_endpoint_and_seed_paths_walk_keys(pentagrid, tmp_path, monkeypatch):
    """endpoints_diagnostic, grow_until_dominant and a --ball seed run with
    the Crossing-object neighbor walk switched off, under every name a
    coronagrid module binds it to."""
    def no_object_walk(*args):
        raise AssertionError("graph.neighbors called")

    original = graph.neighbors
    for module in list(sys.modules.values()):
        if (module.__name__.partition(".")[0] == "coronagrid"
                and getattr(module, "neighbors", None) is original):
            monkeypatch.setattr(module, "neighbors", no_object_walk)
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    assert len(analysis.endpoints_diagnostic(pentagrid, seed, [0, 3])) == 2
    assert analysis.grow_until_dominant(pentagrid, seed)[2] >= 1
    assert run(["corona", "--dfold", "5", "--n", "3", "--ball", "2",
                "--out", str(tmp_path)]) == 0
