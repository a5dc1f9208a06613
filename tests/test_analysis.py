import math

import pytest

from coronagrid import analysis, certify, geom, graph, multigrid as mg
from coronagrid.dual import linear_dual
from coronagrid.errors import DegenerateInput
from coronagrid.geom import cross, perp
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
            assert cp.polygon.n == n  # convex, no vertex dropped


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
    seq = graph.corona_sequence(square, graph.Patch(frozenset([seed])), 10)
    hull = analysis.normalized_shape(square, seq.corona(10), 10, "multigrid")
    target = analysis.grid_char_polygon(square).polygon
    assert geom.hausdorff_distance(hull, target) < 1e-9


def test_normalized_shape_single_tile_tiling_side(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    hull = analysis.normalized_shape(pentagrid, [seed], 1, "tiling")
    assert hull.n == 4  # one rhombus


def test_normalized_shape_degenerate_raises(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    with pytest.raises(DegenerateInput):
        analysis.normalized_shape(pentagrid, [seed], 1, "multigrid")


def test_normalized_shape_first_corona_no_failure(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    p1 = graph.corona_step(pentagrid, seed)
    hull = analysis.normalized_shape(pentagrid, p1.crossings, 1, "multigrid")
    assert hull.n >= 3


# convergence -----------------------------------------------------------------

def test_convergence_square_exact(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    rows = analysis.convergence_table(square, graph.Patch(frozenset([seed])),
                                      [5, 10, 20], "multigrid")
    for r in rows:
        assert r.n_times_h <= 2.0
        assert r.h == pytest.approx(0.0, abs=1e-9)


def test_convergence_pentagrid_decreasing(pentagrid, pentagrid_run):
    rows = analysis.convergence_table(pentagrid, pentagrid_run.base,
                                      [10, 20, 40, 80], "tiling",
                                      sequence=pentagrid_run)
    h = {r.n: r.h for r in rows}
    assert h[80] < h[10]
    assert h[80] <= 0.1
    assert all(r.side == "tiling" for r in rows)


def test_convergence_multigrid_side(pentagrid, pentagrid_run):
    rows = analysis.convergence_table(pentagrid, pentagrid_run.base,
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
    as the hull of each whole corona."""
    seq = graph.corona_sequence(spec, graph.Patch(frozenset([mg.nearest_crossing(spec)])), 12)
    ns = [1, 4, 4, 9, 12]
    target = analysis.char_polygon(spec, side).polygon
    want = []
    for n in ns:
        hull = analysis.normalized_shape(spec, seq.corona(n), n, side)
        want.append(analysis.ConvergenceRow(n, side, hull,
                                            geom.hausdorff_distance(hull, target)))
    assert analysis.convergence_table(spec, seq.base, ns, side, sequence=seq) == want


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


def test_grow_until_dominant(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    patch, lines, steps = analysis.grow_until_dominant(pentagrid, seed)
    assert steps >= 1
    represented = set()
    for c in patch.crossings:
        represented.update(c.grids)
    assert represented == set(range(5))
    for i in range(5):
        assert any(lines[i] in (c.a, c.b) for c in patch.crossings)


# sandwich --------------------------------------------------------------------

def test_corona_sandwich_deviation_settles(pentagrid, pentagrid_run):
    rows = analysis.corona_sandwich(pentagrid, pentagrid_run, [20, 40, 80])
    devs = [r.deviation for r in rows]
    assert devs[0] >= devs[1] >= devs[2]
    assert all(0 <= d < 5 for d in devs)
