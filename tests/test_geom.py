import cmath
import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from coronagrid import geom
from coronagrid.certify import random_multigrid
from coronagrid.dual import tiling_window
from coronagrid.errors import DegenerateInput


def rand_point(rng, scale=10.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


# scalar product ------------------------------------------------------------

def test_scalar_product_orthogonal_units():
    assert geom.scalar_product(1 + 0j, 1j) == 0.0
    assert geom.scalar_product(1 + 0j, 1 + 0j) == 1.0


def test_scalar_product_pentagrid_directions():
    z0, z1 = 1 + 0j, cmath.exp(2j * math.pi / 5)
    assert geom.scalar_product(geom.perp(z0), z1) == pytest.approx(
        math.sin(2 * math.pi / 5), abs=1e-12)


def test_scalar_product_symmetric_bilinear():
    rng = Random(0)
    for _ in range(200):
        a, b, c = (rand_point(rng) for _ in range(3))
        lam = rng.uniform(-3, 3)
        assert geom.scalar_product(a, b) == pytest.approx(
            geom.scalar_product(b, a), abs=1e-12)
        assert geom.scalar_product(a, lam * b + c) == pytest.approx(
            lam * geom.scalar_product(a, b) + geom.scalar_product(a, c), abs=1e-9)


# convex hull ---------------------------------------------------------------

def test_hull_drops_interior_point():
    tri = geom.convex_hull([0j, 1 + 0j, 1j, 0.2 + 0.2j])
    assert set(tri.vertices) == {0j, 1 + 0j, 1j}


def test_hull_square_with_center():
    sq = geom.convex_hull([0j, 1 + 0j, 1 + 1j, 1j, 0.5 + 0.5j])
    assert set(sq.vertices) == {0j, 1 + 0j, 1 + 1j, 1j}


def _point_in_polygon_oracle(p, vertices):
    # independent of geom: winding by explicit half-plane checks
    n = len(vertices)
    for k in range(n):
        a, b = vertices[k], vertices[(k + 1) % n]
        if (b.real - a.real) * (p.imag - a.imag) - (b.imag - a.imag) * (p.real - a.real) < -1e-9:
            return False
    return True


def test_hull_contains_all_disk_samples():
    rng = Random(1)
    pts = []
    for _ in range(1000):
        r = math.sqrt(rng.random())
        a = rng.uniform(0, 2 * math.pi)
        pts.append(cmath.rect(r, a))
    hull = geom.convex_hull(pts)
    assert all(abs(v) <= 1 + 1e-9 for v in hull.vertices)
    assert all(_point_in_polygon_oracle(p, hull.vertices) for p in pts)


def test_hull_idempotent():
    rng = Random(2)
    pts = [rand_point(rng) for _ in range(100)]
    hull = geom.convex_hull(pts)
    again = geom.convex_hull(hull.vertices)
    assert hull.vertices == again.vertices


def test_hull_collinear_raises():
    with pytest.raises(DegenerateInput):
        geom.convex_hull([0j, 1 + 1j, 2 + 2j, 3 + 3j])


def test_hull_canonical_start_vertex():
    hull = geom.convex_hull([1 + 0.5j, -1 + 0.5j, -1 - 0.5j, 1 - 0.5j])
    # smallest polar angle first, counterclockwise after
    assert hull.vertices[0] == 1 + 0.5j


def complex_hull_chain(points):
    """Reference: the monotone chain on complex numbers, with the orientation
    test as cross(b - a, p - b)."""
    pts = sorted(set((p.real, p.imag) for p in points))
    pts = [complex(x, y) for x, y in pts]
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and geom.cross(out[-1] - out[-2], p - out[-1]) <= geom.EPS_GEOM:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(list(reversed(pts)))[:-1]
    if len(hull) == 2 and abs(hull[0] - hull[1]) <= geom.EPS_GEOM:
        return hull[:1]
    return hull


_coords = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@st.composite
def clouds_with_duplicates(draw):
    pts = draw(st.lists(st.builds(complex, _coords, _coords), max_size=40))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    return pts


@st.composite
def lattice_runs(draw):
    """Collinear runs of integer lattice points, with repeats."""
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        ax, ay, dx, dy = draw(st.tuples(*[st.integers(-5, 5)] * 4))
        pts += [complex(ax + t * dx, ay + t * dy)
                for t in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8))]
    return pts


@st.composite
def eps_runs(draw):
    """Integer runs along an axis, each point off it by a multiple of
    EPS_GEOM, so some orientation tests land exactly on the threshold."""
    cells = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)),
                          min_size=1, max_size=12))
    pts = [complex(x, s * geom.EPS_GEOM) for x, s in cells]
    return [complex(p.imag, p.real) for p in pts] if draw(st.booleans()) else pts


@st.composite
def window_vertices(draw):
    d = draw(st.integers(3, 7))
    window = tiling_window(random_multigrid(d, draw(st.integers(0, 3))), 3.0)
    pts = sorted(set(window.positions),
                 key=lambda z: (z.imag, z.real))
    return pts[:draw(st.integers(1, len(pts)))]


@given(points=st.one_of(clouds_with_duplicates(), lattice_runs(), eps_runs(),
                        window_vertices()))
def test_hull_chain_matches_complex_reference(points):
    """Same list, signs of zero included, as the chain on complex numbers."""
    assert list(map(repr, geom.hull_chain(points))) == list(map(repr, complex_hull_chain(points)))


# hausdorff distance --------------------------------------------------------

def unit_square():
    return geom.convex_hull([0j, 1 + 0j, 1 + 1j, 1j])


def test_hausdorff_identity():
    p = unit_square()
    assert geom.hausdorff_distance(p, p) == 0.0


def test_hausdorff_translation():
    p = unit_square()
    q = geom.convex_hull([v + 1 for v in p.vertices])
    assert geom.hausdorff_distance(p, q) == pytest.approx(1.0, abs=1e-12)


def _decagon(radius):
    return geom.convex_hull([cmath.rect(radius, 2 * math.pi * k / 10)
                             for k in range(10)])


def test_hausdorff_concentric_decagons():
    small, big = _decagon(1.0), _decagon(1.1)
    h = geom.hausdorff_distance(small, big)
    assert h == pytest.approx(0.1, abs=1e-9)
    # oracle: dense boundary sampling of both polygons
    def boundary(poly, steps=200):
        pts = []
        v = poly.vertices
        for a, b in zip(v, v[1:] + v[:1]):
            pts.extend(a + (b - a) * k / steps for k in range(steps))
        return pts
    d1 = max(geom.dist_point_convex(p, big.vertices) for p in boundary(small))
    d2 = max(geom.dist_point_convex(p, small.vertices) for p in boundary(big))
    assert h == pytest.approx(max(d1, d2), abs=1e-6)


def _random_polygon(rng, n=8, scale=5.0):
    pts = [rand_point(rng, scale) for _ in range(n + 5)]
    return geom.convex_hull(pts)


def test_hausdorff_metric_properties():
    rng = Random(3)
    for _ in range(30):
        p, q, r = (_random_polygon(rng) for _ in range(3))
        hpq = geom.hausdorff_distance(p, q)
        assert hpq == geom.hausdorff_distance(q, p)  # symmetric, exact
        assert hpq > geom.EPS_GEOM or p.vertices == q.vertices
        # triangle inequality
        assert hpq <= (geom.hausdorff_distance(p, r)
                       + geom.hausdorff_distance(r, q) + 1e-9)


def test_hausdorff_scales_with_homothety():
    rng = Random(4)
    p, q = _random_polygon(rng), _random_polygon(rng)
    h = geom.hausdorff_distance(p, q)
    for lam in (0.5, 2.0, 10.0):
        hs = geom.hausdorff_distance(geom.convex_hull([lam * v for v in p.vertices]),
                                     geom.convex_hull([lam * v for v in q.vertices]))
        assert hs == pytest.approx(lam * h, abs=1e-9)


# scaling -------------------------------------------------------------------

def test_scale_charpolygon_vertices():
    from coronagrid import MultigridSpec, grid_char_polygon
    chi = grid_char_polygon(MultigridSpec.dfold(5, 0.5))
    scaled = chi.scaled_vertices(7.0)
    expected = {7.0 * v for v in chi.vertices}
    assert all(any(abs(v - e) < 1e-12 for e in expected) for v in scaled)
