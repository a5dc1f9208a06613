import math
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from coronagrid import graph, multigrid as mg
from coronagrid.certify import random_multigrid
from coronagrid.errors import DisconnectedPatch, ResourceLimit, Unreachable
from coronagrid.multigrid import LineId


def square_crossing(square, x, y):
    return mg.make_crossing(square, LineId(0, x), LineId(1, y))


# neighbors -------------------------------------------------------------------

def test_neighbors_square_lattice(square):
    c = square_crossing(square, 2, 3)
    got = {n.key for n in graph.neighbors(square, c)}
    assert got == {(0, 1, 1, 3), (0, 3, 1, 3), (0, 2, 1, 2), (0, 2, 1, 4)}


def test_neighbors_refuse_singular_point():
    spec = mg.MultigridSpec.dfold(5, 0.0)
    at_origin = mg.make_crossing(spec, LineId(0, 0), LineId(1, 0))
    with pytest.raises(mg.SingularMultigrid):
        graph.neighbors(spec, at_origin)


def test_neighbors_symmetric(pentagrid):
    rng = Random(0)
    crossings = mg.enumerate_crossings(pentagrid, 15.0)
    for c in rng.sample(crossings, 1000):
        for nb in graph.neighbors(pentagrid, c):
            assert c in graph.neighbors(pentagrid, nb)


def test_neighbors_consecutive_along_line(pentagrid):
    rng = Random(1)
    crossings = mg.enumerate_crossings(pentagrid, 10.0)
    for c in rng.sample(crossings, 60):
        for line in (c.a, c.b):
            t = pentagrid.line_parameter(line, c.point)
            successors = [n for n in graph.neighbors(pentagrid, c)
                          if line in (n.a, n.b)
                          and pentagrid.line_parameter(line, n.point) > t]
            assert len(successors) == 1
            t_next = pentagrid.line_parameter(line, successors[0].point)
            # margin above the walk's snap tolerance so neither endpoint
            # crossing is re-included
            between = mg.crossings_on_segment(pentagrid, line, t + 1e-6,
                                              t_next - 1e-6)
            assert between == []


# corona steps ----------------------------------------------------------------

def test_corona_step_square_cross(square):
    p = graph.Patch(frozenset([square_crossing(square, 0, 0)]))
    p1 = graph.corona_step(square, p)
    assert len(p1) == 5


def test_corona_step_superset_and_adjacent(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    p = graph.Patch(frozenset([seed]))
    p1 = graph.corona_step(pentagrid, p)
    assert p.crossings < p1.crossings
    for c in p1.crossings - p.crossings:
        assert any(nb in p.crossings for nb in graph.neighbors(pentagrid, c))


def test_corona_sequence_zero(square):
    p = graph.Patch(frozenset([square_crossing(square, 0, 0)]))
    seq = graph.corona_sequence(square, p, 0)
    assert seq.n_max == 0 and seq.corona(0) == p.crossings


def test_corona_sizes_square_diamond(square):
    p = graph.Patch(frozenset([square_crossing(square, 0, 0)]))
    seq = graph.corona_sequence(square, p, 20)
    # oracle: brute-force BFS on the integer lattice
    seen = {(0, 0)}
    frontier = [(0, 0)]
    oracle = [1]
    for _ in range(20):
        nxt = []
        for x, y in frontier:
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
        oracle.append(len(seen))
    assert seq.sizes() == oracle
    assert all(s == 2 * n * n + 2 * n + 1 for n, s in enumerate(seq.sizes()))


def test_frontiers_partition_and_match_bfs_distance(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    seq = graph.corona_sequence(pentagrid, graph.Patch(frozenset([seed])), 8)
    seen = set()
    for frontier in seq.frontiers:
        assert not (frontier & seen)
        seen |= frontier
    rng = Random(2)
    members = [(n, c) for n, f in enumerate(seq.frontiers) for c in f]
    for n, c in rng.sample(members, 25):
        assert graph.graph_distance(pentagrid, seed, c, cap=12) == n


def visited_set_bfs(spec, seed, n_max):
    """Reference BFS, independent of bfs_layers: crossing -> distance."""
    dist = {seed: 0}
    frontier = [seed]
    for n in range(1, n_max + 1):
        nxt = []
        for c in frontier:
            for nb in graph.neighbors(spec, c):
                if nb not in dist:
                    dist[nb] = n
                    nxt.append(nb)
        frontier = nxt
    return dist


@st.composite
def small_multigrids(draw):
    d = draw(st.integers(3, 7))
    angles = sorted(draw(st.lists(st.floats(0.0, 180.0, exclude_max=True),
                                  min_size=d, max_size=d)))
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + 180.0 - angles[-1]]
    assume(min(gaps) >= 2.0)
    offsets = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=d, max_size=d))
    return mg.MultigridSpec.from_angles(angles, offsets)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=small_multigrids(), n_max=st.integers(0, 5), data=st.data())
def test_layers_and_distance_match_visited_set_bfs(spec, n_max, data):
    seed = mg.nearest_crossing(spec)
    try:
        dist = visited_set_bfs(spec, seed, n_max + 1)
    except mg.SingularMultigrid:
        assume(False)
    seq = graph.corona_sequence(spec, graph.Patch(frozenset([seed])), n_max)
    for n, frontier in enumerate(seq.frontiers):
        assert frontier == {c for c, k in dist.items() if k == n}
    members = sorted(dist, key=lambda c: c.key)
    for c in data.draw(st.lists(st.sampled_from(members), max_size=5)):
        if dist[c] <= n_max:
            assert graph.graph_distance(spec, seed, c, cap=n_max) == dist[c]
        else:
            with pytest.raises(Unreachable):
                graph.graph_distance(spec, seed, c, cap=n_max)


def segment_neighbor_keys(spec, c):
    """Reference for graph.neighbor_keys from the closed-form-and-sort segment
    listing: on each line of c, the crossings just after and just before it.
    Every other grid crosses the line within `half` on either side."""
    half = max(1.0 / abs(spec.cross(i, l))
               for i in (c.a.grid, c.b.grid) for l in range(spec.d) if l != i)
    keys = []
    for line in (c.a, c.b):
        t = spec.line_parameter(line, c.point)
        on_line = [x.key for x in mg.crossings_on_segment(spec, line, t - half, t + half)]
        at = on_line.index(c.key)
        assert 0 < at < len(on_line) - 1
        keys += [on_line[at + 1], on_line[at - 1]]
    return tuple(keys)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=small_multigrids(), data=st.data())
def test_neighbor_keys_match_segment_listing(spec, data):
    """Where neighbor_keys refuses, the reference must refuse too; crossings
    that only the reference refuses are skipped."""
    ball = sorted(mg.enumerate_crossings(spec, 3.0), key=lambda c: c.key)
    for c in data.draw(st.lists(st.sampled_from(ball), min_size=1, max_size=8)):
        try:
            want = segment_neighbor_keys(spec, c)
        except mg.SingularMultigrid:
            continue
        assert graph.neighbor_keys(spec, c.key) == want


def test_frontier_growth_is_linear(pentagrid_run):
    f40 = len(pentagrid_run.frontiers[40])
    f80 = len(pentagrid_run.frontiers[80])
    assert 1.7 <= f80 / f40 <= 2.3


def test_corona_sequence_resource_cap(pentagrid):
    seed = mg.nearest_crossing(pentagrid)
    with pytest.raises(ResourceLimit):
        graph.corona_sequence(pentagrid, graph.Patch(frozenset([seed])), 20,
                              max_crossings=50)


# distances ---------------------------------------------------------------------

def test_distance_reflexive_and_edge(pentagrid):
    c = mg.nearest_crossing(pentagrid)
    assert graph.graph_distance(pentagrid, c, c, cap=5) == 0
    nb = graph.neighbors(pentagrid, c)[0]
    assert graph.graph_distance(pentagrid, c, nb, cap=5) == 1


def test_distance_along_line_counts_crossings(pentagrid):
    line = LineId(2, 1)
    cs = mg.crossings_on_segment(pentagrid, line, -4.0, 4.0)
    a, b = cs[0], cs[-1]
    k = len(cs) - 2
    assert graph.graph_distance(pentagrid, a, b, cap=60) == k + 1


def test_distance_cap_unreachable(pentagrid):
    line = LineId(0, 0)
    cs = mg.crossings_on_segment(pentagrid, line, 0.0, 8.0)
    with pytest.raises(Unreachable):
        graph.graph_distance(pentagrid, cs[0], cs[-1], cap=2)


def test_straight_line_shortest_on_seven_grid():
    spec = random_multigrid(7, seed=21)
    rng = Random(3)
    done = 0
    while done < 30:
        i = rng.randrange(7)
        line = LineId(i, rng.randint(-5, 5))
        t0 = rng.uniform(-6, 2)
        cs = mg.crossings_on_segment(spec, line, t0, t0 + 3.0)
        if len(cs) < 2:
            continue
        p = rng.randrange(len(cs) - 1)
        q = min(p + rng.randint(1, 6), len(cs) - 1)
        assert graph.graph_distance(spec, cs[p], cs[q], cap=40) == q - p
        done += 1


def test_two_line_additivity_on_seven_grid():
    spec = random_multigrid(7, seed=21)
    from coronagrid.geom import scalar_product
    adj = mg.adjacent_direction_pairs(spec)
    rng = Random(4)
    done = 0
    while done < 30:
        i, j = adj[rng.randrange(len(adj))]
        c = mg.make_crossing(spec, LineId(i, rng.randint(-4, 4)),
                             LineId(j, rng.randint(-4, 4)))
        if abs(c.point) > 12:
            continue
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
        a = mg.nth_crossing(spec, c.line_of_grid(i), c.point, sa, rng.randint(1, 4))
        b = mg.nth_crossing(spec, c.line_of_grid(j), c.point, sb, rng.randint(1, 4))
        if scalar_product(c.point - a.point, b.point - c.point) < 0:
            b = mg.nth_crossing(spec, c.line_of_grid(j), c.point, -sb,
                                rng.randint(1, 4))
        if scalar_product(c.point - a.point, b.point - c.point) < 0:
            continue
        d_ab = graph.graph_distance(spec, a, b, cap=40)
        d_ac = graph.graph_distance(spec, a, c, cap=40)
        d_cb = graph.graph_distance(spec, c, b, cap=40)
        assert d_ab == d_ac + d_cb
        done += 1


def test_crossing_types_relatively_dense(pentagrid):
    """Around any vertex, every crossing type occurs within a fixed Euclidean
    radius and graph distance, both computable from the directions alone."""
    d = pentagrid.d
    r_line = max(1.0 / abs(pentagrid.cross(i, j))
                 for i in range(d) for j in range(d) if i != j)
    radius = 2.0 * r_line
    k_bound = 2 * (d - 1) * math.ceil(radius / 2.0)
    rng = Random(5)
    crossings = mg.enumerate_crossings(pentagrid, 20.0)
    wanted = {(i, j) for i in range(d) for j in range(i + 1, d)}
    for z in rng.sample(crossings, 100):
        seen = {z}
        frontier = [z]
        missing = set(wanted)
        missing.discard(z.grids)
        for _ in range(k_bound):
            if not missing:
                break
            nxt = []
            for c in frontier:
                for nb in graph.neighbors(pentagrid, c):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
                        if (nb.grids in missing
                                and abs(nb.point - z.point) <= radius):
                            missing.discard(nb.grids)
            frontier = nxt
        assert not missing, \
            f"types {missing} not found near {z.key} within r={radius}, k={k_bound}"


# patch validation -----------------------------------------------------------

def test_make_patch_accepts_connected(square):
    a = square_crossing(square, 0, 0)
    b = square_crossing(square, 1, 0)
    patch = graph.make_patch(square, [a, b])
    assert len(patch) == 2


def test_make_patch_rejects_disconnected(square):
    a = square_crossing(square, 0, 0)
    b = square_crossing(square, 5, 5)
    with pytest.raises(DisconnectedPatch):
        graph.make_patch(square, [a, b])


def test_make_patch_rejects_empty(square):
    with pytest.raises(DisconnectedPatch):
        graph.make_patch(square, [])


# the growth-speed counterexample ---------------------------------------------

def test_mixed_width_strips_have_no_growth_limit():
    """Documented fixture: outside the multigrid-dual class the normalized
    growth extent need not converge.

    A 1D chain of tiles whose widths alternate between runs of 1x1 and 2x2
    tiles, run lengths doubling, grows with speed 1 in the former and 2 in
    the latter; the normalized extent keeps oscillating forever, so no
    corona limit exists for such a tiling.
    """
    widths = []
    w, run = 1, 1
    while len(widths) < 5000:
        widths.extend([w] * run)
        w = 3 - w
        run *= 2
    extent = []
    total = 0.0
    for width in widths:
        total += width
        extent.append(total)
    ratios = [extent[n] / (n + 1) for n in range(len(widths))]
    window = ratios[100:4000]
    assert max(window) - min(window) > 0.25
    lo = [min(ratios[n:4000]) for n in range(100, 2000, 400)]
    hi = [max(ratios[n:4000]) for n in range(100, 2000, 400)]
    assert all(h - l > 0.25 for l, h in zip(lo, hi))
