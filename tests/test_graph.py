import cmath
import math
from array import array
from functools import partial
from io import StringIO
from itertools import accumulate, chain, islice
from random import Random

import pytest
from hypothesis import assume, given, strategies as st

from coronagrid import analysis, graph, io as cio, multigrid as mg
from coronagrid.certify import random_multigrid
from coronagrid.errors import CoronagridError, ResourceLimit, Unreachable, ValidationError
from coronagrid.multigrid import LineId, MultigridSpec
from specs import crossing_of, segment_crossings, walk_specs


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
            assert segment_crossings(pentagrid, line, t + 1e-6, t_next - 1e-6) == []


# corona steps ----------------------------------------------------------------

def test_corona_step_square_cross(square):
    p = graph.Patch(frozenset([square_crossing(square, 0, 0)]))
    p1 = graph.corona_step(square, p)
    assert len(p1.crossings) == 5


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
    assert seq.n_max == 0 and seq.corona(0) == {c.key for c in p.crossings}


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
    for n in range(seq.n_max + 1):
        layer = frozenset(seq.layer(n))
        assert not (layer & seen)
        seen |= layer
    rng = Random(2)
    members = [(n, key) for n in range(seq.n_max + 1) for key in sorted(seq.layer(n))]
    for n, key in rng.sample(members, 25):
        assert graph.graph_distance(pentagrid, seed, crossing_of(pentagrid, key), cap=12) == n


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


@given(spec=small_multigrids(), n_max=st.integers(0, 5), data=st.data())
def test_layers_and_distance_match_visited_set_bfs(spec, n_max, data):
    seed = mg.nearest_crossing(spec)
    try:
        dist = visited_set_bfs(spec, seed, n_max + 1)
    except mg.SingularMultigrid:
        assume(False)
    seq = graph.corona_sequence(spec, graph.Patch(frozenset([seed])), n_max)
    for n in range(seq.n_max + 1):
        assert set(seq.layer(n)) == {c.key for c, k in dist.items() if k == n}
    members = sorted(dist, key=lambda c: c.key)
    for c in data.draw(st.lists(st.sampled_from(members), max_size=5)):
        if dist[c] <= n_max:
            assert graph.graph_distance(spec, seed, c, cap=n_max) == dist[c]
        else:
            with pytest.raises(Unreachable):
                graph.graph_distance(spec, seed, c, cap=n_max)


def segment_neighbors(spec, c):
    """Reference for the line walk from the closed-form-and-sort listing of
    line_crossings, walked through c: per line of c (a, then b), the line,
    c's parameter on it, and the crossings just after and just before c.
    Every other grid crosses the line within `half` on either side."""
    half = max(1.0 / abs(spec.cross(i, l))
               for i in (c.a.grid, c.b.grid) for l in range(spec.d) if l != i)
    out = []
    for line in (c.a, c.b):
        t = spec.line_parameter(line, c.point)
        on_line = segment_crossings(spec, line, t - half, t + half)
        at = on_line.index(c)
        assert 0 < at < len(on_line) - 1
        out.append((line, t, on_line[at + 1], on_line[at - 1]))
    return out


@given(spec=small_multigrids(), data=st.data())
def test_neighbor_keys_match_segment_listing(spec, data):
    """neighbor_keys, and next_crossing_on_line both ways from c's own
    parameter and from parameters off it by half the gap to the nearer
    neighbor.  Where either refuses, the reference must refuse too;
    crossings that only the reference refuses are skipped."""
    ball = sorted(mg.enumerate_crossings(spec, 3.0), key=lambda c: c.key)
    for c in data.draw(st.lists(st.sampled_from(ball), min_size=1, max_size=8)):
        try:
            lines = segment_neighbors(spec, c)
        except mg.SingularMultigrid:
            continue
        assert graph.neighbor_keys(spec, c.key) == tuple(
            x.key for _, _, after, before in lines for x in (after, before))
        for line, t, after, before in lines:
            t_after = spec.line_parameter(line, after.point)
            t_before = spec.line_parameter(line, before.point)
            off = min(t_after - t, t - t_before) / 2
            for start, direction, want in ((t, 1, after), (t, -1, before),
                                           (t + off, 1, after), (t + off, -1, c),
                                           (t - off, 1, c), (t - off, -1, before)):
                tm, got = mg.next_crossing_on_line(spec, line, start, direction)
                assert got == want, (line, start, direction)
                assert tm == pytest.approx(spec.line_parameter(line, want.point), abs=1e-9)


# the frontier kernel -----------------------------------------------------------

def expansion(expand, spec, layer):
    """expand(spec, layer) as a set, or its refusal as (type, message)."""
    try:
        return set(expand(spec, layer))
    except CoronagridError as exc:
        return type(exc), str(exc)


def per_crossing(spec, layer):
    """Reference for frontier_neighbor_keys: neighbor_keys crossing by
    crossing, in the layer's order."""
    out = set()
    for key in layer:
        out.update(mg.neighbor_keys(spec, key))
    return out


@st.composite
def seeded_specs(draw):
    """random_multigrid(d, s) for d = 3..9, or a walk_specs draw (the square
    grid, or drawn directions with a pair of grids 1e-7 to 1e-2 degrees apart
    in half the draws), and a seed crossing of two grids that are not nearly
    parallel, near the origin."""
    if draw(st.booleans()):
        spec = random_multigrid(draw(st.integers(3, 9)), draw(st.integers(0, 10**6)))
    else:
        spec = draw(walk_specs())
    pairs = [(i, j) for i in range(spec.d) for j in range(i + 1, spec.d)
             if abs(spec.cross(i, j)) > 1e-3]
    assume(pairs)
    i, j = draw(st.sampled_from(pairs))
    return spec, (i, draw(st.integers(-2, 2)), j, draw(st.integers(-2, 2)))


@given(spec_seed=seeded_specs())
def test_frontier_neighbor_keys_match_neighbor_keys(spec_seed):
    """Layer by layer up to n = 20, the one-pass kernel gives the union of
    neighbor_keys over the layer, or the same refusal type and message."""
    spec, seed = spec_seed
    previous, layer = frozenset(), frozenset([seed])
    for _ in range(20):
        want = expansion(per_crossing, spec, layer)
        assert expansion(mg.frontier_neighbor_keys, spec, layer) == want
        if isinstance(want, tuple):
            break
        previous, layer = layer, frozenset(want - layer - previous)


def third_line_near_origin(level):
    """The square grid's origin crossing, with a 37 degree grid whose level
    there is `level`."""
    return MultigridSpec.from_angles([0, 90, 37], [0.0, 0.0, -level % 1.0]), [(0, 0, 1, 0)]


def runner_up_beyond(beyond):
    """On the line x = 0, from the 135 degree grid's crossing at y = 0.7, the
    next crossing is y = 1, and a 45 degree grid's runner-up lies `beyond`
    past it (as in test_line_crossings_near_a_crossing)."""
    third, fourth = cmath.exp(1j * math.pi / 4), cmath.exp(3j * math.pi / 4)
    spec = MultigridSpec((1, 1j, third, fourth),
                         (0.0, 0.0, (1 + beyond) * third.imag, 0.7 * fourth.imag))
    return spec, [(0, 0, 3, 0)]


# Two grids about 5e-6 degrees apart: a third grid's line crosses their
# lines near level 3.3e6, where rounding reaches the bands.
NEARLY_PARALLEL = MultigridSpec(
    ((-0.6539817824816839+0.7565102961507395j), (-0.653981856799548+0.7565102319050387j),
     (0.9992509529297516+0.038697972414368766j), (0.7432626668246956+0.6689997071035544j),
     (0.9996815617387241+0.025234403492563943j)),
    (0.5, 0.9114091012299198, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("spec, layer", [
    third_line_near_origin(1.5 * mg._SNAP), third_line_near_origin(-1.5 * mg._SNAP),
    third_line_near_origin(0.5 * mg._SNAP), third_line_near_origin(-0.5 * mg._SNAP),
    runner_up_beyond(1.5 * mg.EPS_SINGULAR), runner_up_beyond(0.7 * mg.EPS_SINGULAR),
    # three lines meet at the origin only (test_endpoints_diagnostic_refuses_as_per_n_walk)
    (MultigridSpec.from_angles([0, 90, 37], [0.0, 0.0, 0.0]), [(0, 0, 1, 0)]),
    (MultigridSpec.from_angles([0, 90, 37], [0.0, 0.0, 0.0]), [(0, 0, 1, 6), (0, 0, 1, 1)]),
    (NEARLY_PARALLEL, [(0, 0, 2, -3271797)]),
], ids=["third+1.5snap", "third-1.5snap", "third+0.5snap", "third-0.5snap",
        "runner-up-1.5eps", "runner-up-0.7eps", "triple-point", "beside-triple-point",
        "rounding"])
def test_frontier_neighbor_keys_hand_off_near_coincidences(spec, layer):
    """Where a level lies near an integer, a runner-up near the nearest
    crossing, or rounding near the bands, the kernel gives neighbor_keys'
    result, refusal included."""
    assert expansion(mg.frontier_neighbor_keys, spec, layer) \
        == expansion(per_crossing, spec, layer)


@pytest.mark.parametrize("angle, signs", [(130, (1, 1)), (40, (1, -1)),
                                          (220, (-1, 1)), (310, (-1, -1))],
                         ids=["++", "+-", "-+", "--"])
def test_frontier_neighbor_keys_sign_branches(monkeypatch, angle, signs):
    """The square grid's origin crossing and a third grid whose level there
    is -0.2 and whose cross with each grid lies between 0.2 and 0.8: on
    each line, the third grid's next line is the nearest crossing one way
    (0.2 off in level) and the partner grid's the other way (0.8 off).  The
    four angles give the four sign combinations of (cross(0, 2),
    cross(1, 2)), and the kernel decides each itself, with neighbor_keys'
    result."""
    spec = MultigridSpec.from_angles([0, 90, angle], [0.0, 0.0, 0.2])
    assert (math.copysign(1, spec.cross(0, 2)), math.copysign(1, spec.cross(1, 2))) == signs
    assert all(0.2 < abs(spec.cross(g, 2)) < 0.8 for g in (0, 1))
    layer = [(0, 0, 1, 0)]
    want = per_crossing(spec, layer)
    assert sorted(j == 2 for _, _, j, _ in want) == [False, False, True, True]

    def no_hand_off(spec, key):
        raise AssertionError(f"handed {key} to neighbor_keys")

    monkeypatch.setattr(mg, "neighbor_keys", no_hand_off)
    assert mg.frontier_neighbor_keys(spec, layer) == want


@pytest.mark.parametrize("key, handed_off", [((0, 2, 1, 3), False), ((0, 8, 1, 8), True)])
def test_frontier_neighbor_keys_hand_off_bound(monkeypatch, key, handed_off):
    """Grid 2 lies 1e-4 degrees off grid 0, so the kernel trusts its own
    levels at a crossing of grids 0 and 1 only while |offset_0 + k0| +
    |offset_1 + k1| + 1 stays below about 12.3, the smaller of the two
    grids' bounds, and hands a crossing beyond that to neighbor_keys."""
    spec = MultigridSpec.from_angles([0, 90, 1e-4], 0.25)
    want = per_crossing(spec, [key])
    handed = []

    def counting(spec, key, neighbor_keys=mg.neighbor_keys):
        handed.append(key)
        return neighbor_keys(spec, key)

    monkeypatch.setattr(mg, "neighbor_keys", counting)
    assert mg.frontier_neighbor_keys(spec, [key]) == want
    assert handed == ([key] if handed_off else [])


def test_frontier_growth_is_linear(pentagrid_run):
    f40 = len(list(pentagrid_run.layer(40)))
    f80 = len(list(pentagrid_run.layer(80)))
    assert 1.7 <= f80 / f40 <= 2.3


@pytest.mark.parametrize("spec", [mg.MultigridSpec.dfold(5, 0.5), random_multigrid(7, 47)])
def test_corona_is_union_of_layers(spec):
    """corona(n) is the union of layers 0..n, as keys; layer 0 holds the
    base patch's keys."""
    seed = mg.nearest_crossing(spec)
    seq = graph.corona_sequence(spec, graph.Patch(frozenset([seed])), 12)
    assert list(seq.layer(0)) == [seed.key]
    for n in range(seq.n_max + 1):
        assert seq.corona(n) == frozenset().union(*map(seq.layer, range(n + 1)))
        assert len(seq.corona(n)) == seq.sizes()[n]
    with pytest.raises(IndexError):
        seq.corona(seq.n_max + 1)
    with pytest.raises(IndexError):
        seq.layer(seq.n_max + 1)


@given(spec=st.one_of(st.just(mg.MultigridSpec.dfold(5, 0.5)),
                      st.builds(random_multigrid, st.integers(3, 9), st.integers(0, 10**6))),
       n_max=st.integers(0, 30))
def test_packed_layers_decode_in_bfs_order(spec, n_max):
    """Each layer is packed as a flat array in the order bfs_layers'
    frozenset iterates it, and decodes in that order; corona(n) and sizes()
    read the same keys."""
    seed = mg.nearest_crossing(spec)
    try:
        seq = graph.corona_sequence(spec, graph.Patch(frozenset([seed])), n_max)
    except mg.SingularMultigrid:
        assume(False)
    want = list(islice(graph.bfs_layers([seed.key], partial(mg.frontier_neighbor_keys, spec)),
                       n_max + 1))
    assert len(want) == seq.n_max + 1
    assert all(isinstance(packed, array) for packed in seq.packed)
    for n, layer in enumerate(want):
        assert list(seq.layer(n)) == list(layer)
        assert seq.corona(n) == frozenset().union(*want[:n + 1])
    assert seq.sizes() == list(accumulate(map(len, want)))


def test_keys_beyond_64_bits_are_refused(pentagrid, square):
    """A layer must fit array('q'): a patch with a line index of 2^63, or
    growth that reaches one, raises ValidationError naming the layer."""
    key = (0, 2**63, 1, 0)
    with pytest.raises(ValidationError, match="corona layer 0 has a line index beyond 64 bits"):
        graph.corona_sequence(pentagrid, graph.Patch(frozenset([crossing_of(pentagrid, key)])), 0)
    seed = graph.Patch(frozenset([crossing_of(square, (0, 2**63 - 1, 1, 0))]))
    assert graph.corona_sequence(square, seed, 0).sizes() == [1]
    with pytest.raises(ValidationError, match="corona layer 1 "):
        graph.corona_sequence(square, seed, 1)


def test_packed_sequence_holds_32_bytes_per_crossing(pentagrid, traced_memory):
    """A run to n=80 keeps its keys' four integers and little else: about
    32 B per crossing, where a frozenset of 4-tuples took about 120 B."""
    patch = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    graph.corona_sequence(pentagrid, patch, 2)   # the spec's lazy tables, outside the count
    seq, held, _ = traced_memory(graph.corona_sequence, pentagrid, patch, 80)
    assert held / seq.sizes()[-1] <= 36


def test_key_consumers_build_no_crossings(pentagrid, count_constructions):
    """sizes, corona(n), the frontiers CSV and the convergence rows of both
    sides read the layer keys; none of them builds a Crossing."""
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    seq = graph.corona_sequence(pentagrid, seed, 10)
    counts = count_constructions()
    for side in ("multigrid", "tiling"):
        analysis.convergence_table(pentagrid, seed, [5, 10], side, sequence=seq)
    cio.write_frontiers_csv(seq, StringIO())
    assert seq.sizes()[-1] == len(list(chain.from_iterable(map(seq.layer, range(11))))) \
        == len(seq.corona(10))
    assert counts == {}


def test_corona_sequence_resource_cap(pentagrid, monkeypatch):
    seed = mg.nearest_crossing(pentagrid)
    monkeypatch.setenv(mg.CAP_ENV, "50")
    with pytest.raises(ResourceLimit):
        graph.corona_sequence(pentagrid, graph.Patch(frozenset([seed])), 20)


def test_every_walk_is_capped(pentagrid, monkeypatch):
    """graph_distance, corona_step and grow_until_dominant read
    corona_layers, so each refuses past $CORONAGRID_MAX_CROSSINGS.  From
    the nearest crossing the layers hold 1, 4, 7, ... crossings, and
    grow_until_dominant needs two steps."""
    seed = mg.nearest_crossing(pentagrid)
    sixth = mg.nth_crossing(pentagrid, seed.a, seed.point, +1, 6)
    assert graph.graph_distance(pentagrid, seed, sixth, cap=20) == 6
    patch = graph.Patch(frozenset([seed]))
    ball = graph.corona_step(pentagrid, patch)   # 5 crossings; one more step holds 12
    monkeypatch.setenv(mg.CAP_ENV, "10")
    refusal = "corona growth exceeded 10 crossings"
    with pytest.raises(ResourceLimit, match=refusal):
        graph.graph_distance(pentagrid, seed, sixth, cap=20)
    with pytest.raises(ResourceLimit, match=refusal):
        graph.corona_step(pentagrid, ball)
    with pytest.raises(ResourceLimit, match=refusal):
        analysis.grow_until_dominant(pentagrid, patch)


@pytest.mark.parametrize("k", [0, 10**6, pytest.param(10**8, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 11: far out the neighbor relation turns one-way "
    "(levels of size |k| against an absolute _SNAP), so old crossings come back as new"))])
def test_far_out_seed_grows_a_near_origin_corona(pentagrid, k):
    """From seed (0, k, 1, 0), P_25 holds about as many crossings as near
    the origin: 1,520 at k = 0 and 10^6.  At k = 10^8 it holds 3,159."""
    seed = graph.Patch(frozenset([crossing_of(pentagrid, (0, k, 1, 0))]))
    assert 1_500 <= graph.corona_sequence(pentagrid, seed, 25).sizes()[25] <= 1_560


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: past 2^53 a line index is not "
                   "exact in floats, and growth loses crossings")
def test_square_grid_far_out_seed_grows_the_lattice_ball(square):
    """From (0, 2^53 + 1, 1, 0) the first coronas hold 1, 5 and 13
    crossings, as from the origin; they hold 1, 4 and 10."""
    seed = graph.Patch(frozenset([square_crossing(square, 2**53 + 1, 0)]))
    assert graph.corona_sequence(square, seed, 2).sizes() == [1, 5, 13]


# distances ---------------------------------------------------------------------

def test_distance_reflexive_and_edge(pentagrid):
    c = mg.nearest_crossing(pentagrid)
    assert graph.graph_distance(pentagrid, c, c, cap=5) == 0
    nb = graph.neighbors(pentagrid, c)[0]
    assert graph.graph_distance(pentagrid, c, nb, cap=5) == 1


def test_distance_along_line_counts_crossings(pentagrid):
    line = LineId(2, 1)
    cs = segment_crossings(pentagrid, line, -4.0, 4.0)
    a, b = cs[0], cs[-1]
    k = len(cs) - 2
    assert graph.graph_distance(pentagrid, a, b, cap=60) == k + 1


def test_distance_cap_unreachable(pentagrid):
    line = LineId(0, 0)
    cs = segment_crossings(pentagrid, line, 0.0, 8.0)
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
        cs = segment_crossings(spec, line, t0, t0 + 3.0)
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
        line_i, line_j = LineId(i, rng.randint(-4, 4)), LineId(j, rng.randint(-4, 4))
        c = mg.make_crossing(spec, line_i, line_j)
        if abs(c.point) > 12:
            continue
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
        a = mg.nth_crossing(spec, line_i, c.point, sa, rng.randint(1, 4))
        b = mg.nth_crossing(spec, line_j, c.point, sb, rng.randint(1, 4))
        if scalar_product(c.point - a.point, b.point - c.point) < 0:
            b = mg.nth_crossing(spec, line_j, c.point, -sb,
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
        missing.discard((z.a.grid, z.b.grid))
        for _ in range(k_bound):
            if not missing:
                break
            nxt = []
            for c in frontier:
                for nb in graph.neighbors(pentagrid, c):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
                        if ((nb.a.grid, nb.b.grid) in missing
                                and abs(nb.point - z.point) <= radius):
                            missing.discard((nb.a.grid, nb.b.grid))
            frontier = nxt
        assert not missing, \
            f"types {missing} not found near {z.key} within r={radius}, k={k_bound}"


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
