import cmath
import math
from itertools import islice
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from coronagrid import analysis, dual, graph, io, multigrid as mg
from coronagrid.certify import random_multigrid
from coronagrid.errors import (
    CoronagridError,
    GridNotRepresented,
    NotACrossing,
    ParallelLines,
    ResourceLimit,
    SameGrid,
    SingularMultigrid,
    ValidationError,
)
from coronagrid.multigrid import LineId, MultigridSpec
from specs import segment_crossings, walk_specs


# spec construction ---------------------------------------------------------

def test_spec_normalizes_offsets_mod_one():
    spec = MultigridSpec.from_angles([0, 90], [1.25, -0.5])
    assert spec.offsets == (0.25, 0.5)
    # -1e-20 % 1.0 rounds to 1.0, which is folded once more
    assert MultigridSpec.from_angles([0, 90], [-1e-20, 0.5]).offsets == (0.0, 0.5)


def test_spec_refuses_too_many_grids():
    assert MultigridSpec.dfold(mg.MAX_GRIDS - 1).d == mg.MAX_GRIDS - 1
    for d in (mg.MAX_GRIDS + 1, 90757, 99999999999):
        with pytest.raises(ValidationError, match="grid families"):
            MultigridSpec.dfold(d)
    with pytest.raises(ValidationError, match="grid families"):
        MultigridSpec.from_angles([0.01 * k for k in range(mg.MAX_GRIDS + 1)], 0.5)


def test_spec_rejects_parallel_directions():
    with pytest.raises(ValidationError):
        MultigridSpec.from_angles([10, 190], [0, 0])


def test_spec_rejects_non_unit_normal():
    with pytest.raises(ValidationError):
        MultigridSpec((1 + 0j, 0.5 + 0.5j), (0.0, 0.0))


def test_dfold_even_is_parallel():
    with pytest.raises(ValidationError):
        MultigridSpec.dfold(4)


def test_offsets_broadcast():
    spec = MultigridSpec.dfold(5, 0.25)
    assert spec.offsets == (0.25,) * 5
    with pytest.raises(ValidationError):
        MultigridSpec.dfold(5, [0.1, 0.2])


# crossing point ------------------------------------------------------------

def test_crossing_point_square(square):
    z = mg.crossing_point(square, LineId(0, 2), LineId(1, 3))
    assert z == pytest.approx(2 + 3j)


def test_crossing_point_pentagrid_residuals(pentagrid):
    z = mg.crossing_point(pentagrid, LineId(0, 0), LineId(1, 0))
    assert abs(pentagrid.level(0, z) - 0) < 1e-9
    assert abs(pentagrid.level(1, z) - 0) < 1e-9


def test_crossing_point_same_grid_raises(pentagrid):
    with pytest.raises(ParallelLines):
        mg.crossing_point(pentagrid, LineId(0, 0), LineId(0, 1))


def test_make_crossing_canonical_order(pentagrid):
    c = mg.make_crossing(pentagrid, LineId(3, 1), LineId(1, -2))
    assert c.a.grid < c.b.grid
    assert c.key == (1, -2, 3, 1)


# regularity ----------------------------------------------------------------

def test_offsets_half_pentagrid_regular(pentagrid):
    report = mg.check_regular(pentagrid, 10.0)
    assert report.is_regular
    assert report.crossing_count > 1000


def test_zero_offsets_pentagrid_singular_at_origin():
    spec = MultigridSpec.dfold(5, 0.0)
    report = mg.check_regular(spec, 1.0)
    assert not report.is_regular
    hits = [s for s in report.singular_points if abs(s.point) < 1e-9]
    assert hits and len({l.grid for l in hits[0].lines}) >= 3


def test_square_grid_regular(square):
    # triples need 3 distinct families, impossible for d=2
    assert mg.check_regular(square, 5.0).is_regular


def test_random_offsets_pentagrid_regular_large_window():
    spec = MultigridSpec.dfold(5, [0.8141, 0.2734, 0.6180, 0.0913, 0.4721])
    report = mg.check_regular(spec, 50.0)
    # probability-1 regularity; a hit would mean an implementation artifact
    assert report.is_regular, report.singular_points[:3]


def test_check_regular_refuses_a_bad_radius(pentagrid):
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            mg.check_regular(pentagrid, radius)


def test_windows_over_the_crossing_cap_are_refused(pentagrid, monkeypatch):
    """Refused from pi r^2 sum |cross(i, j)| (about 870 crossings at radius
    6 and 1184 at 7 on the pentagrid), before any crossing is built.  The
    radii stay small, so that without the check the test fails, not the
    machine's memory."""
    with pytest.raises(ResourceLimit):
        mg.enumerate_crossings(pentagrid, 1e300)
    with pytest.raises(ResourceLimit):
        mg.check_regular(pentagrid, 1e300)
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", "1000")
    assert mg.check_regular(pentagrid, 6.0).crossing_count == len(
        mg.enumerate_crossings(pentagrid, 6.0))
    with pytest.raises(ResourceLimit):
        mg.enumerate_crossings(pentagrid, 7.0)
    with pytest.raises(ResourceLimit):
        mg.check_regular(pentagrid, 7.0)


def spatial_hash_regularity(spec, radius):
    """Reference: the former scan.  Crossing points are hashed into 1e-3
    cells; a crossing closer than EPS_SINGULAR in the plane to an earlier
    one is singular, and joins the first found point within 2 EPS_SINGULAR
    of it.  Returns the crossing count and the set of line tuples."""
    crossings = mg.enumerate_crossings(spec, radius)
    cell = 1e-3
    buckets = {}
    clusters = []
    for c in crossings:
        cx = math.floor(c.point.real / cell)
        cy = math.floor(c.point.imag / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    if abs(other.point - c.point) < mg.EPS_SINGULAR:
                        for p, lines in clusters:
                            if abs(p - c.point) < 2 * mg.EPS_SINGULAR:
                                lines.update((other.a, other.b, c.a, c.b))
                                break
                        else:
                            clusters.append((c.point, {other.a, other.b, c.a, c.b}))
        buckets.setdefault((cx, cy), []).append(c)
    return len(crossings), {tuple(sorted(lines)) for _, lines in clusters}


SINGULAR_WINDOWS = [(MultigridSpec.dfold(5, 0.0), 1.0), (MultigridSpec.dfold(5, 0.0), 10.0),
                    (MultigridSpec.dfold(7, 0.0), 6.0),
                    (MultigridSpec.from_angles([0, 60, 120], 0.0), 8.0),
                    # a near-triple point whose only side shorter than
                    # EPS_SINGULAR lies on the grid-1 line
                    (MultigridSpec.from_angles([0, 90, 10], [0.0, 0.0, 5e-8]), 1.0)]


@st.composite
def random_windows(draw):
    """random_multigrid(d, seed) for d = 3..7, or the same directions with
    every offset 0, so that all d lines of level 0 meet at the origin."""
    spec = random_multigrid(draw(st.integers(3, 7)), draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        spec = MultigridSpec(spec.normals, (0.0,) * spec.d)
    return spec, draw(st.floats(0.5, 10.0))


@given(window=st.sampled_from(SINGULAR_WINDOWS) | random_windows())
def test_check_regular_matches_spatial_hash(window):
    spec, radius = window
    report = mg.check_regular(spec, radius)
    lines = {point.lines for point in report.singular_points}
    assert len(lines) == len(report.singular_points)
    assert (report.crossing_count, lines) == spatial_hash_regularity(spec, radius)


# crossings on a segment ----------------------------------------------------

def test_segment_square_unit_spacing(square):
    cs = segment_crossings(square, LineId(0, 0), 0.0, 3.5)
    assert [c.point for c in cs] == [pytest.approx(complex(0, t)) for t in (1, 2, 3)]


def test_segment_empty_interval(pentagrid):
    """(t, t] holds no crossing: a walk from t starts strictly beyond it."""
    for direction in (1, -1):
        t, _, _ = next(mg.line_crossings(pentagrid, LineId(0, 0), 5.0, direction))
        assert direction * (t - 5.0) > 0


def test_segment_refuses_coincident_crossings():
    # all five zero-offset lines meet at the origin
    spec = MultigridSpec.dfold(5, 0.0)
    with pytest.raises(mg.SingularMultigrid):
        segment_crossings(spec, LineId(0, 0), -1.0, 1.0)


def test_segment_pentagrid_count_and_oracle(pentagrid):
    line = LineId(0, 0)
    cs = segment_crossings(pentagrid, line, 0.0, 10.0)
    assert 28 <= len(cs) <= 34
    # independent oracle: scan integer levels per other grid
    expected = set()
    for j in range(1, 5):
        for m in range(-40, 41):
            other = LineId(j, m)
            z = mg.crossing_point(pentagrid, line, other)
            t = pentagrid.line_parameter(line, z)
            if 0.0 < t <= 10.0:
                expected.add((min(line, other), max(line, other)))
    assert {(c.a, c.b) for c in cs} == expected
    assert len(cs) == 30


def test_segment_is_sorted_and_consistent_with_counts(pentagrid):
    """count_crossings_with_grid against a loop of next_crossing_on_line
    steps, which shares no code with _levels_on_segment."""
    rng = Random(5)
    for _ in range(50):
        i = rng.randrange(5)
        line = LineId(i, rng.randint(-10, 10))
        t0 = rng.uniform(-20, 10)
        alpha = rng.uniform(0.1, 15)
        walk = stepped_walk(pentagrid, line, t0, 1, int(alpha * 4) + 4)
        assert float(walk[-1][0]) > t0 + alpha
        cs = [(float(t), key) for t, key, _ in walk if float(t) <= t0 + alpha]
        ts = [t for t, _ in cs]
        assert ts == sorted(ts)
        z0 = pentagrid.line_point(line, t0)
        for j in range(5):
            if j == i:
                continue
            n_j = sum(1 for _, key in cs if j in (key[0], key[2]))
            assert n_j == mg.count_crossings_with_grid(pentagrid, line, z0, alpha, j)


# counting ------------------------------------------------------------------

def test_count_square_axis(square):
    line = LineId(0, 0)
    assert mg.count_crossings_with_grid(square, line, 0.5j, 3.0, 1) == 3


def test_count_pentagrid_bound_range(pentagrid):
    line = LineId(0, 0)
    z = pentagrid.line_point(line, 0.0)
    count = mg.count_crossings_with_grid(pentagrid, line, z, 10.0, 1)
    assert 8 <= count <= 11


def test_count_tiny_alpha_zero(pentagrid):
    line = LineId(0, 0)
    z = pentagrid.line_point(line, 0.123)
    assert mg.count_crossings_with_grid(pentagrid, line, z, 1e-12, 1) == 0


def test_count_same_grid_raises(pentagrid):
    with pytest.raises(SameGrid):
        mg.count_crossings_with_grid(pentagrid, LineId(0, 0), 0.5j, 1.0, 0)


def test_count_bound_random_specs():
    rng = Random(6)
    specs = [MultigridSpec.dfold(5, 0.5), random_multigrid(7, seed=3),
             random_multigrid(3, seed=4)]
    for _ in range(300):
        spec = specs[rng.randrange(len(specs))]
        i = rng.randrange(spec.d)
        j = rng.choice([x for x in range(spec.d) if x != i])
        line = LineId(i, rng.randint(-30, 30))
        z = spec.line_point(line, rng.uniform(-500, 500))
        alpha = rng.uniform(0.001, 1000.0)
        count = mg.count_crossings_with_grid(spec, line, z, alpha, j)
        assert abs(count - alpha * abs(spec.cross(i, j))) <= 2.0


# nth crossing --------------------------------------------------------------

def test_nth_crossing_square(square):
    c = mg.nth_crossing(square, LineId(0, 0), 0.5j, +1, 4)
    assert c.point == pytest.approx(4j)


def test_nth_crossing_matches_segment_list(pentagrid):
    line = LineId(1, 2)
    start = pentagrid.line_point(line, -3.7)
    t = pentagrid.line_parameter(line, start)
    ahead = stepped_walk(pentagrid, line, t, +1, 20)
    back = stepped_walk(pentagrid, line, t, -1, 20)
    for n in (1, 5, 20):
        assert mg.nth_crossing(pentagrid, line, start, +1, n).key == ahead[n - 1][1]
        assert mg.nth_crossing(pentagrid, line, start, -1, n).key == back[n - 1][1]


def test_nth_crossing_speed_matches_spacing(pentagrid):
    from coronagrid.analysis import line_spacing
    line = LineId(0, 0)
    c100 = mg.nth_crossing(pentagrid, line, pentagrid.line_point(line, 0.0), +1, 100)
    alpha = pentagrid.line_parameter(line, c100.point)
    dev = abs(alpha - 100 * line_spacing(pentagrid, 0))
    # empirical deviation recorded; the walk-speed constant stays O(1)
    assert dev <= 2.0, f"|alpha_100 - 100*speed| = {dev}"


def test_nth_crossing_needs_n_at_least_one(pentagrid):
    with pytest.raises(ValueError):
        mg.nth_crossing(pentagrid, LineId(0, 0), pentagrid.line_point(LineId(0, 0), 0.0), +1, 0)


def test_walks_check_direction_at_call(pentagrid):
    line = LineId(0, 0)
    with pytest.raises(ValueError, match="direction"):
        mg.nth_crossing(pentagrid, line, pentagrid.line_point(line, 0.0), 2, 1)
    with pytest.raises(ValueError, match="direction"):
        mg.line_crossings(pentagrid, line, 0.0, 0)


def test_walk_beyond_float_resolution_is_refused(square):
    """About 2^62 out, a parameter's float spacing (1024) exceeds the
    square grid's spacing of 1, so consecutive levels round to one
    parameter: the walk refuses instead of yielding it again and again."""
    line = LineId(1, 0)
    for direction in (1, -1):
        walk = mg.line_crossings(square, line, -direction * 2.0**62, direction)
        with pytest.raises(SingularMultigrid, match="too far out to walk"):
            next(walk)
    assert next(mg.line_crossings(square, line, 2.0**40, 1))[0] == 2.0**40 + 1


# line walks: merged walk and single-step kernel ----------------------------

def two_call_line_steps(spec, i, k, t):
    """Reference for line_steps: one floor above and one ceil below per grid."""
    r = spec.offsets[i] + k
    up_dt = up_second = down_dt = down_second = math.inf
    for l in range(spec.d):
        if l == i:
            continue
        s = spec.cross(i, l)
        base = r * spec._dots[i][l] - spec.offsets[l]
        u = base + t * s
        above = math.floor(u + mg._SNAP) + 1
        below = math.ceil(u - mg._SNAP) - 1
        if s < 0:
            above, below = below, above
        tm = (above - base) / s
        dt = tm - t
        if dt < up_dt:
            up_second, up_dt = up_dt, dt
            up_l, up_m, up_t = l, above, tm
        elif dt < up_second:
            up_second = dt
        tm = (below - base) / s
        dt = t - tm
        if dt < down_dt:
            down_second, down_dt = down_dt, dt
            down_l, down_m, down_t = l, below, tm
        elif dt < down_second:
            down_second = dt
    return ((up_l, up_m, up_t, up_second - up_dt),
            (down_l, down_m, down_t, down_second - down_dt))


@given(n=st.one_of(st.integers(-100, 100), st.integers(-2**52, 2**52)),
       delta=st.sampled_from([0.0, mg._SNAP / 2, mg._SNAP, 2 * mg._SNAP]),
       sign=st.sampled_from([1, -1]), s=st.sampled_from([1, -1]), k=st.integers(-3, 3))
def test_line_steps_one_floor_matches_two_calls(n, delta, sign, s, k):
    """On the zero-offset square grid, grid 1 crosses the line (0, k) at
    level u = t (s = +1) and grid 0 crosses the line (1, k) at u = -t
    (s = -1), so u takes each drawn value exactly."""
    spec = MultigridSpec((1, 1j), (0.0, 0.0))
    u = n + sign * delta
    i, t = (0, u) if s > 0 else (1, -u)
    assert spec.cross(i, 1 - i) == s
    got = mg.line_steps(spec, i, k, t)
    assert repr(got) == repr(two_call_line_steps(spec, i, k, t))


def stepped_walk(spec, line, t, direction, steps):
    """Reference for line_crossings: `steps` next_crossing_on_line calls,
    each from the last parameter, as (parameter, key, point); a refusal
    ends the list with its type and message."""
    out = []
    try:
        for _ in range(steps):
            t, c = mg.next_crossing_on_line(spec, line, t, direction)
            out.append((repr(t), c.key, c.point))
    except CoronagridError as exc:
        out.append((type(exc), str(exc)))
    return out


def merged_walk(spec, line, t, direction, steps):
    """line_crossings' first `steps` crossings, as stepped_walk lists them."""
    out = []
    try:
        for tm, j, m in islice(mg.line_crossings(spec, line, t, direction), steps):
            c = mg.make_crossing(spec, line, LineId(j, m))
            out.append((repr(tm), c.key, c.point))
    except CoronagridError as exc:
        out.append((type(exc), str(exc)))
    return out


@settings(max_examples=300)
@given(spec=walk_specs(), data=st.data())
def test_line_crossings_match_stepped_walk(spec, data):
    """line_crossings takes the steps of a next_crossing_on_line loop,
    both ways, with the same parameters, or the same refusal and message.
    Walks start at 0, at a drawn parameter, or at a crossing with a grid
    that is not nearly parallel to the line's: a crossing with a nearly
    parallel grid lies about 1e8 out, where a level's float spacing
    exceeds _SNAP and the single step can repeat a crossing."""
    for _ in range(2):
        i = data.draw(st.integers(0, spec.d - 1))
        line = LineId(i, data.draw(st.integers(-2, 2)))
        crossing = st.sampled_from([j for j in range(spec.d)
                                    if j != i and abs(spec.cross(i, j)) > 1e-3] or [None])
        j = data.draw(crossing)
        if j is not None and data.draw(st.booleans()):
            at = mg.crossing_point(spec, line, (j, data.draw(st.integers(-3, 3))))
            t = spec.line_parameter(line, at)
        else:
            t = data.draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
        for direction in (1, -1):
            assert (merged_walk(spec, line, t, direction, 150)
                    == stepped_walk(spec, line, t, direction, 150))


def test_line_crossings_refusal_names_the_stepped_parameter():
    """Where the two nearest candidates tie in their distance from the start,
    line_steps names the lower grid's parameter, 0.0 here, and line_crossings
    names the same, not that of its own first candidate, 2.7e-44."""
    normals = ((1+0j), (0.9998476951563913+0.01745240643728351j),
               (0.9993908270190958+0.03489949670250097j),
               (0.9986295347545738+0.052335956242943835j))
    spec = MultigridSpec(normals, (0.0, 0.0, 0.0, 1.401298464324817e-45))
    line = LineId(0, 0)
    t = spec.line_parameter(line, mg.crossing_point(spec, line, (1, 1)))
    want = stepped_walk(spec, line, t, -1, 150)
    assert want[-1][1].endswith("near parameter 0.0")
    assert merged_walk(spec, line, t, -1, 150) == want


@pytest.mark.xfail(strict=True, reason="line_steps can return the crossing it starts from "
                   "where a level's float spacing exceeds _SNAP")
def test_line_crossings_match_stepped_walk_far_out():
    """A 7-grid spec whose grids 3 and 4 are about 6e-9 radians apart: their
    lines cross about 4.7e8 out, where levels near 2.4e8 are spaced 3e-8
    apart, more than _SNAP.  There, from the 103rd step on, the loop of
    next_crossing_on_line steps returns the crossing (4, 1, 5, 238378564)
    over and over, and line_crossings goes on past it."""
    normals = ((0.7441324984952004+0.6680320536346221j), (0.6047752158282476+0.7963962194284303j),
               (-0.5606963083550588+0.8280215273753508j), (-0.6662496396952219+0.7457287828734969j),
               (-0.6662496444421585+0.7457287786324847j), (-0.9519302312249167+0.3063149276154797j),
               (-0.9777899902252007+0.20958705832040747j))
    spec = MultigridSpec(normals, (0.5,) * 7)
    line, t = LineId(4, 1), 471290541.22133875
    assert merged_walk(spec, line, t, 1, 150) == stepped_walk(spec, line, t, 1, 150)


@pytest.mark.parametrize("angle, beyond, refused", [
    (45.0, 0.7e-7, True), (45.0, 1.5e-7, False), (1e-7, 0.5e-7, False)])
@pytest.mark.parametrize("direction", [1, -1])
def test_line_crossings_near_a_crossing(angle, beyond, refused, direction):
    """A walk on the line x = 0 from 1 - 0.7 * direction crosses the 135
    degree grid at 1 - 0.3 * direction and y = 1 at 1; the level-0 line of
    a grid at `angle` degrees crosses it `beyond` past 1.  Less than
    EPS_SINGULAR past is a refusal.  Only 1e-7 degrees off the line, that
    crossing lies within _SNAP of the 135 degree one in level space, so the
    single step from there passes over it."""
    third = cmath.exp(1j * math.radians(angle))
    fourth = cmath.exp(1j * math.radians(135.0))
    spec = MultigridSpec((1, 1j, third, fourth),
                         (0.0, 0.0, (1 + direction * beyond) * third.imag,
                          (1 - 0.3 * direction) * fourth.imag))
    line, t = LineId(0, 0), 1 - 0.7 * direction
    want = stepped_walk(spec, line, t, direction, 4)
    assert merged_walk(spec, line, t, direction, 4) == want
    assert (want[1][0] is SingularMultigrid) == refused


# Two grids' crossings with line (0, -2) about 1.4e14 out round to one
# parameter, 144778510258996.16, where a parameter's float spacing is 0.03.
FAR_OUT_TIE = ("normals: [(0.26473495307270256, 0.964321214441326), "
               "(0.3891298636002047, 0.9211829076000521), "
               "(-0.13296929580639963, 0.991120157383932), "
               "(-0.9995766913712452, 0.02909360870216024), "
               "(-0.9049657342175945, 0.42548445317309785), "
               "(0.2588247365254533, 0.9659243012589184)]\n"
               "offsets: [0.5, 0.0, 0.0, 0.5, 0.0, 0.8183367354944618]\n")


def walked_positions(spec, line, t, direction, steps):
    """direction * parameter of line_crossings' first `steps` crossings, up
    to a refusal, and whether it refused."""
    out = []
    try:
        for tm, _, _ in islice(mg.line_crossings(spec, line, t, direction), steps):
            out.append(direction * tm)
    except SingularMultigrid:
        return out, True
    return out, False


def test_far_out_walk_never_repeats_a_parameter():
    positions, refused = walked_positions(io.parse_spec(FAR_OUT_TIE), LineId(0, -2),
                                          144778510259001.0, -1, 40)
    assert refused
    assert all(a < b for a, b in zip(positions, positions[1:]))


@given(spec=walk_specs(), grid=st.integers(0, 6), k=st.integers(-2, 2),
       t=st.floats(-1e19, 1e19), direction=st.sampled_from([1, -1]))
@example(spec=io.parse_spec(FAR_OUT_TIE), grid=0, k=-2, t=144778510259001.0, direction=-1)
def test_walks_advance_until_refused(spec, grid, k, t, direction):
    """At any start up to 1e19 out, the parameters a walk yields strictly
    increase in its direction, until a refusal."""
    line = LineId(grid % spec.d, k)
    positions, _ = walked_positions(spec, line, t, direction, 200)
    assert all(a < b for a, b in zip(positions, positions[1:]))


# dominant lines and endpoints ----------------------------------------------

def test_dominant_lines_square(square):
    cs = [mg.make_crossing(square, LineId(0, k0), LineId(1, k1))
          for k0 in (0, 1) for k1 in (0, 1)]
    dom = mg.dominant_lines(square, [c.key for c in cs])
    assert dom[0] == LineId(0, 0) and dom[1] == LineId(1, 0)


def test_dominant_lines_missing_grid(pentagrid):
    only01 = [mg.make_crossing(pentagrid, LineId(0, 0), LineId(1, 0))]
    with pytest.raises(GridNotRepresented) as err:
        mg.dominant_lines(pentagrid, [c.key for c in only01])
    assert err.value.missing == (2, 3, 4)


def test_dominant_lines_postcondition(pentagrid):
    cs = mg.enumerate_crossings(pentagrid, 2.5)
    dom = mg.dominant_lines(pentagrid, [c.key for c in cs])
    for i in range(5):
        ks = {(c.a if c.a.grid == i else c.b).k for c in cs if i in (c.a.grid, c.b.grid)}
        assert dom[i].k in ks
        assert all(abs(pentagrid.offsets[i] + dom[i].k)
                   <= abs(pentagrid.offsets[i] + k) + 1e-12 for k in ks)


def test_endpoints_square(square):
    """Seeded at the origin, the square grid's endpoints 5 steps out, scaled
    by 1/5, are exactly the vertices of its characteristic polygon."""
    seed = mg.make_crossing(square, LineId(0, 0), LineId(1, 0))
    rows = analysis.endpoints_diagnostic(square, graph.Patch(frozenset([seed])), [5])
    assert rows == [analysis.EndpointRow(5, 0.0)]


# misc ----------------------------------------------------------------------

def test_adjacent_direction_pairs_pentagrid(pentagrid):
    pairs = {frozenset(p) for p in mg.adjacent_direction_pairs(pentagrid)}
    assert pairs == {frozenset(p) for p in [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)]}


def test_enumerate_crossings_unique_and_in_disk(pentagrid):
    cs = mg.enumerate_crossings(pentagrid, 6.0)
    assert len(cs) == len({c.key for c in cs})
    assert all(abs(c.point) <= 6.0 + 1e-6 for c in cs)


@given(spec=st.just(MultigridSpec.dfold(5, 0.5))
       | st.builds(random_multigrid, st.integers(3, 9), st.integers(0, 10**6))
       | walk_specs(),
       radius=st.floats(0.0, 6.0))
@example(spec=MultigridSpec.dfold(5, 0.5), radius=6.0)
def test_window_lists_keys_in_ascending_order(spec, radius):
    """window_keys lists each key once, in ascending order, with no sort:
    a chord whose grids cross with cross(i, j) < 0 lists its levels
    ascending too.  The tiling window keeps that order, so keys() is sorted
    and index(key(n)) == n."""
    keys = mg.window_keys(spec, radius)
    assert keys == sorted(set(keys))
    try:
        window = dual.tiling_window(spec, radius)
    except SingularMultigrid:
        return
    assert list(window.keys()) == keys
    assert [window.index(window.key(n)) for n in range(len(window))] == list(range(len(keys)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a chord's level range snaps with an "
                   "absolute _SNAP, so it can miss the crossing of nearly parallel grids")
def test_window_lists_a_crossing_of_nearly_parallel_grids():
    """Grids 0 and 2 lie about 1e-9 rad apart, and their crossing
    (0, -1, 2, -1) lies 0.5 from the origin: radius 5 lists it, and radius
    1 should too."""
    spec = MultigridSpec((1, 0.9998476951563913+0.01745240643728351j,
                          1+1.0402973008122024e-09j), (0.5,) * 3)
    assert (0, -1, 2, -1) in mg.window_keys(spec, 5.0)
    assert (0, -1, 2, -1) in mg.window_keys(spec, 1.0)


def test_nearest_crossing_is_nearest(pentagrid):
    c = mg.nearest_crossing(pentagrid)
    all_near = mg.enumerate_crossings(pentagrid, 2.0)
    assert abs(c.point) == min(abs(x.point) for x in all_near)


@pytest.mark.parametrize("angles", [[0, 90], [0, 60, 120]])
def test_nearest_crossing_breaks_ties_by_key(angles):
    """With every offset 0.5, crossings (0, 0, 1, 0) and (0, -1, 1, -1),
    and on the three grids two more, lie at one float distance from the
    origin; the one with the smallest key is the answer."""
    assert mg.nearest_crossing(MultigridSpec.from_angles(angles, 0.5)).key == (0, -1, 1, -1)


def window_nearest(spec, limit=1e6):
    """Reference for nearest_crossing: the nearest crossing of the first
    nonempty window of radius 1, 2, 4, ... below `limit`, and the keys of
    that window."""
    radius = 1.0
    while radius < limit:
        found = mg.enumerate_crossings(spec, radius)
        if found:
            return min(found, key=lambda c: (abs(c.point), c.key)), {c.key for c in found}
        radius *= 2
    raise NotACrossing("no crossing within 1e6 of the origin")


@given(spec=st.builds(random_multigrid, st.integers(3, 9), st.integers(0, 10**6))
       | walk_specs())
# the squares of both nearest points underflow to 0; the pair (1, 2) comes last
@example(spec=MultigridSpec.from_angles([0, 1, 2], [0.0, 1e-290, 1e-290]))
def test_nearest_crossing_matches_window_search(spec):
    """The window search's crossing, point included, wherever that finds
    one within 64 and its window lists the answer; beyond 128, or refused
    beyond 1e6, the search finds none within 128.

    A window can miss a crossing of two nearly parallel grids whose level
    changes by less than _SNAP along a chord; the answer is then nearer."""
    try:
        distance = abs((got := mg.nearest_crossing(spec)).point)
    except NotACrossing:
        distance = math.inf
    if distance <= 64:
        want, listed = window_nearest(spec)
        if got.key in listed:
            assert (got, got.point) == (want, want.point)
        else:
            assert (distance, got.key) < (abs(want.point), want.key)
    elif distance > 128:
        with pytest.raises(NotACrossing):
            window_nearest(spec, limit=256)


def test_nearest_crossing_of_nearly_parallel_grids(monkeypatch):
    """Two grids 1e-3 degrees apart first cross about 22,900 out; a window
    search lists every line of a disk of radius 32,768 to get there, the
    lattice none."""
    monkeypatch.setattr(mg, "_window_lines", None)
    c = mg.nearest_crossing(MultigridSpec.from_angles([0, 1e-3], [0.5, 0.9]))
    assert c.key == (0, -1, 1, -1)
    assert 22_900 < abs(c.point) < 22_950
    with pytest.raises(NotACrossing, match="no crossing within 1e6 of the origin"):
        mg.nearest_crossing(MultigridSpec.from_angles([0, 1e-5], [0.5, 0.9]))


def test_kernel_tables_are_built_on_the_first_kernel_call():
    """No kernel table at construction; after one kernel call, d(d - 1) row
    entries, d * d sign entries and d(d - 1) / 2 pair entries, not a row
    per pair (d = 255 would make that 16.5M entries)."""
    spec = MultigridSpec.dfold(255)
    d = spec.d
    assert (spec._rows, spec._signs, spec._pairs) == (None, None, None)
    mg.frontier_neighbor_keys(spec, [mg.nearest_crossing(spec).key])
    assert sum(map(len, spec._rows)) == d * (d - 1)
    assert sum(map(len, spec._signs)) == d * d
    assert len(spec._pairs) == d * (d - 1) // 2
