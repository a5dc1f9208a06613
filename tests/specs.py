"""Hypothesis strategies for multigrid specs, the Crossing of a key and the
crossings on a stretch of a line, shared by the test modules."""

from itertools import takewhile

from hypothesis import assume, strategies as st

from coronagrid.errors import ValidationError
from coronagrid.multigrid import LineId, MultigridSpec, line_crossings, make_crossing


@st.composite
def walk_specs(draw):
    """The square grid or d = 2..7 drawn directions, optionally with a pair
    of grids 1e-7 to 1e-2 degrees apart.  Offsets are all 0 (every k = 0
    line passes through the origin), all 0.5, or each 0, 0.5 or drawn."""
    angle = st.floats(0.0, 180.0, exclude_max=True)
    angles = draw(st.one_of(st.just([0.0, 90.0]),
                            *(st.lists(angle, min_size=d, max_size=d) for d in range(2, 8))))
    if draw(st.booleans()):
        pair = draw(st.integers(0, len(angles) - 2))
        angles[pair + 1] = angles[pair] + draw(st.floats(1e-7, 1e-2))
    offset = draw(st.sampled_from([st.just(0.0), st.just(0.5), st.one_of(
        st.just(0.0), st.just(0.5), st.floats(0.0, 1.0, exclude_max=True))]))
    offsets = draw(st.lists(offset, min_size=len(angles), max_size=len(angles)))
    try:
        return MultigridSpec.from_angles(angles, offsets)
    except ValidationError:
        assume(False)


def crossing_of(spec, key):
    """The Crossing with this key, for the entry points that take one."""
    i, ki, j, kj = key
    return make_crossing(spec, LineId(i, ki), LineId(j, kj))


def segment_crossings(spec, line, t0, t1):
    """The Crossings of `line` with parameter in (t0, t1], in increasing
    order, as line_crossings walks them from t0."""
    steps = takewhile(lambda step: step[0] <= t1, line_crossings(spec, line, t0, 1))
    return [make_crossing(spec, line, LineId(j, m)) for _, j, m in steps]
