import warnings
import xml.etree.ElementTree as ET
from io import StringIO
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coronagrid import analysis, certify, graph, multigrid as mg
from coronagrid import io as cio
from coronagrid.cli import run
from coronagrid.dual import tiling_window
from coronagrid.errors import EmptyScene, ParseError, SingularMultigrid, ValidationError
from coronagrid.multigrid import MultigridSpec


# parsing ---------------------------------------------------------------------

def test_parse_dfold_single_line():
    assert cio.parse_spec("dfold: 5, offsets: [0.5 x 5]") == MultigridSpec.dfold(5, 0.5)


def test_parse_angles_with_params_and_comments():
    """Run parameters are not part of a spec: each is an unknown key."""
    text = """
    # four directions, paper-style
    angles: [0, 45, 90, 135]
    offsets: [0.5 × 4]   # unicode repeat sign
    """
    spec = cio.parse_spec(text)
    assert spec.d == 4
    assert spec.offsets == (0.5,) * 4
    for param in ("radius: 12", "n: [10, 20, 40]", "side: tiling", "rounds: 5", "seed: 1"):
        with pytest.raises(ParseError, match="unknown key") as err:
            cio.parse_spec(text + "    " + param + "\n")
        assert (err.value.line, err.value.column) == (5, 9)


def test_parse_offsets_scalar_broadcast():
    spec = cio.parse_spec("dfold: 7\noffsets: 0.25")
    assert spec.offsets == (0.25,) * 7


def test_parse_normalizes_offsets_with_warning():
    with pytest.warns(UserWarning, match="normalized"):
        spec = cio.parse_spec("dfold: 5\noffsets: [1.25, -0.5, 0.5, 0.5, 0.5]")
    assert spec.offsets == (0.25, 0.5, 0.5, 0.5, 0.5)


def test_fold_warning_names_the_kept_offset():
    with pytest.warns(UserWarning, match=r"offset -1e-20 normalized to 0\.0 "):
        spec = cio.parse_spec("angles: [0, 90], offsets: [-1e-20, 0.5]")
    assert spec.offsets == (0.0, 0.5)


def test_parse_parallel_angles_invalid():
    with pytest.raises(ValidationError):
        cio.parse_spec("angles: [0, 0]")


def test_parse_requires_one_direction_form():
    with pytest.raises(ValidationError):
        cio.parse_spec("dfold: 5\nangles: [0, 10]")
    with pytest.raises(ValidationError):
        cio.parse_spec("offsets: [0.5]")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        cio.parse_spec("dfold: 5\nwhatever: 3")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        cio.parse_spec("dfold")
    with pytest.raises(ParseError):
        cio.parse_spec("dfold: [5")
    with pytest.raises(ParseError):
        cio.parse_spec("dfold: !!")
    with pytest.raises(ParseError):
        cio.parse_spec("dfold: 5\ndfold: 7")


@pytest.mark.parametrize("text, line, column", [
    ("dfold: 5.0", 1, 8),                                # dfold is an integer
    ("angles: [0 x 3]", 1, 10),                          # only offsets repeat
    ("angles: 7", 1, 9),
    ("angles: [0, (0, 1)]", 1, 13),
    ("# d = 2\nnormals: [(1, 0), (0, b)]", 2, 23),
    ("normals: [(1, 0), (0, 1, 0)]", 1, 19),
    ("normals: 0.57", 1, 10),
    ("dfold: 5\noffsets: [0.5, 1e9 x]", 2, 16),
    ("dfold: 5, offsets: (0.5)", 1, 20),
    pytest.param("dfold: 5, offsets: [0.5 x " + "9" * 5000 + "]", 1, 21,
                 id="count-past-the-int-digit-limit"),
])
def test_values_not_of_their_key_type_are_parse_errors(text, line, column):
    with pytest.raises(ParseError) as err:
        cio.parse_spec(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_offsets_broadcast_and_count_before_expanding():
    normals = "normals: [(1.0, 0.0), (0.0, 1.0)]\n"
    assert cio.parse_spec(normals + "offsets: [0.25]").offsets == (0.25, 0.25)
    assert cio.parse_spec(normals + "offsets: 0.25").offsets == (0.25, 0.25)
    assert cio.parse_spec("dfold: 5, offsets: [0.1 x 2, 0.2 x 3]").offsets == \
        (0.1, 0.1, 0.2, 0.2, 0.2)
    with pytest.raises(ValidationError, match="expected 5 offsets, got 10000000000000000"):
        cio.parse_spec("dfold: 5, offsets: [0.5 x 10000000000000000]")


_NUMBERS = ["0", "1", "2", "3", "5", "7", "-1", "0.5", "1.5", "-0.25", "0.0", "1.0",
            "1e400", "nan", "inf", "-inf", "x", "a", ""]
_KEYS = ["dfold", "angles", "normals", "offsets", "radius", ""]
_number = st.sampled_from(_NUMBERS)
_item = st.one_of(
    _number,
    st.builds("({}, {})".format, _number, _number),
    # the only huge tokens: spelled as counts, so no dfold reads them
    st.builds("{} x {}".format, _number,
              st.sampled_from(_NUMBERS + ["99999999999", "9" * 5000])),
)
_value = st.one_of(_number, _item,
                   st.lists(_item, max_size=8).map(lambda items: f"[{', '.join(items)}]"))
_entry = st.builds("{}: {}".format, st.sampled_from(_KEYS), _value)
_entries = st.lists(st.tuples(_entry, st.sampled_from(["\n", ", ", "  # note\n"])),
                    max_size=4).map(lambda parts: "".join(entry + sep for entry, sep in parts))
_config = st.one_of(
    _entries,
    # one valid direction form first, so that most offsets reach the fold
    st.builds("{}\n{}".format, st.sampled_from(["dfold: 3", "dfold: 5", "angles: [0, 90]",
                                                "normals: [(1.0, 0.0), (0.0, 1.0)]"]),
              _entries),
    st.lists(st.sampled_from(_KEYS + _NUMBERS + ["0.5 x 99999999999", ":", ",", "\n",
                                                 "#", "[", "]", "(", ")", "×"]),
             max_size=16).map(" ".join),
)


@settings(max_examples=300)
@given(_config)
@example("dfold: 5\noffsets: nan")
@example("angles: [0, 90]\noffsets: [nan, 1.5]")
@example("normals: [(1.0, 0.0), (0.0, 1.0)], offsets: [nan x 2]")
def test_parse_fails_only_with_its_own_errors(text):
    """Any text built from the grammar's tokens parses, or fails with a
    ParseError inside the text or a ValidationError; no NaN is reported as
    folded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cio.parse_spec(text)
        except ParseError as err:
            assert 1 <= err.line <= text.count("\n") + 1 and err.column >= 1
        except ValidationError:
            pass
    assert not [w for w in caught if "nan" in str(w.message)]


def test_roundtrip_exact():
    specs = [MultigridSpec.from_angles([0, 36.5, 77.1, 103.4], [0.12, 0.9, 0.3, 0.41])]
    specs += [certify.random_multigrid(d, seed) for d in range(2, 10) for seed in range(5)]
    for spec in specs:
        back = cio.parse_spec(cio.serialize_spec(spec))
        assert back == spec and repr(back) == repr(spec)  # bit-exact floats, signed zeros


# SVG -------------------------------------------------------------------------

def test_render_deterministic_and_well_formed(pentagrid):
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    seq = graph.corona_sequence(pentagrid, seed, 6)
    overlay = analysis.tiling_char_polygon(pentagrid)
    scene = cio.corona_scene(pentagrid, seq, overlay)
    doc1, doc2 = cio.render_svg(scene), cio.render_svg(scene)
    assert doc1 == doc2
    root = ET.fromstring(doc1)
    assert root.tag.endswith("svg")
    assert len(root) > 1


def test_single_tile_scene_has_one_closed_path(square):
    window = tiling_window(square, 0.5)  # just the origin cell
    assert len(window) == 1
    scene = cio.tiling_scene(window)
    doc = cio.render_svg(scene)
    root = ET.fromstring(doc)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 1
    d = paths[0].attrib["d"]
    assert d.count("L") == 3 and d.rstrip().endswith("Z")


def test_shared_corners_keep_their_own_text():
    """Each position entry prints as if formatted alone: a vertex shared by
    two tiles prints alike in both, and separate 0.0 and -0.0 entries (which
    compare equal) print apart."""
    positions = [complex(0.0, 0.0), 1 + 1j, 1 + 0.5j, 0.5 + 0.25j,
                 complex(-0.0, -0.0), complex(0.0, -0.0)]
    layer = cio.TilesLayer(positions, [0, 1, 2, 3, 4, 1, 5, 3], ["#000000", "#111111"])
    scene = cio.SceneSpec(2.0, (layer,))
    doc = cio.render_svg(scene)
    paths = [el.attrib["d"] for el in ET.fromstring(doc).iter() if el.tag.endswith("path")]
    assert paths == [
        "M0.000000 -0.000000 L1.000000 -1.000000 L1.000000 -0.500000 L0.500000 -0.250000 Z",
        "M-0.000000 0.000000 L1.000000 -1.000000 L0.000000 0.000000 L0.500000 -0.250000 Z"]
    assert doc == reference_render(scene)


def test_empty_scene_raises():
    with pytest.raises(EmptyScene):
        cio.render_svg(cio.SceneSpec(1.0, ()))
    with pytest.raises(EmptyScene):
        cio.render_svg(cio.SceneSpec(1.0, (cio.TilesLayer((), (), ()),)))
    with pytest.raises(EmptyScene):   # tables, but nothing to draw
        cio.render_svg(cio.SceneSpec(1.0, (cio.TilesLayer([0j] * 4, range(4), ()),)))


# the tuple renderer, reference for render_svg's tables ------------------------

def reference_path(points, cells):
    """Closed SVG path through the points.  ``cells`` caches the text of
    each point shared by several paths; a point with a zero coordinate is
    not cached, because 0.0 and -0.0 compare equal but format apart."""
    out = []
    for p in points:
        cell = cells.get(p)
        if cell is None:
            cell = f"{p.real:.6f} {-p.imag:.6f}"
            if p.real and p.imag:
                cells[p] = cell
        out.append(cell)
    return "M" + " L".join(out) + " Z"


def reference_render(scene):
    """render_svg on tuple tiles: each tiles layer is first copied out as
    (corner cycle, fill) pairs in table order, and every path is built point
    by point through one complex-keyed text cache shared by all layers."""
    def cycles(layer):
        return [(tuple(layer.positions[m] for m in layer.corners[4 * n:4 * n + 4]),
                 fill) for n, fill in enumerate(layer.fills)]

    layers = [cycles(layer) if isinstance(layer, cio.TilesLayer) else layer
              for layer in scene.layers]
    if all(not (layer if isinstance(layer, list) else layer.vertices) for layer in layers):
        raise EmptyScene("scene has no content to render")
    fmt = cio._fmt
    r = scene.radius
    cells = {}
    tile_w = r / 300.0
    line_w = 2 * tile_w
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fmt(-r)} {fmt(-r)} {fmt(2 * r)} {fmt(2 * r)}">',
        f'<rect x="{fmt(-r)}" y="{fmt(-r)}" width="{fmt(2 * r)}" '
        f'height="{fmt(2 * r)}" fill="#ffffff"/>',
    ]
    for layer in layers:
        if isinstance(layer, list):
            out.append(f'<g stroke="#333333" stroke-width="{fmt(tile_w)}" '
                       f'stroke-linejoin="round">')
            for corners, fill in layer:
                out.append(f'<path d="{reference_path(corners, cells)}" fill="{fill}"/>')
            out.append("</g>")
        else:
            dash = (f' stroke-dasharray="{fmt(4 * line_w)} {fmt(3 * line_w)}"'
                    if layer.dashed else "")
            out.append(f'<path d="{reference_path(layer.vertices, cells)}" fill="none" '
                       f'stroke="{layer.color}" stroke-width="{fmt(line_w)}"{dash}/>')
    out += ["</svg>", ""]
    return "\n".join(out)


def outcome(render, scene):
    try:
        return render(scene)
    except EmptyScene as exc:
        return str(exc)


def first_difference(got: str, want: str) -> str | None:
    """None when the texts are equal, else their first differing lines.
    Property tests assert this is None instead of comparing the texts:
    pytest reports a failed comparison of two texts with a line diff, which
    takes seconds for large SVG texts, on every failing example the
    shrinker tries."""
    if got == want:
        return None
    pairs = zip_longest(got.split("\n"), want.split("\n"))
    n, (a, b) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"line {n}: {a!r} != {b!r}"


@st.composite
def scenes(draw):
    """tiling_scene of a window of radius 0..8, or corona_scene of a run to
    n <= 6 with its overlay, on the pentagrid or on
    random_multigrid(d, s) for d = 3..9."""
    d = draw(st.sampled_from([0, *range(3, 10)]))
    spec = MultigridSpec.dfold(5, 0.5) if d == 0 else certify.random_multigrid(
        d, draw(st.integers(0, 10**6)))
    try:
        if draw(st.booleans()):
            return cio.tiling_scene(tiling_window(spec, draw(st.floats(0.0, 8.0))))
        seed = graph.Patch(frozenset([mg.nearest_crossing(spec)]))
        seq = graph.corona_sequence(spec, seed, draw(st.integers(0, 6)))
        return cio.corona_scene(spec, seq, analysis.tiling_char_polygon(spec))
    except SingularMultigrid:
        assume(False)


@given(scene=scenes())
def test_table_renderer_matches_tuple_renderer(scene):
    """render_svg on the scene's tables gives the bytes of the tuple
    renderer on the same tiles, or the same EmptyScene."""
    got, want = outcome(cio.render_svg, scene), outcome(reference_render, scene)
    assert first_difference(got, want) is None


def test_window_and_scene_hold_packed_tables(pentagrid, traced_memory):
    """The radius-30 pentagrid window holds its tables in at most 170 B per
    tile (about 312 B as lists of tuples), and its tiling scene adds at most
    16 B per tile (about 176 B as corner-cycle tuples): it shares the
    window's tables."""
    window, held, _ = traced_memory(tiling_window, pentagrid, 30.0)
    assert len(window) > 20_000
    assert held <= 170 * len(window)
    _, held, _ = traced_memory(cio.tiling_scene, window)
    assert held <= 16 * len(window)


def test_palette_distinct():
    pal = cio.greyscale_palette(81)
    assert len(set(pal)) == 81
    with pytest.raises(ValidationError):
        cio.greyscale_palette(0)
    # past 196 entries the greys repeat: quantized, not refused
    levels = [int(c[1:3], 16) for c in cio.greyscale_palette(500)]
    assert len(levels) == 500 and levels == sorted(levels)
    assert levels[0] == 0x28 and levels[-1] == 0xeb
    assert all(c == f"#{v:02x}{v:02x}{v:02x}"
               for c, v in zip(cio.greyscale_palette(500), levels))


# CSV -------------------------------------------------------------------------

def test_convergence_csv_format(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    rows = analysis.convergence_table(square, graph.Patch(frozenset([seed])),
                                      [5, 10], "multigrid")
    buf = StringIO()
    cio.write_convergence_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,side,h_n,n_times_h_n,hull_vertices"
    assert len(lines) == 3
    n, side, h, nh, hv = lines[1].split(",")
    assert n == "5" and side == "multigrid"
    assert float(h) >= 0 and float(nh) >= 0 and int(hv) >= 3


def test_charpoly_csv_contains_radii(pentagrid):
    buf = StringIO()
    cio.write_charpoly_csv([analysis.grid_char_polygon(pentagrid),
                            analysis.tiling_char_polygon(pentagrid)], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "side,vertex,x,y,radius"
    assert len(lines) == 21
    radii = {line.split(",")[0]: float(line.split(",")[4]) for line in lines[1:]}
    assert radii["multigrid"] == pytest.approx(0.324920, abs=1e-6)
    assert radii["tiling"] == pytest.approx(0.812299, abs=1e-6)


def test_tiles_csv_shape(pentagrid):
    window = tiling_window(pentagrid, 3.0)
    buf = StringIO()
    cio.write_tiles_csv(window, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(window) + 1
    header = lines[0].split(",")
    assert header[:4] == ["i", "j", "ki", "kj"]
    row = lines[1].split(",")
    assert len(row) == len(header)
    assert len(row[4].split()) == pentagrid.d  # key vector of corner 0


def test_gen_and_corona_scene_build_no_objects(pentagrid, tmp_path, count_constructions):
    """`gen` and corona_scene read key and corner tables: neither builds a
    Crossing."""
    seed = graph.Patch(frozenset([mg.nearest_crossing(pentagrid)]))
    seq = graph.corona_sequence(pentagrid, seed, 6)
    overlay = analysis.tiling_char_polygon(pentagrid)
    counts = count_constructions()
    assert run(["gen", "--dfold", "5", "--radius", "6", "--out", str(tmp_path)]) == 0
    assert counts == {}
    cio.render_svg(cio.corona_scene(pentagrid, seq, overlay))
    assert counts == {}


def test_frontiers_csv(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    seq = graph.corona_sequence(square, graph.Patch(frozenset([seed])), 3)
    buf = StringIO()
    cio.write_frontiers_csv(seq, buf)
    assert buf.getvalue().splitlines() == [
        "n,frontier_size,cumulative_size",
        "0,1,1", "1,4,5", "2,8,13", "3,12,25",
    ]
