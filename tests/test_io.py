import xml.etree.ElementTree as ET
from io import StringIO

import pytest

from coronagrid import analysis, graph, multigrid as mg
from coronagrid import io as cio
from coronagrid.dual import tiling_window
from coronagrid.errors import EmptyScene, ParseError, ValidationError
from coronagrid.multigrid import MultigridSpec


# parsing ---------------------------------------------------------------------

def test_parse_dfold_single_line():
    parsed = cio.parse_spec("dfold: 5, offsets: [0.5 x 5]")
    assert parsed.spec == MultigridSpec.dfold(5, 0.5)
    assert parsed.params == {}


def test_parse_angles_with_params_and_comments():
    text = """
    # four directions, paper-style
    angles: [0, 45, 90, 135]
    offsets: [0.5 × 4]   # unicode repeat sign
    radius: 12
    n: [10, 20, 40]
    side: tiling
    """
    parsed = cio.parse_spec(text)
    assert parsed.spec.d == 4
    assert parsed.spec.offsets == (0.5,) * 4
    assert parsed.params == {"radius": 12, "n": [10, 20, 40], "side": "tiling"}


def test_parse_offsets_scalar_broadcast():
    spec = cio.parse_spec("dfold: 7\noffsets: 0.25").spec
    assert spec.offsets == (0.25,) * 7


def test_parse_normalizes_offsets_with_warning():
    with pytest.warns(UserWarning, match="normalized"):
        spec = cio.parse_spec("dfold: 5\noffsets: [1.25, -0.5, 0.5, 0.5, 0.5]").spec
    assert spec.offsets == (0.25, 0.5, 0.5, 0.5, 0.5)


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


def test_roundtrip_exact():
    spec = MultigridSpec.from_angles([0, 36.5, 77.1, 103.4], [0.12, 0.9, 0.3, 0.41])
    params = {"radius": 9.5, "n": [5, 10], "side": "multigrid"}
    text = cio.serialize_spec(spec, params)
    back = cio.parse_spec(text)
    assert back.spec == spec  # dataclass equality: bit-exact floats
    assert back.params["n"] == [5, 10]
    assert back.params["side"] == "multigrid"


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


def test_empty_scene_raises():
    with pytest.raises(EmptyScene):
        cio.render_svg(cio.SceneSpec(0j, 1.0, ()))
    with pytest.raises(EmptyScene):
        cio.render_svg(cio.SceneSpec(0j, 1.0, (cio.TilesLayer(()),)))


def test_palette_distinct():
    pal = cio.greyscale_palette(81)
    assert len(set(pal)) == 81
    with pytest.raises(ValidationError):
        cio.greyscale_palette(0)
    with pytest.raises(ValidationError):
        cio.greyscale_palette(500)


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


def test_frontiers_csv(square):
    seed = mg.make_crossing(square, mg.LineId(0, 0), mg.LineId(1, 0))
    seq = graph.corona_sequence(square, graph.Patch(frozenset([seed])), 3)
    buf = StringIO()
    cio.write_frontiers_csv(seq, buf)
    assert buf.getvalue().splitlines() == [
        "n,frontier_size,cumulative_size",
        "0,1,1", "1,4,5", "2,8,13", "3,12,25",
    ]
