"""Plain-text config parsing, deterministic SVG rendering, CSV emission.

A config describes one multigrid as ``key: value`` entries, separated by
newlines or top-level commas, with ``#`` comments to end of line.  Each key
reads one type::

    dfold: 5                       # an integer: normals exp(2*pi*1j*k/5)
    angles: [0, 45, 90, 135]       # a list of numbers: normal angles in degrees
    normals: [(1.0, 0.0), ...]     # a list of (re, im) pairs (round-trip form)
    offsets: [0.5 x 5]             # a number or a list; only here "v x n" repeats v

Any other key, and a value not of its key's type, is a ParseError with its
line and column; build_spec then checks that the entries describe one
multigrid.  SVG output is deterministic: rendering the same scene twice
yields byte-identical documents.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence, TextIO

from .analysis import CharPolygon, ConvergenceRow, EndpointRow
from .dual import TilingWindow, corner_tables
from .errors import EmptyScene, ParseError, ValidationError
from .graph import CoronaSequence
from .multigrid import Key, MultigridSpec, check_grid_count, fold_offset

# ---------------------------------------------------------------------------
# config parsing

_REPEAT_RE = re.compile(r"^(.*?)\s*[x×]\s*(\d+)$")


def _error(text: str, pos: int, message: str) -> ParseError:
    """ParseError at the line and column of offset `pos` in `text`."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _fields(text: str, start: int, end: int) -> list[tuple[int, str]]:
    """The nonempty fields of text[start:end], stripped, each with its offset
    in `text`.  A field ends at a newline or at a comma outside brackets."""
    fields = []
    depth = 0
    for idx in range(start, end + 1):
        ch = text[idx] if idx < end else "\n"
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "\n" or (ch == "," and depth == 0):
            field = text[start:idx]
            if field.strip():
                fields.append((start + len(field) - len(field.lstrip()), field.strip()))
            start = idx + 1
    return fields


def _items(text: str, pos: int, raw: str, brackets: str, expected: str) -> list[tuple[int, str]]:
    """The fields inside `raw`, found at `pos`, which must open and close
    with the two `brackets`."""
    if raw[:1] != brackets[0] or raw[-1:] != brackets[1]:
        raise _error(text, pos, f"expected {expected}, got {raw!r}")
    return _fields(text, pos + 1, pos + len(raw) - 1)


def read_number(text: str, pos: int, token: str, kind: type = float) -> float:
    """The `kind` (float or int) that `token`, found at `pos` in `text`, spells."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _error(text, pos, f"expected {noun}, got {token!r}") from None


def read_numbers(text: str, kind: type = float) -> list:
    """The comma-separated numbers in `text`."""
    return [read_number(text, pos, token, kind) for pos, token in _fields(text, 0, len(text))]


def _read_angles(text: str, pos: int, raw: str) -> list[float]:
    return [read_number(text, at, item)
            for at, item in _items(text, pos, raw, "[]", "a list of numbers")]


def _read_normals(text: str, pos: int, raw: str) -> list[complex]:
    normals = []
    for at, item in _items(text, pos, raw, "[]", "a list of (re, im) pairs"):
        parts = _items(text, at, item, "()", "an (re, im) pair")
        if len(parts) != 2:
            raise _error(text, at, f"expected an (re, im) pair, got {item!r}")
        normals.append(complex(*(read_number(text, p, part) for p, part in parts)))
    return normals


def _read_offsets(text: str, pos: int, raw: str) -> list[tuple[float, int]]:
    """(value, count) runs: one number, or a list whose items may be 'v x n'."""
    if not raw.startswith("["):
        return [(read_number(text, pos, raw), 1)]
    runs = []
    for at, item in _items(text, pos, raw, "[]", "a list of numbers"):
        repeat = _REPEAT_RE.match(item)
        value, count = (repeat[1], repeat[2]) if repeat else (item, "1")
        runs.append((read_number(text, at, value), read_number(text, at, count, int)))
    return runs


_READERS = {"dfold": partial(read_number, kind=int), "angles": _read_angles,
            "normals": _read_normals, "offsets": _read_offsets}


def build_spec(
    dfold: int | None = None,
    angles: Sequence[float] | None = None,
    normals: Sequence[complex] | None = None,
    offsets: Sequence[tuple[float, int]] = ((0.5, 1),),
) -> MultigridSpec:
    """The multigrid of exactly one direction form and its offsets.

    ``offsets`` holds (value, count) runs.  A single offset broadcasts to
    every grid; otherwise the counts must add up to d, which is checked
    before any run is expanded.  Offsets outside [0, 1) are folded mod 1
    with a warning.  Raises ValidationError.
    """
    forms = [form for form in (dfold, angles, normals) if form is not None]
    if len(forms) != 1:
        raise ValidationError("give exactly one direction form: dfold, angles or normals")
    d = dfold if dfold is not None else len(forms[0])
    check_grid_count(d)
    count = sum(n for _, n in offsets)
    if count not in (1, d):
        raise ValidationError(f"expected {d} offsets, got {count}")
    values = []
    for g, n in offsets:
        if math.isfinite(g) and fold_offset(g) != g:
            warnings.warn(f"offset {g} normalized to {fold_offset(g)} (same line family)")
            g = fold_offset(g)
        values += [g] * n
    if count == 1:
        values *= d
    if dfold is not None:
        return MultigridSpec.dfold(dfold, values)
    if angles is not None:
        return MultigridSpec.from_angles(angles, values)
    return MultigridSpec(tuple(normals), tuple(values))


def parse_spec(text: str) -> MultigridSpec:
    """Parse a config document into a MultigridSpec: ParseError for a
    malformed entry or value, ValidationError (from build_spec) for a
    config that describes no multigrid."""
    text = re.sub(r"#[^\n]*", lambda comment: " " * len(comment[0]), text)
    values: dict = {}
    for pos, entry in _fields(text, 0, len(text)):
        key, colon, raw = entry.partition(":")
        key = key.strip()
        if not colon:
            raise _error(text, pos, f"expected 'key: value', got {entry!r}")
        if key not in _READERS:
            raise _error(text, pos, f"unknown key {key!r}")
        if key in values:
            raise _error(text, pos, f"duplicate key {key!r}")
        values[key] = _READERS[key](text, pos + len(entry) - len(raw.lstrip()), raw.strip())
    return build_spec(**values)


def serialize_spec(spec: MultigridSpec) -> str:
    """Emit a config document that parses back to a bit-identical spec.

    Uses the exact normals form (repr precision); angles in degrees cannot
    round-trip floats exactly through cos/sin.
    """
    lines = [
        "normals: [" + ", ".join(f"({z.real!r}, {z.imag!r})" for z in spec.normals) + "]",
        "offsets: [" + ", ".join(repr(g) for g in spec.offsets) + "]",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def greyscale_palette(count: int) -> list[str]:
    """`count` greys from #282828 to #ebebeb, darkest first (seed patch
    darkest).  Up to 196 entries they are distinct; longer palettes are
    quantized to those 196 levels, so neighboring entries repeat a grey."""
    if count < 1:
        raise ValidationError("palette needs at least one entry")
    if count == 1:
        levels = [40]
    else:
        levels = [40 + round(195 * i / (count - 1)) for i in range(count)]
    return [f"#{v:02x}{v:02x}{v:02x}" for v in levels]


TYPE_FILLS = ["#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb", "#f2b8c6",
              "#fee391", "#d9d9d9", "#a6dcef", "#e5c8a8", "#bfe3d0"]


@dataclass(frozen=True)
class TilesLayer:
    """Rhombi as tables: ``corners[4n:4n + 4]`` index tile n's corners, in
    boundary order, into ``positions``; ``fills[n]`` is its fill, and the
    tiles are drawn in table order.  A scene builder passes the tables it
    reads (a window's, corner_tables') without copying them."""

    positions: Sequence[complex]
    corners: Sequence[int]
    fills: Sequence[str]


@dataclass(frozen=True)
class PolygonLayer:
    vertices: tuple[complex, ...]
    color: str = "#cc2222"
    dashed: bool = True


Layer = TilesLayer | PolygonLayer


@dataclass(frozen=True)
class SceneSpec:
    """Renderable scene: ordered layers over a square viewport about the origin."""

    radius: float
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("viewport radius must be > 0")


def _cell(p: complex) -> str:
    """A point's text in a path, y flipped."""
    return f"{p.real:.6f} {-p.imag:.6f}"


def render_svg(scene: SceneSpec) -> str:
    """Render the scene to an SVG 1.1 document (text).

    Pure function of the scene: identical scenes give identical bytes.
    The y axis is flipped at emission so the math convention (y up) holds.
    A tiles layer's vertex texts are formatted once per entry of its
    position table, each from its own value (so 0.0 and -0.0 entries print
    apart), and every path is joined from its corners' texts by index.
    """
    if not scene.layers or all(_layer_empty(layer) for layer in scene.layers):
        raise EmptyScene("scene has no content to render")
    r = scene.radius
    tile_w = r / 300.0
    line_w = 2 * tile_w
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(-r)} {_fmt(-r)} {_fmt(2 * r)} {_fmt(2 * r)}">',
        f'<rect x="{_fmt(-r)}" y="{_fmt(-r)}" width="{_fmt(2 * r)}" '
        f'height="{_fmt(2 * r)}" fill="#ffffff"/>',
    ]
    for layer in scene.layers:
        if isinstance(layer, TilesLayer):
            out.append(f'<g stroke="#333333" stroke-width="{_fmt(tile_w)}" '
                       f'stroke-linejoin="round">')
            cells = list(map(_cell, layer.positions))
            corners, fills = layer.corners, layer.fills
            for n, fill in enumerate(fills):
                a, b, c, e = corners[4 * n:4 * n + 4]
                out.append(f'<path d="M{cells[a]} L{cells[b]} L{cells[c]} L{cells[e]} Z" '
                           f'fill="{fill}"/>')
            # the joined document is the peak of memory: free the texts first
            del cells
            out.append("</g>")
        else:
            dash = (f' stroke-dasharray="{_fmt(4 * line_w)} {_fmt(3 * line_w)}"'
                    if layer.dashed else "")
            path = "M" + " L".join(map(_cell, layer.vertices)) + " Z"
            out.append(f'<path d="{path}" fill="none" '
                       f'stroke="{layer.color}" stroke-width="{_fmt(line_w)}"{dash}/>')
    out += ["</svg>", ""]
    return "\n".join(out)


def _layer_empty(layer: Layer) -> bool:
    return not (layer.fills if isinstance(layer, TilesLayer) else layer.vertices)


# scene builders ------------------------------------------------------------

def tiling_scene(window: TilingWindow) -> SceneSpec:
    """Window tiles in crossing-key order, filled by crossing type (grid
    pair).  The layer holds the window's own position and corner tables,
    and one fill reference per tile."""
    spec = window.spec
    fills = {}
    for i in range(spec.d):
        for j in range(i + 1, spec.d):
            fills[(i, j)] = TYPE_FILLS[len(fills) % len(TYPE_FILLS)]
    tile_fills = [fills[i, j] for i, _, j, _ in window.keys()]
    extent = window.radius * spec.d / 2 + 2.0
    return SceneSpec(extent, (TilesLayer(window.positions, window.corners, tile_fills),))


def corona_scene(spec: MultigridSpec, seq: CoronaSequence, overlay: CharPolygon) -> SceneSpec:
    """Corona tiles greyscaled by frontier index, each frontier in
    crossing-key order, under the characteristic overlay scaled by the
    corona count.  One corner_tables pass over all layers gives the corners."""
    palette = greyscale_palette(seq.n_max + 1)
    keys: list[Key] = []
    fills: list[str] = []
    for n in range(seq.n_max + 1):
        layer = sorted(seq.layer(n))
        keys += layer
        fills += [palette[n]] * len(layer)
    corners, _, positions = corner_tables(spec, keys)
    extent = max([1.0, *map(abs, positions)])
    outline = PolygonLayer(tuple(overlay.scaled_vertices(seq.n_max)))
    return SceneSpec(extent * 1.05, (TilesLayer(positions, corners, fills), outline))


def charpoly_scene(chi: CharPolygon, chi_dual: CharPolygon) -> SceneSpec:
    extent = 1.1 * max(max(chi.radii), max(chi_dual.radii))
    return SceneSpec(extent, (
        PolygonLayer(chi.vertices, color="#2255cc", dashed=False),
        PolygonLayer(chi_dual.vertices, color="#cc2222", dashed=True),
    ))


# ---------------------------------------------------------------------------
# CSV emission (deterministic: '.' decimals, '\n' endings, header row)

def write_convergence_csv(rows: Sequence[ConvergenceRow], fp: TextIO) -> None:
    fp.write("n,side,h_n,n_times_h_n,hull_vertices\n")
    for r in rows:
        fp.write(f"{r.n},{r.side},{r.h!r},{r.n_times_h!r},{r.hull_vertices}\n")


def write_endpoints_csv(rows: Sequence[EndpointRow], fp: TextIO) -> None:
    fp.write("n,h_n,n_times_h_n\n")
    for r in rows:
        fp.write(f"{r.n},{r.h!r},{r.n_times_h!r}\n")


def write_charpoly_csv(polys: Sequence[CharPolygon], fp: TextIO) -> None:
    fp.write("side,vertex,x,y,radius\n")
    for cp in polys:
        for idx, v in enumerate(cp.vertices):
            fp.write(f"{cp.side},{idx},{v.real!r},{v.imag!r},{abs(v)!r}\n")


def write_frontiers_csv(seq: CoronaSequence, fp: TextIO) -> None:
    fp.write("n,frontier_size,cumulative_size\n")
    previous = 0
    for n, total in enumerate(seq.sizes()):
        fp.write(f"{n},{total - previous},{total}\n")
        previous = total


def write_tiles_csv(window: TilingWindow, fp: TextIO) -> None:
    """One record per tile, in tile order (crossing-key order): grid pair,
    line indices, corner keys and positions.

    Corners walk the rhombus boundary; keys are space-joined integers.
    Each vertex's cells are formatted once, from the window's vertex table.
    """
    head = ["i", "j", "ki", "kj"]
    head += [f"key{q}" for q in range(4)]
    head += [x for q in range(4) for x in (f"x{q}", f"y{q}")]
    fp.write(",".join(head) + "\n")
    key_cells = [" ".join(map(str, key)) for key in window.vertex_keys()]
    xy_cells = [f"{p.real!r},{p.imag!r}" for p in window.positions]
    corners = window.corners
    for n, (i, ki, j, kj) in enumerate(window.keys()):
        a, b, c, e = corners[4 * n:4 * n + 4]
        fp.write(f"{i},{j},{ki},{kj},{key_cells[a]},{key_cells[b]},{key_cells[c]},"
                 f"{key_cells[e]},{xy_cells[a]},{xy_cells[b]},{xy_cells[c]},{xy_cells[e]}\n")
