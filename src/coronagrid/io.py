"""Plain-text config parsing, deterministic SVG rendering, CSV emission.

Config grammar (entries separated by newlines or top-level commas, ``#``
comments to end of line)::

    dfold: 5                       # normals exp(2*pi*1j*k/5)
    angles: [0, 45, 90, 135]       # or: explicit normal angles in degrees
    normals: [(1.0, 0.0), ...]     # or: exact normal components (round-trip form)
    offsets: [0.5 x 5]             # list; "v x n" repeats v n times; scalar broadcasts
    radius: 12                     # optional run parameters
    n: [10, 20, 40, 80]
    side: tiling

Exactly one of dfold / angles / normals selects the directions.  Offsets
outside [0, 1) are normalized mod 1 with a warning (the line families are
unchanged).  SVG output is deterministic: rendering the same scene twice
yields byte-identical documents.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .analysis import CharPolygon, ConvergenceRow, EndpointRow
from .dual import TilingWindow, tile_of_crossing
from .errors import EmptyScene, ParseError, ValidationError
from .graph import CoronaSequence
from .multigrid import MultigridSpec

# ---------------------------------------------------------------------------
# config parsing

_KNOWN_KEYS = {"dfold", "angles", "normals", "offsets", "radius", "n", "side",
               "rounds", "seed"}
_REPEAT_RE = re.compile(r"^(.*?)\s*[x×]\s*(\d+)$")


@dataclass(frozen=True)
class ParsedConfig:
    spec: MultigridSpec
    params: dict


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def _split_entries(text: str) -> list[tuple[int, str]]:
    """Split on newlines and top-level commas, keeping start offsets."""
    entries = []
    depth = 0
    start = 0
    # blank out comments without moving offsets
    chars = list(text)
    in_comment = False
    for idx, ch in enumerate(chars):
        if ch == "#":
            in_comment = True
        if ch == "\n":
            in_comment = False
        elif in_comment:
            chars[idx] = " "
    text = "".join(chars)
    for idx, ch in enumerate(text + "\n"):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif (ch == "\n" or (ch == "," and depth == 0)):
            chunk = text[start:idx]
            if chunk.strip():
                entries.append((start + (len(chunk) - len(chunk.lstrip())), chunk.strip()))
            start = idx + 1
    return entries


def _parse_scalar(token: str, text: str, pos: int) -> float | int | str:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
        return token
    raise ParseError(f"cannot parse value {token!r}", *_line_col(text, pos))


def _split_list_items(body: str) -> list[str]:
    items = []
    depth = 0
    start = 0
    for idx, ch in enumerate(body + ","):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            if body[start:idx].strip():
                items.append(body[start:idx].strip())
            start = idx + 1
    return items


def _parse_value(raw: str, text: str, pos: int):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ParseError("unterminated list", *_line_col(text, pos))
        out = []
        for item in _split_list_items(raw[1:-1]):
            m = _REPEAT_RE.match(item)
            if m and not item.startswith("("):
                value = _parse_scalar(m.group(1), text, pos)
                if isinstance(value, str):
                    raise ParseError(f"cannot repeat {value!r}", *_line_col(text, pos))
                out.extend([value] * int(m.group(2)))
            elif item.startswith("("):
                if not item.endswith(")"):
                    raise ParseError("unterminated pair", *_line_col(text, pos))
                parts = [p for p in item[1:-1].split(",") if p.strip()]
                if len(parts) != 2:
                    raise ParseError("pair needs two components", *_line_col(text, pos))
                out.append((float(parts[0]), float(parts[1])))
            else:
                out.append(_parse_scalar(item, text, pos))
        return out
    return _parse_scalar(raw, text, pos)


def normalized_offsets(offsets: Sequence[float]) -> list[float]:
    """Fold offsets into [0, 1), warning when anything actually moves.
    Non-finite values pass through for MultigridSpec to refuse."""
    out = []
    for g in offsets:
        folded = g % 1.0 if math.isfinite(g) else g
        if folded != g:
            warnings.warn(f"offset {g} normalized to {folded} (same line family)")
        out.append(folded)
    return out


def parse_spec(text: str) -> ParsedConfig:
    """Parse a config document into a MultigridSpec plus run parameters.

    ParseError carries line/column for malformed text; semantically invalid
    geometry (parallel directions, unit-norm violations) raises
    ValidationError.
    """
    values: dict = {}
    for pos, entry in _split_entries(text):
        if ":" not in entry:
            raise ParseError(f"expected 'key: value', got {entry!r}",
                             *_line_col(text, pos))
        key, raw = entry.split(":", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown key {key!r}", *_line_col(text, pos))
        if key in values:
            raise ParseError(f"duplicate key {key!r}", *_line_col(text, pos))
        values[key] = _parse_value(raw, text, pos)

    direction_keys = [k for k in ("dfold", "angles", "normals") if k in values]
    if len(direction_keys) != 1:
        raise ValidationError(
            "config must set exactly one of dfold / angles / normals")
    offsets = values.get("offsets", 0.5)
    if isinstance(offsets, list):
        if not all(isinstance(v, (int, float)) for v in offsets):
            raise ValidationError("offsets must be numbers")
        offsets = normalized_offsets(offsets)
    elif isinstance(offsets, (int, float)):
        offsets = normalized_offsets([float(offsets)])[0]
    else:
        raise ValidationError(f"offsets must be numbers, got {offsets!r}")

    key = direction_keys[0]
    if key == "dfold":
        if not isinstance(values["dfold"], int):
            raise ValidationError(f"dfold must be an integer, got {values['dfold']}")
        spec = MultigridSpec.dfold(values["dfold"], offsets)
    elif key == "angles":
        spec = MultigridSpec.from_angles(values["angles"], offsets)
    else:
        normals = values["normals"]
        if not all(isinstance(v, tuple) for v in normals):
            raise ValidationError("normals must be (re, im) pairs")
        if isinstance(offsets, (int, float)):
            offsets = [float(offsets)] * len(normals)
        spec = MultigridSpec(tuple(complex(re_, im_) for re_, im_ in normals),
                             tuple(offsets))

    params = {k: v for k, v in values.items()
              if k not in ("dfold", "angles", "normals", "offsets")}
    return ParsedConfig(spec, params)


def serialize_spec(spec: MultigridSpec, params: dict | None = None) -> str:
    """Emit a config document that parses back to a bit-identical spec.

    Uses the exact normals form (repr precision); angles in degrees cannot
    round-trip floats exactly through cos/sin.
    """
    lines = [
        "normals: [" + ", ".join(f"({z.real!r}, {z.imag!r})" for z in spec.normals) + "]",
        "offsets: [" + ", ".join(repr(g) for g in spec.offsets) + "]",
    ]
    for k, v in (params or {}).items():
        if isinstance(v, (list, tuple)):
            lines.append(f"{k}: [" + ", ".join(str(x) for x in v) + "]")
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def greyscale_palette(count: int) -> list[str]:
    """`count` distinguishable greys, darkest first (seed patch darkest)."""
    if count < 1:
        raise ValidationError("palette needs at least one entry")
    if count > 195:
        raise ValidationError(f"greyscale palette limited to 195 entries, got {count}")
    if count == 1:
        levels = [40]
    else:
        levels = [40 + round(195 * i / (count - 1)) for i in range(count)]
    return [f"#{v:02x}{v:02x}{v:02x}" for v in levels]


TYPE_FILLS = ["#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb", "#f2b8c6",
              "#fee391", "#d9d9d9", "#a6dcef", "#e5c8a8", "#bfe3d0"]


@dataclass(frozen=True)
class TilesLayer:
    tiles: tuple[tuple[tuple[complex, ...], str], ...]  # (corner cycle, fill)
    stroke: str = "#333333"


@dataclass(frozen=True)
class PolygonLayer:
    vertices: tuple[complex, ...]
    color: str = "#cc2222"
    dashed: bool = True


Layer = TilesLayer | PolygonLayer


@dataclass(frozen=True)
class SceneSpec:
    """Renderable scene: ordered layers over a square viewport."""

    center: complex
    radius: float
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("viewport radius must be > 0")


def _path(points: Iterable[complex]) -> str:
    """Closed SVG path through the points."""
    return "M" + " L".join(f"{_fmt(p.real)} {_fmt(-p.imag)}" for p in points) + " Z"


def render_svg(scene: SceneSpec) -> str:
    """Render the scene to an SVG 1.1 document (text).

    Pure function of the scene: identical scenes give identical bytes.
    The y axis is flipped at emission so the math convention (y up) holds.
    """
    if not scene.layers or all(_layer_empty(layer) for layer in scene.layers):
        raise EmptyScene("scene has no content to render")
    r = scene.radius
    cx, cy = scene.center.real, scene.center.imag
    tile_w = r / 300.0
    line_w = 2 * tile_w
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(cx - r)} {_fmt(-cy - r)} {_fmt(2 * r)} {_fmt(2 * r)}">',
        f'<rect x="{_fmt(cx - r)}" y="{_fmt(-cy - r)}" width="{_fmt(2 * r)}" '
        f'height="{_fmt(2 * r)}" fill="#ffffff"/>',
    ]
    for layer in scene.layers:
        if isinstance(layer, TilesLayer):
            out.append(f'<g stroke="{layer.stroke}" stroke-width="{_fmt(tile_w)}" '
                       f'stroke-linejoin="round">')
            for corners, fill in layer.tiles:
                out.append(f'<path d="{_path(corners)}" fill="{fill}"/>')
            out.append("</g>")
        else:
            dash = (f' stroke-dasharray="{_fmt(4 * line_w)} {_fmt(3 * line_w)}"'
                    if layer.dashed else "")
            out.append(f'<path d="{_path(layer.vertices)}" fill="none" '
                       f'stroke="{layer.color}" stroke-width="{_fmt(line_w)}"{dash}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _layer_empty(layer: Layer) -> bool:
    return not (layer.tiles if isinstance(layer, TilesLayer) else layer.vertices)


# scene builders ------------------------------------------------------------

def tiling_scene(window: TilingWindow) -> SceneSpec:
    """Window tiles filled by crossing type (grid pair)."""
    spec = window.spec
    pair_index = {}
    for i in range(spec.d):
        for j in range(i + 1, spec.d):
            pair_index[(i, j)] = len(pair_index)
    tiles = []
    for c in window.crossings():
        fill = TYPE_FILLS[pair_index[c.grids] % len(TYPE_FILLS)]
        tiles.append((window.tiles[c].corner_points, fill))
    extent = window.radius * spec.d / 2 + 2.0
    return SceneSpec(0j, extent, (TilesLayer(tuple(tiles)),))


def corona_scene(
    spec: MultigridSpec,
    seq: CoronaSequence,
    overlay: CharPolygon | None = None,
) -> SceneSpec:
    """Corona tiles greyscaled by frontier index, opt. characteristic overlay
    scaled by the corona count."""
    palette = greyscale_palette(seq.n_max + 1)
    tiles = []
    for n, frontier in enumerate(seq.frontiers):
        for c in sorted(frontier, key=lambda c: c.key):
            tiles.append((tile_of_crossing(spec, c).corner_points, palette[n]))
    layers: list[Layer] = [TilesLayer(tuple(tiles))]
    extent = 1.0
    for corners, _ in tiles:
        extent = max(extent, max(abs(p) for p in corners))
    if overlay is not None:
        layers.append(PolygonLayer(tuple(overlay.scaled_vertices(seq.n_max))))
    return SceneSpec(0j, extent * 1.05, tuple(layers))


def charpoly_scene(chi: CharPolygon, chi_dual: CharPolygon) -> SceneSpec:
    extent = 1.1 * max(max(chi.radii), max(chi_dual.radii))
    return SceneSpec(0j, extent, (
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
    for n, (f, total) in enumerate(zip(seq.frontiers, seq.sizes())):
        fp.write(f"{n},{len(f)},{total}\n")


def write_tiles_csv(window: TilingWindow, fp: TextIO) -> None:
    """One record per tile: grid pair, line indices, corner keys and positions.

    Corners walk the rhombus boundary; keys are space-joined integers.
    """
    head = ["i", "j", "ki", "kj"]
    head += [f"key{q}" for q in range(4)]
    head += [x for q in range(4) for x in (f"x{q}", f"y{q}")]
    fp.write(",".join(head) + "\n")
    for c in window.crossings():
        tile = window.tiles[c]
        cells = [str(c.a.grid), str(c.b.grid), str(c.a.k), str(c.b.k)]
        cells += [" ".join(str(v) for v in corner.key) for corner in tile.corners]
        for corner in tile.corners:
            cells += [repr(corner.position.real), repr(corner.position.imag)]
        fp.write(",".join(cells) + "\n")
