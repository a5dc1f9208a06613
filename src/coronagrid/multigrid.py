"""Multigrids: d families of evenly spaced parallel lines and their crossings.

A grid with unit normal z and offset g is the line family
``{p : p.z - g integer}``; a multigrid is a union of d such families with
pairwise non-parallel normals.  Lines are indexed by (grid, k); the line
(i, k) is ``{p : p.normal_i - offset_i == k}`` and is parameterized as
``foot + t*perp(normal_i)`` with foot = (offset_i + k)*normal_i, so the
parameter of a point z on the line is simply ``z . perp(normal_i)``.

Crossings (intersections of two lines of different families) are the
vertices of the multigrid graph and, dually, the tiles of the rhombus
tiling built in :mod:`coronagrid.dual`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    GridNotRepresented,
    NotACrossing,
    ParallelLines,
    SameGrid,
    SingularMultigrid,
    ValidationError,
)
from .geom import EPS_GEOM, cross, perp, scalar_product

# Two crossings closer than this (along a line or in the plane) are treated
# as a (near-)triple intersection: consecutive-crossing order would be
# numerically fragile, so operations refuse instead of mis-sorting.
# Deliberately coarser than EPS_GEOM.
EPS_SINGULAR = 1e-7

# Snap tolerance for "is this level an integer" decisions when counting and
# walking; keeps the half-open boundary convention stable under float noise.
_SNAP = EPS_GEOM


class LineId(NamedTuple):
    """One line of the multigrid: grid family index and integer level k."""

    grid: int
    k: int


@dataclass(frozen=True)
class MultigridSpec:
    """Immutable multigrid instance: d unit normals and offsets in [0, 1).

    Offsets are normalized mod 1 on construction (the line family is
    unchanged by integer shifts of its offset).
    """

    normals: tuple[complex, ...]
    offsets: tuple[float, ...]
    _dots: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _crosses: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    # per grid i: (l, cross(i, l), dot(i, l), offset_l) for every other grid l
    _steps: tuple[tuple[tuple[int, float, float, float], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        normals = tuple(complex(z) for z in self.normals)
        offsets = tuple(float(g) % 1.0 for g in self.offsets)
        if len(normals) != len(offsets):
            raise ValidationError("need exactly one offset per normal")
        if len(normals) < 2:
            raise ValidationError("a multigrid needs at least 2 grid families")
        for i, (z, g) in enumerate(zip(normals, self.offsets)):
            if not (cmath.isfinite(z) and math.isfinite(g)):
                raise ValidationError(f"grid {i}: normal {z} and offset {g} must be finite")
            if abs(abs(z) - 1.0) > EPS_GEOM:
                raise ValidationError(f"normal {i} is not a unit vector: {z}")
        for i in range(len(normals)):
            for j in range(i + 1, len(normals)):
                if abs(cross(normals[i], normals[j])) <= EPS_GEOM:
                    raise ValidationError(f"directions {i} and {j} are parallel")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        d = len(normals)
        dots = tuple(tuple(scalar_product(normals[i], normals[j]) for j in range(d))
                     for i in range(d))
        crosses = tuple(tuple(cross(normals[i], normals[j]) for j in range(d))
                        for i in range(d))
        object.__setattr__(self, "_dots", dots)
        object.__setattr__(self, "_crosses", crosses)
        steps = tuple(tuple((l, crosses[i][l], dots[i][l], offsets[l])
                            for l in range(d) if l != i) for i in range(d))
        object.__setattr__(self, "_steps", steps)

    @classmethod
    def dfold(cls, d: int, offsets: float | Sequence[float] = 0.5) -> "MultigridSpec":
        """Symmetric d-fold multigrid with normals exp(2*pi*1j*k/d).

        Only odd d gives pairwise non-parallel normals; even d raises
        ValidationError (use from_angles for e.g. a 0/45/90/135 grid).
        """
        normals = tuple(cmath.exp(2j * math.pi * k / d) for k in range(d))
        return cls(normals, cls._broadcast(offsets, d))

    @classmethod
    def from_angles(cls, degrees: Sequence[float],
                    offsets: float | Sequence[float] = 0.5) -> "MultigridSpec":
        """Multigrid with normals at the given angles (degrees)."""
        normals = tuple(cmath.exp(1j * math.radians(a)) for a in degrees)
        return cls(normals, cls._broadcast(offsets, len(normals)))

    @staticmethod
    def _broadcast(offsets: float | Sequence[float], d: int) -> tuple[float, ...]:
        if isinstance(offsets, (int, float)):
            return (float(offsets),) * d
        offsets = tuple(float(g) for g in offsets)
        if len(offsets) == 1:
            return offsets * d
        if len(offsets) != d:
            raise ValidationError(f"expected {d} offsets, got {len(offsets)}")
        return offsets

    @property
    def d(self) -> int:
        return len(self.normals)

    def dot(self, i: int, j: int) -> float:
        """normal_i . normal_j"""
        return self._dots[i][j]

    def cross(self, i: int, j: int) -> float:
        """perp(normal_i) . normal_j; nonzero for i != j by construction."""
        return self._crosses[i][j]

    def level(self, i: int, z: complex) -> float:
        """Grid-i level of z: z.normal_i - offset_i (an integer exactly on i-lines)."""
        return scalar_product(z, self.normals[i]) - self.offsets[i]

    def line_foot(self, line: LineId) -> complex:
        """Parameter-0 point of the line: (offset+k)*normal."""
        return (self.offsets[line.grid] + line.k) * self.normals[line.grid]

    def line_point(self, line: LineId, t: float) -> complex:
        return self.line_foot(line) + t * perp(self.normals[line.grid])

    def line_parameter(self, line: LineId, z: complex) -> float:
        """Parameter of z along the line's direction (z assumed on the line)."""
        return scalar_product(z, perp(self.normals[line.grid]))


@dataclass(frozen=True)
class Crossing:
    """Intersection of two lines of distinct grids; a.grid < b.grid canonically.

    Identity (equality/hash) is the exact integer tuple (i, ki, j, kj); the
    cached Euclidean point takes no part in comparisons.
    """

    a: LineId
    b: LineId
    point: complex = field(compare=False)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.a.grid, self.a.k, self.b.grid, self.b.k)

    @property
    def grids(self) -> tuple[int, int]:
        return (self.a.grid, self.b.grid)

    def line_of_grid(self, i: int) -> LineId:
        if self.a.grid == i:
            return self.a
        if self.b.grid == i:
            return self.b
        raise SameGrid(f"crossing {self.key} has no line of grid {i}")

    def other_line(self, line: LineId) -> LineId:
        return self.b if line == self.a else self.a


def crossing_point(spec: MultigridSpec, a: LineId, b: LineId) -> complex:
    """The unique point on both lines (2x2 linear solve).

    Raises ParallelLines when both lines belong to the same grid family.
    """
    if a.grid == b.grid:
        raise ParallelLines(f"lines {a} and {b} are parallel (same grid)")
    za, zb = spec.normals[a.grid], spec.normals[b.grid]
    ra = spec.offsets[a.grid] + a.k
    rb = spec.offsets[b.grid] + b.k
    det = cross(za, zb)
    x = (ra * zb.imag - rb * za.imag) / det
    y = (za.real * rb - zb.real * ra) / det
    return complex(x, y)


def make_crossing(spec: MultigridSpec, a: LineId, b: LineId) -> Crossing:
    """Canonical Crossing of two lines (orders the pair by grid index)."""
    if a.grid > b.grid:
        a, b = b, a
    return Crossing(a, b, crossing_point(spec, a, b))


def _segment_crossings_with_grid(
    spec: MultigridSpec, line: LineId, j: int, t0: float, t1: float,
) -> list[tuple[float, Crossing]]:
    """Crossings of `line` with grid j at parameters in the half-open (t0, t1],
    in increasing parameter order.

    Closed-form integer-level range; together with the snapped boundary
    convention this makes segment concatenation exactly additive.
    """
    i, k = line
    s = spec.cross(i, j)
    base = (spec.offsets[i] + k) * spec.dot(i, j) - spec.offsets[j]
    u0 = base + t0 * s
    u1 = base + t1 * s
    if s > 0:
        ms = range(math.floor(u0 + _SNAP) + 1, math.floor(u1 + _SNAP) + 1)
    else:
        ms = range(math.ceil(u0 - _SNAP) - 1, math.ceil(u1 - _SNAP) - 1, -1)
    return [((m - base) / s, make_crossing(spec, line, LineId(j, m))) for m in ms]


def crossings_on_segment(
    spec: MultigridSpec, line: LineId, t0: float, t1: float,
) -> list[Crossing]:
    """All crossings of `line` with parameter in (t0, t1], sorted ascending.

    Raises SingularMultigrid when two crossings (nearly) coincide, since
    their order along the line would be meaningless.
    """
    if t0 > t1:
        raise ValueError(f"need t0 <= t1, got ({t0}, {t1})")
    if t0 == t1:
        return []
    found: list[tuple[float, Crossing]] = []
    for j in range(spec.d):
        if j != line.grid:
            found.extend(_segment_crossings_with_grid(spec, line, j, t0, t1))
    found.sort(key=lambda tc: tc[0])
    for (ta, ca), (tb, cb) in zip(found, found[1:]):
        if tb - ta < EPS_SINGULAR:
            raise SingularMultigrid(
                f"crossings {ca.key} and {cb.key} coincide on line {line}")
    return [c for _, c in found]


def count_crossings_with_grid(
    spec: MultigridSpec, line: LineId, z: complex, alpha: float, j: int,
) -> int:
    """Number of crossings of `line` with grid j on the half-open segment
    from z to z + alpha*perp(normal_i).

    Closed form; always within 2 of alpha*|perp(normal_i) . normal_j|.
    """
    i = line.grid
    if j == i:
        raise SameGrid(f"grid {j} is the line's own family")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if abs(spec.level(i, z) - line.k) > 1e-6:
        raise ValueError(f"point {z} is not on line {line}")
    s = spec.cross(i, j)
    u0 = spec.level(j, z)
    u1 = u0 + alpha * s
    if s > 0:
        return math.floor(u1 + _SNAP) - math.floor(u0 + _SNAP)
    return math.ceil(u0 - _SNAP) - math.ceil(u1 - _SNAP)


def crossing_at(spec: MultigridSpec, z: complex, tol: float = 1e-6) -> Crossing:
    """The crossing sitting at point z, if there is one.

    Raises NotACrossing unless exactly two grid levels of z are integral.
    """
    on = []
    for i in range(spec.d):
        u = spec.level(i, z)
        k = round(u)
        if abs(u - k) <= tol:
            on.append(LineId(i, k))
    if len(on) != 2:
        raise NotACrossing(f"{z} lies on {len(on)} grid lines, need exactly 2")
    return make_crossing(spec, on[0], on[1])


def next_crossing_on_line(
    spec: MultigridSpec, line: LineId, t: float, direction: int,
) -> tuple[float, Crossing]:
    """First crossing of `line` strictly beyond parameter t in the given
    direction (+1/-1).  Returns (parameter, crossing).

    O(d): per other grid, the next integer level is found in closed form.
    Raises SingularMultigrid when the two nearest candidates are closer than
    EPS_SINGULAR (their order would be numerically meaningless).
    """
    i, k = line
    best_dt = math.inf
    second_dt = math.inf
    best_j = best_m = -1
    best_t = t
    for j in range(spec.d):
        if j == i:
            continue
        s = spec.cross(i, j)
        base = (spec.offsets[i] + k) * spec.dot(i, j) - spec.offsets[j]
        u_t = base + t * s
        if direction * s > 0:
            m = math.floor(u_t + _SNAP) + 1
        else:
            m = math.ceil(u_t - _SNAP) - 1
        tm = (m - base) / s
        dt = direction * (tm - t)
        if dt < best_dt:
            second_dt = best_dt
            best_dt = dt
            best_j, best_m, best_t = j, m, tm
        elif dt < second_dt:
            second_dt = dt
    if second_dt - best_dt < EPS_SINGULAR:
        raise SingularMultigrid(
            f"two crossings coincide on line {line} near parameter {best_t}")
    return best_t, make_crossing(spec, line, LineId(best_j, best_m))


def line_step_keys(
    spec: MultigridSpec, i: int, ki: int, j: int, kj: int,
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Keys of the crossings just after and just before the crossing of
    lines (i, ki) and (j, kj), walking along line (i, ki).

    The key-level form of next_crossing_on_line, taken both ways at once:
    the crossing's parameter comes from its key in closed form, and per
    other grid one level value gives the next level up and down.  Builds no
    Crossing.  Raises SingularMultigrid, for direction +1 before direction
    -1, when the two nearest candidates in a direction are closer than
    EPS_SINGULAR.
    """
    floor, ceil = math.floor, math.ceil
    offsets = spec.offsets
    r = offsets[i] + ki
    t = (kj - (r * spec._dots[i][j] - offsets[j])) / spec._crosses[i][j]
    up_dt = up_second = down_dt = down_second = math.inf
    for l, s, dot, offset in spec._steps[i]:
        base = r * dot - offset
        u = base + t * s
        above = floor(u + _SNAP) + 1
        below = ceil(u - _SNAP) - 1
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
    for second, dt, tm in ((up_second, up_dt, up_t), (down_second, down_dt, down_t)):
        if second - dt < EPS_SINGULAR:
            raise SingularMultigrid(
                f"two crossings coincide on line {LineId(i, ki)} near parameter {tm}")
    return ((i, ki, up_l, up_m) if i < up_l else (up_l, up_m, i, ki),
            (i, ki, down_l, down_m) if i < down_l else (down_l, down_m, i, ki))


def nth_crossing(
    spec: MultigridSpec, line: LineId, start: complex, direction: int, n: int,
) -> Crossing:
    """The n-th crossing of `line` from `start`, walking in direction +-1.

    n = 0 returns the crossing at `start` itself (NotACrossing if `start` is
    not a crossing).  The walk is lazy: each step is a closed-form "next
    integer level" query per other grid, no scanning.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return crossing_at(spec, start)
    t = spec.line_parameter(line, start)
    crossing = None
    for _ in range(n):
        t, crossing = next_crossing_on_line(spec, line, t, direction)
    assert crossing is not None
    return crossing


def enumerate_crossings(
    spec: MultigridSpec, radius: float, center: complex = 0j,
) -> list[Crossing]:
    """All crossings with |point - center| <= radius, each exactly once."""
    if not math.isfinite(radius):
        raise ValidationError(f"radius must be finite, got {radius}")
    out: list[Crossing] = []
    for i in range(spec.d):
        g = spec.offsets[i]
        proj = scalar_product(center, spec.normals[i])
        k_min = math.ceil(proj - radius - g)
        k_max = math.floor(proj + radius - g)
        for k in range(k_min, k_max + 1):
            line = LineId(i, k)
            dist = abs(g + k - proj)
            half = math.sqrt(max(radius * radius - dist * dist, 0.0))
            t_mid = spec.line_parameter(line, center)
            for j in range(i + 1, spec.d):
                out.extend(c for _, c in _segment_crossings_with_grid(
                    spec, line, j, t_mid - half - _SNAP, t_mid + half))
    return out


@dataclass(frozen=True)
class SingularPoint:
    point: complex
    lines: tuple[LineId, ...]


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a windowed regularity scan.  Singularity is data, not an error."""

    radius: float
    crossing_count: int
    singular_points: tuple[SingularPoint, ...]

    @property
    def is_regular(self) -> bool:
        return not self.singular_points


def check_regular(spec: MultigridSpec, window_radius: float) -> RegularityReport:
    """Scan the window for points where 3+ lines of different grids meet.

    Coincident crossings are detected by spatial hashing of crossing points
    with threshold EPS_SINGULAR; the report lists the lines through each
    offending point.
    """
    if window_radius <= 0:
        raise ValueError("window_radius must be > 0")
    crossings = enumerate_crossings(spec, window_radius)
    cell = 1e-3
    buckets: dict[tuple[int, int], list[Crossing]] = {}
    clusters: list[tuple[complex, set[LineId]]] = []
    for c in crossings:
        cx = math.floor(c.point.real / cell)
        cy = math.floor(c.point.imag / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    if abs(other.point - c.point) < EPS_SINGULAR:
                        for p, lines in clusters:
                            if abs(p - c.point) < 2 * EPS_SINGULAR:
                                lines.update((other.a, other.b, c.a, c.b))
                                break
                        else:
                            clusters.append(
                                (c.point, {other.a, other.b, c.a, c.b}))
        buckets.setdefault((cx, cy), []).append(c)
    singular = tuple(SingularPoint(p, tuple(sorted(lines)))
                     for p, lines in clusters)
    return RegularityReport(window_radius, len(crossings), singular)


@dataclass(frozen=True)
class DominantLines:
    """One chosen line per grid direction, indexed by grid."""

    lines: tuple[LineId, ...]

    def __getitem__(self, i: int) -> LineId:
        return self.lines[i]

    def __iter__(self):
        return iter(self.lines)


def dominant_lines(spec: MultigridSpec, crossings: Iterable[Crossing]) -> DominantLines:
    """Per grid direction, the line through the given crossings closest to
    the origin (tie-break: smaller k).

    Raises GridNotRepresented if some grid has no line through the set; the
    caller should grow the patch first.
    """
    candidates: dict[int, set[int]] = {}
    for c in crossings:
        candidates.setdefault(c.a.grid, set()).add(c.a.k)
        candidates.setdefault(c.b.grid, set()).add(c.b.k)
    missing = tuple(i for i in range(spec.d) if i not in candidates)
    if missing:
        raise GridNotRepresented(missing)
    chosen = []
    for i in range(spec.d):
        k = min(candidates[i], key=lambda k: (abs(spec.offsets[i] + k), k))
        chosen.append(LineId(i, k))
    return DominantLines(tuple(chosen))


@dataclass(frozen=True)
class Endpoints:
    """Per direction, the pair of crossings n line-steps beyond the patch."""

    n: int
    pairs: tuple[tuple[Crossing, Crossing], ...]

    def points(self) -> list[complex]:
        return [c.point for pair in self.pairs for c in pair]


def endpoints(
    spec: MultigridSpec,
    lines: DominantLines,
    crossings: Iterable[Crossing],
    n: int,
) -> Endpoints:
    """Walk n crossings outward from the patch's extremes on each dominant line.

    For each grid i, the patch crossings on line i are located; the walk
    starts from the crossing of largest parameter (positive direction) and
    of smallest parameter (negative direction).  n = 0 returns the extremes.
    """
    crossings = list(crossings)
    pairs = []
    for i in range(spec.d):
        line = lines[i]
        on_line = [c for c in crossings if line in (c.a, c.b)]
        if not on_line:
            raise GridNotRepresented((i,))
        by_t = sorted(on_line, key=lambda c: spec.line_parameter(line, c.point))
        z_minus, z_plus = by_t[0], by_t[-1]
        e_plus = nth_crossing(spec, line, z_plus.point, +1, n)
        e_minus = nth_crossing(spec, line, z_minus.point, -1, n)
        pairs.append((e_plus, e_minus))
    return Endpoints(n, tuple(pairs))


def nearest_crossing(spec: MultigridSpec, z: complex = 0j) -> Crossing:
    """The crossing nearest to z (used for canonical seed patches)."""
    radius = 1.0
    while radius < 1e6:
        found = enumerate_crossings(spec, radius, center=z)
        if found:
            return min(found, key=lambda c: (abs(c.point - z), c.key))
        radius *= 2
    raise NotACrossing(f"no crossing within 1e6 of {z}")


def adjacent_direction_pairs(spec: MultigridSpec) -> list[tuple[int, int]]:
    """Pairs (i, j) of adjacent directions: no other grid direction lies in
    the cone between them.

    Directions are folded into [0, pi) (a line direction is sign-free) and
    sorted by angle; cyclically consecutive entries are adjacent.
    """
    folded = sorted((math.atan2(z.imag, z.real) % math.pi, i)
                    for i, z in enumerate(spec.normals))
    order = [i for _, i in folded]
    pairs = []
    seen = set()
    for k in range(len(order)):
        pair = (order[k], order[(k + 1) % len(order)])
        key = frozenset(pair)
        if key not in seen:
            seen.add(key)
            pairs.append(pair)
    return pairs
