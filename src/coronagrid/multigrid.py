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
import os
import sys
from dataclasses import dataclass, field
from heapq import heapify, heapreplace
from itertools import islice
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    GridNotRepresented,
    NotACrossing,
    ParallelLines,
    ResourceLimit,
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

# About twice the float error of a grid's level at crossing (i, ki, j, kj), as
# line_steps or frontier_neighbor_keys solves it, per unit of
# (|offset_i + ki| + |offset_j + kj| + 1) / |cross(i, j)|.
_ROUNDING = 16 * sys.float_info.epsilon

CAP_ENV = "CORONAGRID_MAX_CROSSINGS"

# The most grid families a spec may have: construction builds d x d tables.
MAX_GRIDS = 256


def check_grid_count(d: int) -> None:
    """Raise ValidationError unless 2 <= d <= MAX_GRIDS."""
    if not 2 <= d <= MAX_GRIDS:
        raise ValidationError(f"a multigrid needs 2 to {MAX_GRIDS} grid families, got {d}")


def fold_offset(g: float) -> float:
    """g mod 1 in [0, 1): the second mod folds the 1.0 a tiny negative g rounds to."""
    return float(g) % 1.0 % 1.0


def default_crossing_cap() -> int:
    """The crossing cap from $CORONAGRID_MAX_CROSSINGS, 2,000,000 when unset.

    Raises ValidationError unless the value is an integer >= 0.
    """
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return 2_000_000
    message = f"${CAP_ENV} must be an integer >= 0, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(message) from None
    if cap < 0:
        raise ValidationError(message)
    return cap


class LineId(NamedTuple):
    """One line of the multigrid: grid family index and integer level k."""

    grid: int
    k: int


Key = tuple[int, int, int, int]   # crossing identity (i, ki, j, kj), i < j


@dataclass(frozen=True)
class MultigridSpec:
    """Immutable multigrid instance: d unit normals and offsets in [0, 1).

    Offsets are normalized mod 1 on construction (the line family is
    unchanged by integer shifts of its offset).
    """

    normals: tuple[complex, ...]
    offsets: tuple[float, ...]
    # dot(i, j) and cross(i, j), indexed [i][j]: line_steps and _levels_on_segment read both
    _dots: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _crosses: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    # per grid i: (normal_i.real, normal_i.imag, offset_i), the terms of level(i, z)
    _levels: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False)
    # The kernel tables of frontier_neighbor_keys, built by _kernel_tables on
    # its first call (a spec that grows no layer never holds them):
    # per grid i: (normal_l.real, normal_l.imag, offset_l, cross(i, l) > 0,
    # |cross(i, l)|, l) for every other grid l, in grid order
    _rows: tuple[tuple[tuple[float, float, float, bool, float, int], ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    # per grid j, indexed by grid l: (cross(j, l) > 0, |cross(j, l)|)
    _signs: tuple[tuple[tuple[bool, float], ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    # per pair (i, j), i < j: (cross(i, j), _levels[i], _levels[j], the hand-off
    # bound, the change of kj along +t on line a, 1 / |cross(i, j)|); the
    # kernel decides a crossing itself only while |offset_i + ki| +
    # |offset_j + kj| + 1 <= the bound, |cross(i, j)| times the smaller of
    # the two grids' rounding limits (see _kernel_tables)
    _pairs: dict[tuple[int, int], tuple] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        normals = tuple(complex(z) for z in self.normals)
        offsets = tuple(map(fold_offset, self.offsets))
        if len(normals) != len(offsets):
            raise ValidationError("need exactly one offset per normal")
        check_grid_count(len(normals))
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
        object.__setattr__(self, "_levels", tuple((z.real, z.imag, g)
                                                  for z, g in zip(normals, offsets)))

    def _kernel_tables(self):
        """(_rows, _signs, _pairs), built on the first call: d(d - 1), d * d and
        d(d - 1) / 2 entries."""
        if self._pairs is None:
            d, levels, crosses = self.d, self._levels, self._crosses
            signs = tuple(tuple((s > 0, abs(s)) for s in row) for row in crosses)
            rows = tuple(tuple((*levels[l], *signs[i][l], l) for l in range(d) if l != i)
                         for i in range(d))
            # per grid: the largest (|offset_i + ki| + |offset_j + kj| + 1) /
            # |cross(i, j)| at which the rounding of a level stays below _SNAP
            # and, over the grid's smallest cross, below EPS_SINGULAR / 4
            limits = [min(_SNAP, min(a for _, _, _, _, a, _ in row) * EPS_SINGULAR / 4)
                      / _ROUNDING for row in rows]
            pairs = {}
            for i in range(d):
                for j in range(i + 1, d):
                    det = crosses[i][j]
                    pairs[i, j] = (det, levels[i], levels[j], abs(det) * min(limits[i], limits[j]),
                                   1 if det > 0 else -1, 1.0 / abs(det))
            object.__setattr__(self, "_rows", rows)
            object.__setattr__(self, "_signs", signs)
            object.__setattr__(self, "_pairs", pairs)
        return self._rows, self._signs, self._pairs

    @classmethod
    def dfold(cls, d: int, offsets: float | Sequence[float] = 0.5) -> "MultigridSpec":
        """Symmetric d-fold multigrid with normals exp(2*pi*1j*k/d).

        Only odd d gives pairwise non-parallel normals; even d raises
        ValidationError (use from_angles for e.g. a 0/45/90/135 grid).
        """
        check_grid_count(d)
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

    def cross(self, i: int, j: int) -> float:
        """perp(normal_i) . normal_j; nonzero for i != j by construction."""
        return self._crosses[i][j]

    def level(self, i: int, z: complex) -> float:
        """Grid-i level of z: z.normal_i - offset_i (an integer exactly on i-lines)."""
        re, im, offset = self._levels[i]
        return z.real * re + z.imag * im - offset

    def line_point(self, line: LineId, t: float) -> complex:
        """Point at parameter t on the line; t = 0 is its foot (offset+k)*normal."""
        normal = self.normals[line.grid]
        return (self.offsets[line.grid] + line.k) * normal + t * perp(normal)

    def line_parameter(self, line: LineId, z: complex) -> float:
        """Parameter of z along the line's direction (z assumed on the line)."""
        return scalar_product(z, perp(self.normals[line.grid]))


@dataclass(frozen=True, slots=True)
class Crossing:
    """Intersection of two lines of distinct grids; a.grid < b.grid canonically.

    Identity (equality/hash) is the exact integer tuple (i, ki, j, kj); the
    cached Euclidean point takes no part in comparisons.
    """

    a: LineId
    b: LineId
    point: complex = field(compare=False)

    @property
    def key(self) -> Key:
        return (self.a.grid, self.a.k, self.b.grid, self.b.k)


def crossing_point(
    spec: MultigridSpec, a: tuple[int, int], b: tuple[int, int],
) -> complex:
    """The unique point on both lines (2x2 linear solve).  Each line is a
    LineId or a plain (grid, k) pair, such as the halves of a crossing key.

    Raises ParallelLines when both lines belong to the same grid family.
    """
    i, ki = a
    j, kj = b
    if i == j:
        raise ParallelLines(f"lines {a} and {b} are parallel (same grid)")
    levels = spec._levels
    return complex(*_point_xy(levels[i], ki, levels[j], kj, spec._crosses[i][j]))


def crossing_pairs(spec: MultigridSpec, keys: Iterable[Key]) -> Iterator[tuple[float, float]]:
    """Per crossing key, its point as an (x, y) pair, bit for bit the
    crossing_point of its two lines."""
    levels, crosses = spec._levels, spec._crosses
    for i, ki, j, kj in keys:
        yield _point_xy(levels[i], ki, levels[j], kj, crosses[i][j])


def _point_xy(
    line_a: tuple[float, float, float], ka: int,
    line_b: tuple[float, float, float], kb: int, det: float,
) -> tuple[float, float]:
    """The 2x2 solve for the lines ka and kb of two grids, each given as
    its _levels entry (normal x, normal y, offset), with det their cross."""
    ax, ay, ga = line_a
    bx, by, gb = line_b
    ra = ga + ka
    rb = gb + kb
    return (ra * by - rb * ay) / det, (ax * rb - bx * ra) / det


def make_crossing(spec: MultigridSpec, a: LineId, b: LineId) -> Crossing:
    """Canonical Crossing of two lines (orders the pair by grid index)."""
    if a.grid > b.grid:
        a, b = b, a
    return Crossing(a, b, crossing_point(spec, a, b))


def _levels_on_segment(
    spec: MultigridSpec, i: int, k: int, j: int, t0: float, t1: float,
    direction: int = 1,
) -> tuple[range, float, float]:
    """The levels m of the grid-j lines that cross line (i, k) where
    ``direction * parameter`` lies in the half-open (t0, t1], in increasing
    order of it, with ``base`` and ``s = direction * cross(i, j)``: level m
    crosses where ``direction * parameter == (m - base) / s``.

    Closed-form integer-level range; together with the snapped boundary
    convention this makes segment concatenation exactly additive.  Its
    first level is the one line_steps gives from the parameter t0 /
    direction in that direction.
    """
    s = direction * spec._crosses[i][j]
    base = (spec.offsets[i] + k) * spec._dots[i][j] - spec.offsets[j]
    u0 = base + t0 * s
    u1 = base + t1 * s
    if s > 0:
        ms = range(math.floor(u0 + _SNAP) + 1, math.floor(u1 + _SNAP) + 1)
    else:
        ms = range(math.ceil(u0 - _SNAP) - 1, math.ceil(u1 - _SNAP) - 1, -1)
    return ms, base, s


def count_crossings_with_grid(
    spec: MultigridSpec, line: LineId, z: complex, alpha: float, j: int,
) -> int:
    """Number of crossings of `line` with grid j on the half-open segment
    from z to z + alpha*perp(normal_i): the length of _levels_on_segment's
    range from z's parameter on the line.

    Closed form; always within 2 of alpha*|perp(normal_i) . normal_j|.
    """
    i = line.grid
    if j == i:
        raise SameGrid(f"grid {j} is the line's own family")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if abs(spec.level(i, z) - line.k) > 1e-6:
        raise ValueError(f"point {z} is not on line {line}")
    t = spec.line_parameter(line, z)
    return len(_levels_on_segment(spec, i, line.k, j, t, t + alpha)[0])


def line_steps(
    spec: MultigridSpec, i: int, k: int, t: float,
) -> tuple[tuple[int, int, float, float], tuple[int, int, float, float]]:
    """The nearest crossings of line (i, k) strictly beyond parameter t:
    ``(up, down)`` for directions +1 and -1, each ``(grid, level, parameter,
    gap)``, where gap is the distance to the runner-up candidate.

    O(d): per other grid l, one level value u (from the spec's cross(i, l),
    dot(i, l) and offset_l) gives the next integer level both ways in closed
    form, from one floor f = floor(u + _SNAP): f + 1 above, and below
    ceil(u - _SNAP) - 1, which equals f if u - _SNAP > f and f - 1
    otherwise, because float rounding is monotone.  Refuses nothing; callers
    refuse a gap below EPS_SINGULAR, where the order of the two candidates
    would be numerically meaningless.
    """
    floor = math.floor
    offsets, dots = spec.offsets, spec._dots[i]
    r = offsets[i] + k
    up_dt = up_second = down_dt = down_second = math.inf
    for l, s in enumerate(spec._crosses[i]):
        if l == i:
            continue
        base = r * dots[l] - offsets[l]
        u = base + t * s
        below = floor(u + _SNAP)
        above = below + 1
        if u - _SNAP <= below:
            below -= 1
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


def _coincide(line: LineId, t: float) -> SingularMultigrid:
    return SingularMultigrid(f"two crossings coincide on line {line} near parameter {t}")


def next_crossing_on_line(
    spec: MultigridSpec, line: LineId, t: float, direction: int,
) -> tuple[float, Crossing]:
    """First crossing of `line` strictly beyond parameter t in the given
    direction (+1/-1).  Returns (parameter, crossing).

    Raises SingularMultigrid when the two nearest candidates are closer than
    EPS_SINGULAR (their order would be numerically meaningless).
    """
    j, m, tm, gap = line_steps(spec, line.grid, line.k, t)[direction < 0]
    if gap < EPS_SINGULAR:
        raise _coincide(line, tm)
    return tm, make_crossing(spec, line, LineId(j, m))


def neighbor_keys(spec: MultigridSpec, key: Key) -> tuple[Key, Key, Key, Key]:
    """Keys of the 4 crossings adjacent to the crossing with this key: the
    next crossing along each of its lines, both ways (line a then line b,
    direction +1 then -1).  Builds no Crossing.

    A regular multigrid is infinite in every direction, so there are always
    exactly 4.  Each line's parameter comes from the key in closed form.
    Raises SingularMultigrid, for line a before line b and direction +1
    before -1, when the two nearest candidates in a direction are closer
    than EPS_SINGULAR.

    The per-crossing reference: frontier_neighbor_keys expands whole layers
    and hands this the crossings near a coincidence, and every refusal.
    """
    i, ki, j, kj = key
    offsets = spec.offsets
    ri, rj = offsets[i] + ki, offsets[j] + kj
    ta = (kj - (ri * spec._dots[i][j] - offsets[j])) / spec._crosses[i][j]
    tb = (ki - (rj * spec._dots[j][i] - offsets[i])) / spec._crosses[j][i]
    out = []
    for g, k, t in ((i, ki, ta), (j, kj, tb)):
        for l, m, tm, gap in line_steps(spec, g, k, t):
            if gap < EPS_SINGULAR:
                raise _coincide(LineId(g, k), tm)
            out.append((g, k, l, m) if g < l else (l, m, g, k))
    return tuple(out)


def frontier_neighbor_keys(spec: MultigridSpec, layer: Iterable[Key]) -> set[Key]:
    """The union of neighbor_keys over the crossings with these keys, in
    one pass: per crossing, one 2x2 solve for its point, one level u_l per
    other grid l, which gives the next l-lines both ways on line a (through
    cross(i, l)) and on line b (through cross(j, l)), and the partner grid's
    lines at 1/|cross(i, j)| in closed form.

    Everything that depends on the spec alone comes from its kernel tables
    (MultigridSpec._kernel_tables, built on the first call): per crossing,
    one _pairs entry holds the solve's constants and the hand-off bound, and
    per other grid l, grid i's _rows entry and grid j's _signs entry hold
    l's level terms and the signs and sizes of cross(i, l) and cross(j, l).
    A distance hi / |s| or lo / |s| is hi / s or lo / -s bit for bit, since
    negation is exact, so the sign branches take line_steps' expressions.

    These differ from line_steps' values by rounding only, so neighbor_keys
    itself decides a crossing, and makes any refusal, wherever rounding
    could change a floor or an order: some u_l within 2 * _SNAP of an
    integer, a runner-up gap below 2 * EPS_SINGULAR, or levels whose
    rounding bound reaches _SNAP or, over the nearest grid's cross,
    EPS_SINGULAR / 4 (far out, or on nearly parallel grids): the hand-off
    bound of the crossing's _pairs entry.  Crossings are taken in iteration
    order, so a refusal is the one a loop of neighbor_keys calls makes.
    """
    out: set[Key] = set()
    add = out.add
    rows, signs, pairs = spec._kernel_tables()
    floor = math.floor
    low, high, gap = 2 * _SNAP, 1.0 - 2 * _SNAP, 2 * EPS_SINGULAR
    for key in layer:
        i, ki, j, kj = key
        det, (ax, ay, ga), (bx, by, gb), bound, step, spacing = pairs[i, j]
        ra, rb = ga + ki, gb + kj
        if abs(ra) + abs(rb) + 1.0 <= bound:
            x = (ra * by - rb * ay) / det
            y = (ax * rb - bx * ra) / det
            signs_b = signs[j]
            # per line (a, b) and direction (up, dn): the distance, grid and
            # level of the nearest crossing, the partner grid's until beaten,
            # and the runner-up's distance
            a_up = a_dn = b_up = b_dn = spacing
            a_up2 = a_dn2 = b_up2 = b_dn2 = math.inf
            a_up_l, a_up_m, a_dn_l, a_dn_m = j, kj + step, j, kj - step
            b_up_l, b_up_m, b_dn_l, b_dn_m = i, ki - step, i, ki + step
            for nx, ny, g, rising, s, l in rows[i]:
                if l == j:
                    continue
                u = x * nx + y * ny - g
                f = floor(u)
                lo = u - f
                if lo < low or lo > high:
                    break
                hi = 1.0 - lo
                if rising:   # cross(i, l) > 0: level f + 1 lies up line a
                    up = hi / s
                    dn = lo / s
                    if up < a_up:
                        a_up2, a_up, a_up_l, a_up_m = a_up, up, l, f + 1
                    elif up < a_up2:
                        a_up2 = up
                    if dn < a_dn:
                        a_dn2, a_dn, a_dn_l, a_dn_m = a_dn, dn, l, f
                    elif dn < a_dn2:
                        a_dn2 = dn
                else:
                    up = lo / s
                    dn = hi / s
                    if up < a_up:
                        a_up2, a_up, a_up_l, a_up_m = a_up, up, l, f
                    elif up < a_up2:
                        a_up2 = up
                    if dn < a_dn:
                        a_dn2, a_dn, a_dn_l, a_dn_m = a_dn, dn, l, f + 1
                    elif dn < a_dn2:
                        a_dn2 = dn
                rising, s = signs_b[l]
                if rising:
                    up = hi / s
                    dn = lo / s
                    if up < b_up:
                        b_up2, b_up, b_up_l, b_up_m = b_up, up, l, f + 1
                    elif up < b_up2:
                        b_up2 = up
                    if dn < b_dn:
                        b_dn2, b_dn, b_dn_l, b_dn_m = b_dn, dn, l, f
                    elif dn < b_dn2:
                        b_dn2 = dn
                else:
                    up = lo / s
                    dn = hi / s
                    if up < b_up:
                        b_up2, b_up, b_up_l, b_up_m = b_up, up, l, f
                    elif up < b_up2:
                        b_up2 = up
                    if dn < b_dn:
                        b_dn2, b_dn, b_dn_l, b_dn_m = b_dn, dn, l, f + 1
                    elif dn < b_dn2:
                        b_dn2 = dn
            else:
                if (a_up2 - a_up >= gap and a_dn2 - a_dn >= gap
                        and b_up2 - b_up >= gap and b_dn2 - b_dn >= gap):
                    add((i, ki, a_up_l, a_up_m) if i < a_up_l else (a_up_l, a_up_m, i, ki))
                    add((i, ki, a_dn_l, a_dn_m) if i < a_dn_l else (a_dn_l, a_dn_m, i, ki))
                    add((j, kj, b_up_l, b_up_m) if j < b_up_l else (b_up_l, b_up_m, j, kj))
                    add((j, kj, b_dn_l, b_dn_m) if j < b_dn_l else (b_dn_l, b_dn_m, j, kj))
                    continue
        out.update(neighbor_keys(spec, key))
    return out


def line_crossings(
    spec: MultigridSpec, line: LineId, t: float, direction: int,
) -> Iterator[tuple[float, int, int]]:
    """The crossings of `line` strictly beyond parameter t in direction +-1,
    nearest first, as ``(parameter, grid, level)``: a lazy, endless walk
    that takes the steps, and raises the SingularMultigrid, of a loop of
    next_crossing_on_line calls from t; far out, where consecutive
    crossings round to one parameter, it refuses instead.

    Each other grid's levels come from _levels_on_segment's closed form and
    are merged on a heap of one entry per grid, so a step costs O(log d)
    instead of line_steps' O(d).  Raises ValueError at once unless
    direction is +1 or -1.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return _sorted_walk(spec, line, direction * t, direction)


def _sorted_walk(
    spec: MultigridSpec, line: LineId, p: float, direction: int,
) -> Iterator[tuple[float, int, int]]:
    """line_crossings on positions p = direction * parameter, which grow
    along the walk: a heap of ``(position, grid, level, base, s, level
    step)``, one entry per other grid, seeded with the first level beyond p
    that _levels_on_segment gives, and each popped entry replaced by its
    grid's next level.  Entries order as (position, grid, level).

    Each step is the one line_steps takes from the last position p: both
    compute a crossing's position as (m - base) / s, and two rules cover
    the rest.
    - A level within _SNAP of u(p) in level space is one line_steps takes
      as lying at p, so it is passed over, as the nearest crossing or as
      the runner-up.  u only grows along the walk, so it stays passed over.
    - The runner-up is looked for only within 2 * EPS_SINGULAR beyond the
      nearest crossing, where a refusal can happen: with d = 2 there is
      none, and a nearly parallel grid's next level may lie far away.  A
      refusal names the parameter line_steps gives.
    A grid's levels lie 1 / |cross(i, l)| apart, about 1 or more, so the
    heap holds every candidate for either rule.  Where a position's float
    spacing reaches that, a grid's next level can round to the same
    position, or a level not passed over to one at or before p: the walk
    refuses there, so the positions it yields strictly increase.
    """
    i, k = line
    heap = []
    for l in range(spec.d):
        if l != i:
            ms, base, s = _levels_on_segment(spec, i, k, l, p, p, direction)
            heap.append(((ms.start - base) / s, l, ms.start, base, s, ms.step))
    heapify(heap)
    reach = 2 * EPS_SINGULAR
    while True:
        q, l, m, base, s, step = heap[0]
        after = (m + step - base) / s
        heapreplace(heap, (after, l, m + step, base, s, step))
        u = base + p * s
        passed = (m <= u + _SNAP) if s > 0 else (m >= u - _SNAP)
        if after == q or (not passed and q <= p):
            raise SingularMultigrid(f"line {line} is too far out to walk past {direction * p}")
        if passed:
            continue
        if heap[0][0] <= q + reach:
            for q2, _, m2, base, s, _ in heap:
                u = base + p * s
                if (q2 <= q + reach and (q2 - p) - (q - p) < EPS_SINGULAR
                        and not ((m2 <= u + _SNAP) if s > 0 else (m2 >= u - _SNAP))):
                    # line_steps names the parameter of its nearest candidate; where
                    # two candidates tie in tm - t, that is the lower grid's, not q's
                    raise _coincide(line, line_steps(spec, i, k, direction * p)[direction < 0][2])
        p = q
        yield direction * q, l, m


def nth_crossing(
    spec: MultigridSpec, line: LineId, start: complex, direction: int, n: int,
) -> Crossing:
    """The n-th crossing (n >= 1) of `line` beyond the point `start` on it,
    in direction +-1, as line_crossings walks them.  Raises ValueError
    unless n >= 1 and direction is +1 or -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = line_crossings(spec, line, spec.line_parameter(line, start), direction)
    _, j, m = next(islice(steps, n - 1, None))
    return make_crossing(spec, line, LineId(j, m))


_WindowLine = tuple[LineId, list[tuple[int, range, float, float]]]


def _window_lines(spec: MultigridSpec, radius: float) -> list[_WindowLine]:
    """The window's crossings, line by line, before any is built: per line
    (i, k) meeting the disk |z| <= radius, ``(j, levels, base, s)`` for each
    other grid j, as _levels_on_segment gives them for the line's chord.

    Each crossing is listed on both of its lines; the window holds it when
    the line of its lower grid does.  Raises ValidationError for a
    negative or non-finite radius, and ResourceLimit when the disk's area
    times the crossing density, pi r^2 sum_{i<j} |cross(i, j)|, exceeds
    default_crossing_cap().
    """
    if not math.isfinite(radius):
        raise ValidationError(f"radius must be finite, got {radius}")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    cap = default_crossing_cap()
    d = spec.d
    density = sum(abs(spec._crosses[i][j]) for i in range(d) for j in range(i + 1, d))
    if radius > 0 and math.pi * radius * radius * density > cap:
        raise ResourceLimit(f"a window of radius {radius} would hold more than {cap} "
                            f"crossings (set ${CAP_ENV})")
    out: list[_WindowLine] = []
    for i in range(d):
        g = spec.offsets[i]
        for k in range(math.ceil(-radius - g), math.floor(radius - g) + 1):
            dist = g + k   # distance of the line from the origin, up to sign
            half = math.sqrt(max(radius * radius - dist * dist, 0.0))
            chord = [(j, *_levels_on_segment(spec, i, k, j, -half - _SNAP, half))
                     for j in range(d) if j != i]
            out.append((LineId(i, k), chord))
    return out


def _chord_keys(lines: list[_WindowLine]) -> list[Key]:
    """The keys of the window's crossings, each from the line of its lower
    grid, ascending: lines and chords come in grid order, levels ascending."""
    return [(i, k, j, m) for (i, k), chord in lines for j, ms, _, _ in chord if j > i
            for m in (ms if ms.step > 0 else ms[::-1])]


def window_keys(spec: MultigridSpec, radius: float) -> list[Key]:
    """The keys of all crossings with |point| <= radius, each exactly once,
    in ascending key order.

    Raises ResourceLimit, before listing any, when the disk would hold
    more than default_crossing_cap() (see _window_lines).
    """
    return _chord_keys(_window_lines(spec, radius))


def enumerate_crossings(spec: MultigridSpec, radius: float) -> list[Crossing]:
    """All crossings with |point| <= radius, each exactly once, in
    ascending key order, as window_keys lists them."""
    return [make_crossing(spec, LineId(i, ki), LineId(j, kj))
            for i, ki, j, kj in window_keys(spec, radius)]


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

    Per window line, the parameters of its crossings are sorted once, and
    adjacent ones closer than EPS_SINGULAR, the gap at which line_steps
    refuses to walk on, form a singular group: the line and the lines
    crossing it there.  A point is seen from each of its lines, and groups
    that share two lines are merged.  Only the window's crossings (those of
    enumerate_crossings) take part.  The report lists the points in the
    order of their sorted line tuples, each at the first crossing of its
    first group; crossing_count equals len(enumerate_crossings(spec,
    window_radius)) by construction.

    Raises ValidationError unless the radius is finite and > 0, and
    ResourceLimit as enumerate_crossings does.
    """
    if not window_radius > 0:
        raise ValidationError(f"window_radius must be > 0, got {window_radius}")
    lines = _window_lines(spec, window_radius)
    window: set[Key] | None = None   # built for the first line with a small gap
    count = 0
    clusters: list[tuple[complex, set[LineId]]] = []
    for line, chord in lines:
        i, k = line
        count += sum(len(ms) for j, ms, _, _ in chord if j > i)
        ts = [(m - base) / s for _, ms, base, s in chord for m in ms]
        ts.sort()
        if min(map(sub, islice(ts, 1, None), ts), default=math.inf) >= EPS_SINGULAR:
            continue
        # near the circle, a line's own chord can hold a crossing with a
        # lower grid that the window leaves out; the window set drops it
        if window is None:
            window = set(_chord_keys(lines))
        found = sorted(((m - base) / s, j, m) for j, ms, base, s in chord for m in ms
                       if ((i, k, j, m) if i < j else (j, m, i, k)) in window)
        run = found[:1]
        for prev, cur in zip(found, found[1:] + [(math.inf, 0, 0)]):
            if cur[0] - prev[0] < EPS_SINGULAR:
                run.append(cur)
                continue
            if len(run) > 1:
                group = {line, *(LineId(j, m) for _, j, m in run)}
                for _, merged in clusters:
                    if len(merged & group) >= 2:
                        merged.update(group)
                        break
                else:
                    _, j, m = run[0]
                    clusters.append((crossing_point(spec, line, (j, m)), group))
            run = [cur]
    singular = sorted((SingularPoint(p, tuple(sorted(group))) for p, group in clusters),
                      key=lambda sp: sp.lines)
    return RegularityReport(window_radius, count, tuple(singular))


def dominant_lines(spec: MultigridSpec, keys: Iterable[Key]) -> tuple[LineId, ...]:
    """Per grid direction, indexed by grid, the line through the crossings
    with these keys that lies closest to the origin (tie-break: smaller k).

    Raises GridNotRepresented if some grid has no line through the set; the
    caller should grow the patch first.
    """
    candidates: dict[int, set[int]] = {}
    for i, ki, j, kj in keys:
        candidates.setdefault(i, set()).add(ki)
        candidates.setdefault(j, set()).add(kj)
    missing = tuple(i for i in range(spec.d) if i not in candidates)
    if missing:
        raise GridNotRepresented(missing)
    chosen = []
    for i in range(spec.d):
        k = min(candidates[i], key=lambda k: (abs(spec.offsets[i] + k), k))
        chosen.append(LineId(i, k))
    return tuple(chosen)


def nearest_crossing(spec: MultigridSpec) -> Crossing:
    """The crossing nearest to the origin (used for canonical seed patches),
    the one with the smaller key among equally near ones.

    Per grid pair, the crossings form a 2-D lattice (see _pair_block); the
    answer is the least of all pairs' candidates by (abs(point), key), with
    points as crossing_point gives them.  A candidate whose line (i, ki) or
    (j, kj) lies farther from the origin than the nearest one seen is
    passed over unsolved: the crossing is on both lines.  Raises
    NotACrossing when the answer lies beyond 1e6.
    """
    levels, crosses, dots, offsets = spec._levels, spec._crosses, spec._dots, spec.offsets
    best: tuple = (math.inf,)   # (abs(point), key) of the nearest candidate so far
    reach = math.inf
    for i in range(spec.d):
        for j in range(i + 1, spec.d):
            det, g_i, g_j = crosses[i][j], offsets[i], offsets[j]
            for ki, kj in _pair_block(dots[i][j], g_i, g_j):
                if abs(g_i + ki) > reach or abs(g_j + kj) > reach:
                    continue
                rank = abs(complex(*_point_xy(levels[i], ki, levels[j], kj, det))), (i, ki, j, kj)
                if rank < best:
                    best = rank
                    # |point| >= |g_i + ki| / |normal_i|, normals are unit to
                    # EPS_GEOM, and the solve's error is below 1e-6 of |point|
                    # while |cross(i, j)| > EPS_GEOM
                    reach = best[0] * (1 + 1e-6)
    distance, (i, ki, j, kj) = best
    if distance > 1e6:
        raise NotACrossing("no crossing within 1e6 of the origin")
    return make_crossing(spec, LineId(i, ki), LineId(j, kj))


def _pair_block(c: float, g_i: float, g_j: float) -> list[tuple[int, int]]:
    """The levels (ki, kj) of 25 crossings of two grids i and j with
    c = dot(i, j) and offsets g_i, g_j, among them the one nearest to the
    origin.

    The crossing of (i, ki) and (j, kj) is A (g_i + ki, g_j + kj), for A
    the inverse of the matrix of the two normals, at squared distance
    Q(g_i + ki, g_j + kj) / cross(i, j)^2 with Q(p, q) = p^2 + q^2 - 2cpq:
    the squared length of p e + q f for unit vectors e, f with e.f = -c.
    So the lattice of integer (ki, kj) under Q has a closed-form
    Lagrange-Gauss reduced basis: (1, 0) and (0, 1) while |c| <= 1/2, else
    the shorter (1, sign(c)) and (1, 0).  The block is the 5 x 5 lattice
    points around (-g_i, -g_j), rounded in that basis; for a reduced
    basis the nearest lattice point lies within one step of the rounded
    one.  The basis is integer, so nearly parallel grids lose nothing to
    rounding here.
    """
    (u0, u1), (v0, v1) = ((1, 1 if c > 0 else -1), (1, 0)) if abs(c) > 0.5 else ((1, 0), (0, 1))
    unimodular = u0 * v1 - u1 * v0   # +-1
    a = round((g_j * v0 - g_i * v1) / unimodular)
    b = round((g_i * u1 - g_j * u0) / unimodular)
    return [(da * u0 + db * v0, da * u1 + db * v1)
            for da in range(a - 2, a + 3) for db in range(b - 2, b + 3)]


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
