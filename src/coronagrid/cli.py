"""Command-line entry point.

Subcommands: gen (tiling window export + SVG), corona (growth run), charpoly
(characteristic polygons), converge (Hausdorff convergence table), endpoints
(endpoint diagnostic), sandpile (corona equivalence report), certify (the
full acceptance suite; nonzero exit on any failure).

Exit codes: 0 success, 1 certification failure, 2 parse/validation problems
and outputs that cannot be written.
All artifacts are deterministic: identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from io import StringIO
from pathlib import Path

from . import analysis, certify, graph, io, sandpile
from .dual import tiling_window
from .errors import CoronagridError, ParseError, ValidationError
from .multigrid import LineId, MultigridSpec, make_crossing, nearest_crossing


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="config file (see README grammar)")
    p.add_argument("--dfold", type=int, help="d-fold multigrid (odd d)")
    p.add_argument("--angles", type=str, help="normal angles in degrees, comma separated")
    p.add_argument("--offsets", type=str,
                   help="offsets, comma separated; a single value broadcasts (default 0.5)")


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tile", type=str,
                   help="seed crossing as i,j,ki,kj (two grids and line indices)")
    p.add_argument("--ball", type=int, default=0,
                   help="grow the seed by this many corona steps first")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ValidationErrors, so a bad
    argument exits 2 with one `error:` line, like every other refusal."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="coronagrid", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a tiling window, export CSV + SVG")
    _add_spec_args(p)
    p.add_argument("--radius", type=float, default=12.0)
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("corona", help="run corona growth, export SVG + frontier CSV")
    _add_spec_args(p)
    _add_seed_args(p)
    p.add_argument("--n", type=str, default="40", help="number of corona steps")
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("charpoly", help="characteristic polygons, CSV + overlay SVG")
    _add_spec_args(p)
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("converge", help="Hausdorff convergence table (CSV)")
    _add_spec_args(p)
    _add_seed_args(p)
    p.add_argument("--n", type=str, default="10,20,40,80", help="corona indices")
    p.add_argument("--side", choices=["multigrid", "tiling"], default="tiling")
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("endpoints", help="endpoint limit-shape diagnostic (CSV)")
    _add_spec_args(p)
    _add_seed_args(p)
    p.add_argument("--n", type=str, default="10,20,40,80")
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("sandpile", help="sandpile vs corona equivalence report")
    _add_spec_args(p)
    p.add_argument("--radius", type=float, default=14.0)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", type=Path, default=Path("."))

    sub.add_parser("certify", help="run the full acceptance suite")
    return ap


def _numbers(text: str, kind: type, flag: str) -> list:
    """The comma-separated numbers given to one flag."""
    try:
        values = io.read_numbers(text, kind=kind)
    except ParseError as exc:
        raise ValidationError(f"{flag}: {exc}") from None
    if not values:
        raise ValidationError(f"{flag} needs at least one number")
    return values


def _spec_from_args(args) -> MultigridSpec:
    if args.config is None:
        angles = None if args.angles is None else _numbers(args.angles, float, "--angles")
        if args.offsets is None:
            return io.build_spec(args.dfold, angles)
        offsets = [(g, 1) for g in _numbers(args.offsets, float, "--offsets")]
        return io.build_spec(args.dfold, angles, offsets=offsets)
    if (args.dfold, args.angles, args.offsets) != (None, None, None):
        raise ValidationError("give --config alone, without --dfold, --angles or --offsets")
    try:
        text = args.config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"--config: {exc}") from None
    return io.parse_spec(text)


def _seed_patch(spec: MultigridSpec, args) -> graph.Patch:
    if args.ball < 0:
        raise ValidationError(f"--ball takes an integer >= 0, got {args.ball}")
    if args.tile is not None:
        tile = _numbers(args.tile, int, "--tile")
        if len(tile) != 4 or not all(0 <= g < spec.d for g in tile[:2]):
            raise ValidationError(
                f"--tile takes i,j,ki,kj with grids i, j in 0..{spec.d - 1}, got {args.tile!r}")
        i, j, ki, kj = tile
        if max(abs(ki), abs(kj)) >= 2**63:
            raise ValidationError("--tile line indices ki, kj must lie in (-2^63, 2^63)")
        seed = make_crossing(spec, LineId(i, ki), LineId(j, kj))
    else:
        seed = nearest_crossing(spec)
    ball = graph.corona_layers(spec, graph.Patch(frozenset([seed])), args.ball)
    return graph.Patch(frozenset(make_crossing(spec, LineId(i, ki), LineId(j, kj))
                                 for layer in ball for i, ki, j, kj in layer))


def _ns(args) -> list[int]:
    ns = sorted(_numbers(args.n, int, "--n"))
    least = 1 if args.command == "converge" else 0   # a convergence row divides by n
    if ns[0] < least:
        raise ValidationError(f"--n takes integers >= {least}, got {args.n!r}")
    return ns


def _csv(write, data) -> str:
    buf = StringIO()
    write(data, buf)
    return buf.getvalue()


def run(argv: list[str]) -> int:
    """Run one command; every artifact is rendered before any file is written,
    so a parse or validation error (exit 2) leaves the output directory
    untouched.  A write error also exits 2, with one error line, and leaves
    no artifact written (see _write_all)."""
    try:
        args = build_parser().parse_args(argv)
        files, code = _dispatch(args)
    except SystemExit:   # --help printed the usage
        return 0
    except CoronagridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not files:   # certify writes nothing and has no --out
        return code
    try:
        for path in _write_all(args.out, files):
            print(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _write_all(out: Path, files: dict[str, str]) -> list[Path]:
    """Write the artifacts into `out`, all or none, and return their paths.

    A target taken by a directory is refused before anything is written.
    Each artifact is written under a temporary name beside its target, and
    the temporaries are renamed into place only once every write has
    succeeded; on an error they are removed.  A failure during the renames
    themselves leaves the artifacts renamed before it in place.
    """
    paths = [out / name for name in files]
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "an artifact's name is taken by a directory",
                                    str(path))
    temps: list[Path] = []
    try:
        for path, text in zip(paths, files.values()):
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            fp = temp.open("x")
            temps.append(temp)
            with fp:
                fp.write(text)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return paths


def _dispatch(args) -> tuple[dict[str, str], int]:
    """The command's artifacts (file name -> text) and its exit code."""
    if args.command == "certify":
        results = certify.run_all()
        for r in results:
            print(r.line())
        return {}, 0 if all(r.passed for r in results) else 1

    spec = _spec_from_args(args)
    if args.command in ("corona", "converge", "endpoints"):
        ns = _ns(args)   # read first, so a bad --n is refused before the --ball growth
        patch = _seed_patch(spec, args)

    if args.command == "gen":
        window = tiling_window(spec, args.radius)
        return {"tiles.csv": _csv(io.write_tiles_csv, window),
                "tiling.svg": io.render_svg(io.tiling_scene(window))}, 0

    if args.command == "corona":
        seq = graph.corona_sequence(spec, patch, ns[-1])
        overlay = analysis.tiling_char_polygon(spec)
        return {"frontiers.csv": _csv(io.write_frontiers_csv, seq),
                "corona.svg": io.render_svg(io.corona_scene(spec, seq, overlay))}, 0

    if args.command == "charpoly":
        chi = analysis.grid_char_polygon(spec)
        chi_dual = analysis.tiling_char_polygon(spec)
        return {"charpoly.csv": _csv(io.write_charpoly_csv, [chi, chi_dual]),
                "charpoly.svg": io.render_svg(io.charpoly_scene(chi, chi_dual))}, 0

    if args.command == "converge":
        rows = analysis.convergence_table(spec, patch, ns, args.side)
        return {"convergence.csv": _csv(io.write_convergence_csv, rows)}, 0

    if args.command == "endpoints":
        rows = analysis.endpoints_diagnostic(spec, patch, ns)
        return {"endpoints.csv": _csv(io.write_endpoints_csv, rows)}, 0

    if args.command == "sandpile":
        if args.rounds < 1:
            raise ValidationError(f"--rounds takes an integer >= 1, got {args.rounds}")
        window = tiling_window(spec, args.radius)
        at = nearest_crossing(spec)
        final = sandpile.add_grain_and_topple(sandpile.max_stable(window), at,
                                              args.rounds)
        seq = graph.corona_sequence(spec, graph.Patch(frozenset([at])),
                                    args.rounds - 1)
        lines = [f"window radius {args.radius}: {len(window)} tiles",
                 f"grain at {at.key}, {args.rounds} synchronous rounds"]
        all_match = True
        for n, toppled, corona, match in sandpile.corona_comparison(final, seq, args.rounds):
            all_match &= match
            lines.append(f"round {n:>3}: toppled {toppled:>6}  "
                         f"corona P_{n-1} {corona:>6}  "
                         f"{'match' if match else 'MISMATCH'}")
        lines.append("equivalence: " + ("exact" if all_match else "FAILED"))
        return {"sandpile_report.txt": "\n".join(lines) + "\n"}, 0 if all_match else 1

    raise ValidationError(f"unknown command {args.command}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
