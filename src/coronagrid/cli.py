"""Command-line entry point.

Subcommands: gen (tiling window export + SVG), corona (growth run), charpoly
(characteristic polygons), converge (Hausdorff convergence table), endpoints
(endpoint diagnostic), sandpile (corona equivalence report), certify (the
full acceptance suite; nonzero exit on any failure).

Exit codes: 0 success, 1 certification failure, 2 parse/validation problems.
All artifacts are deterministic: identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from io import StringIO
from itertools import islice
from pathlib import Path

from . import analysis, certify, graph, io, sandpile
from .dual import tiling_window
from .errors import CoronagridError, ValidationError
from .multigrid import LineId, MultigridSpec, make_crossing, nearest_crossing


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="config file (see README grammar)")
    p.add_argument("--dfold", type=int, help="d-fold multigrid (odd d)")
    p.add_argument("--angles", type=str, help="normal angles in degrees, comma separated")
    p.add_argument("--offsets", type=str, default="0.5",
                   help="offsets, comma separated; a single value broadcasts")


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tile", type=str,
                   help="seed crossing as i,j,ki,kj (two grids and line indices)")
    p.add_argument("--ball", type=int, default=0,
                   help="grow the seed by this many corona steps first")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coronagrid", description=__doc__)
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
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValidationError(f"{flag} needs at least one number")
    return values


def _spec_from_args(args) -> MultigridSpec:
    chosen = [x for x in (args.config, args.dfold, args.angles) if x is not None]
    if len(chosen) != 1:
        raise ValidationError("give exactly one of --config, --dfold, --angles")
    if args.config is not None:
        try:
            text = args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"--config: {exc}") from None
        return io.parse_spec(text).spec
    offsets = _numbers(args.offsets, float, "--offsets")
    offsets_arg = offsets[0] if len(offsets) == 1 else io.normalized_offsets(offsets)
    if args.dfold is not None:
        return MultigridSpec.dfold(args.dfold, offsets_arg)
    return MultigridSpec.from_angles(_numbers(args.angles, float, "--angles"), offsets_arg)


def _seed_patch(spec: MultigridSpec, args) -> graph.Patch:
    if args.tile:
        tile = _numbers(args.tile, int, "--tile")
        if len(tile) != 4 or not all(0 <= g < spec.d for g in tile[:2]):
            raise ValidationError(
                f"--tile takes i,j,ki,kj with grids i, j in 0..{spec.d - 1}, got {args.tile!r}")
        i, j, ki, kj = tile
        seed = make_crossing(spec, LineId(i, ki), LineId(j, kj))
    else:
        seed = nearest_crossing(spec)
    layers = graph.bfs_layers([seed], partial(graph.neighbors, spec))
    return graph.Patch(frozenset().union(*islice(layers, max(args.ball, 0) + 1)))


def _ns(args) -> list[int]:
    ns = sorted(_numbers(args.n, int, "--n"))
    if ns[0] < 0:
        raise ValidationError(f"--n takes integers >= 0, got {args.n!r}")
    return ns


def _csv(write, data) -> str:
    buf = StringIO()
    write(data, buf)
    return buf.getvalue()


def run(argv: list[str]) -> int:
    """Run one command; every artifact is rendered before any file is written,
    so a command that fails (exit 2) leaves the output directory untouched."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        files, code = _dispatch(args)
    except CoronagridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, text in files.items():
        path = args.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(path)
    return code


def _dispatch(args) -> tuple[dict[str, str], int]:
    """The command's artifacts (file name -> text) and its exit code."""
    if args.command == "certify":
        results = certify.run_all()
        for r in results:
            print(r.line())
        return {}, 0 if all(r.passed for r in results) else 1

    spec = _spec_from_args(args)
    if args.command == "gen":
        window = tiling_window(spec, args.radius)
        return {"tiles.csv": _csv(io.write_tiles_csv, window),
                "tiling.svg": io.render_svg(io.tiling_scene(window))}, 0

    if args.command == "corona":
        patch = _seed_patch(spec, args)
        seq = graph.corona_sequence(spec, patch, _ns(args)[-1])
        overlay = analysis.tiling_char_polygon(spec)
        return {"frontiers.csv": _csv(io.write_frontiers_csv, seq),
                "corona.svg": io.render_svg(io.corona_scene(spec, seq, overlay))}, 0

    if args.command == "charpoly":
        chi = analysis.grid_char_polygon(spec)
        chi_dual = analysis.tiling_char_polygon(spec)
        return {"charpoly.csv": _csv(io.write_charpoly_csv, [chi, chi_dual]),
                "charpoly.svg": io.render_svg(io.charpoly_scene(chi, chi_dual))}, 0

    if args.command == "converge":
        patch = _seed_patch(spec, args)
        rows = analysis.convergence_table(spec, patch, _ns(args), args.side)
        return {"convergence.csv": _csv(io.write_convergence_csv, rows)}, 0

    if args.command == "endpoints":
        patch = _seed_patch(spec, args)
        rows = analysis.endpoints_diagnostic(spec, patch, _ns(args))
        return {"endpoints.csv": _csv(io.write_endpoints_csv, rows)}, 0

    if args.command == "sandpile":
        window = tiling_window(spec, args.radius)
        at = nearest_crossing(spec)
        final = sandpile.add_grain_and_topple(sandpile.max_stable(window), at,
                                              args.rounds)
        seq = graph.corona_sequence(spec, graph.Patch(frozenset([at])),
                                    args.rounds - 1)
        lines = [f"window radius {args.radius}: {len(window)} tiles",
                 f"grain at {at.key}, {args.rounds} synchronous rounds"]
        all_match = True
        for n in range(1, args.rounds + 1):
            toppled = final.toppled_by(n)
            corona = seq.corona(n - 1)
            match = toppled == corona
            all_match &= match
            lines.append(f"round {n:>3}: toppled {len(toppled):>6}  "
                         f"corona P_{n-1} {len(corona):>6}  "
                         f"{'match' if match else 'MISMATCH'}")
        lines.append("equivalence: " + ("exact" if all_match else "FAILED"))
        return {"sandpile_report.txt": "\n".join(lines) + "\n"}, 0 if all_match else 1

    raise ValidationError(f"unknown command {args.command}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
