"""Benchmark of coronagrid, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py), each in a fresh
single-threaded Python process, until the next pass would end after S
seconds (at least three passes, or two traced/untraced pairs).  With
``--trace 0`` it reports the end-to-end metrics of untraced passes as
medians; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones plus the tracing overhead.

Every pass's outputs are checked (see workloads.py) and every pass of a run
must give the same artifact digests and operation counts; ``correct`` is
false otherwise.  ``attempted`` and ``failed`` count the operations of one
pass.  A full record (environment, metrics, digests, failures with their
spec text, spans) goes to ``.bench_out/`` in the checkout; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("pentagrid-converge", "window-sandpile", "mixed-grids")
MIN_PASSES = 3
MIN_PAIRS = 2
RUN_LIMIT_S = 150.0      # stop starting passes here; a run must end within 180 s
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "crossings_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_kept", "_per_crossing", "_per_toppling")):
        return "ratio"
    return "count"


def run_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    out_dir = OUT / f"pass-{os.getpid()}-{index}"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), "1" if traced else "0",
             str(out_dir)],
            capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["process_s"] = time.perf_counter() - start
    return result


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Untraced passes, or alternating untraced/traced pairs, for `seconds`."""
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        if traced:
            order = (False, True) if len(passes) % 4 == 0 else (True, False)
            passes += [run_pass(workload, seed, t, len(passes) + k)
                       for k, t in enumerate(order)]
            step = max(a["process_s"] + b["process_s"] for a, b in zip(passes[::2], passes[1::2]))
            enough = len(passes) >= 2 * MIN_PAIRS
        else:
            passes.append(run_pass(workload, seed, False, len(passes)))
            step = max(p["process_s"] for p in passes)
            enough = len(passes) >= MIN_PASSES
        elapsed = time.perf_counter() - start
        if (enough and elapsed + step > seconds) or elapsed + step > RUN_LIMIT_S:
            return passes


def end_to_end(passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "wall_s": median(p["wall_s"] for p in passes),
        "crossings_per_s": median(p["work"] / p["wall_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["cli.import_s"] = median(p["import_s"] for p in traced)
    metrics["failed_ratio"] = passes[0]["failed"] / passes[0]["attempted"]
    metrics["trace.overhead_ratio"] = (median(p["wall_s"] for p in traced)
                                       / median(p["wall_s"] for p in plain) - 1.0)
    return metrics


def consistency_problems(passes: list[dict]) -> list[str]:
    """Output checks that failed, and passes that disagree with the first."""
    problems = [f"pass {i}: {f['op']}: {f['message']}"
                for i, p in enumerate(passes) for f in p["failures"]
                if f["kind"] == "CheckFailed"]
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        for key in ("digests", "work", "attempted", "failed"):
            if p[key] != first[key]:
                problems.append(f"pass {i} ({'traced' if p['traced'] else 'untraced'}) "
                                f"differs from pass 0 in {key}")
    return problems


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "git_sha": git_sha(), "seed": seed}


def distinct_failures(passes: list[dict]) -> list[dict]:
    seen: dict[tuple, dict] = {}
    for p in passes:
        for f in p["failures"]:
            key = (f["op"], f["kind"], f["message"], f["spec"])
            seen.setdefault(key, dict(f, passes=0))["passes"] += 1
    return list(seen.values())


def roadmap_figures(passes: list[dict]) -> dict:
    """The pentagrid figures the ROADMAP baseline quotes: growth cost per
    crossing and tiling-side analysis time from untraced passes, and the
    share of growth spent in next_crossing_on_line from traced ones."""
    plain = [p for p in passes if not p["traced"] and p["work"]]
    traced = [p for p in passes if p["traced"] and p["next_crossing_share_of_growth"]]
    out = {}
    if plain:
        out["growth_us_per_crossing"] = median(
            1e6 * p["op_seconds"]["grow"] / p["work"] for p in plain)
        out["converge_s"] = median(p["op_seconds"]["converge"] for p in plain)
    if traced:
        out["next_crossing_share_of_growth"] = median(
            p["next_crossing_share_of_growth"] for p in traced)
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coronagrid" / "__init__.py").is_file():
        print(f"error: no coronagrid package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(passes) if traced else end_to_end(passes)
    units = {name: layer_unit(name) if traced else END_TO_END_UNITS[name] for name in metrics}
    problems = consistency_problems(passes)
    # Every pass repeats the same operations on the same inputs, and
    # consistency_problems checks that they agree, so the run's counts are
    # those of one pass: they depend on the seed, not on how many passes fit.
    attempted = passes[0]["attempted"]
    failed = passes[0]["failed"]
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": metrics, "units": units,
        "attempted": attempted, "failed": failed, "problems": problems,
        "failures": distinct_failures(passes),
        "digests": passes[0]["digests"],
        "roadmap": roadmap_figures(passes) if args.workload == "pentagrid-converge" else {},
        "passes": passes,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    for name, digest in record["digests"].items():
        print(f"sha256 {name:<27} {digest}")
    for f in record["failures"]:
        print(f"failed {f['op']}: {f['kind']}: {f['message']}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, value in record["roadmap"].items():
        print(f"roadmap {name:<26} {value:.6g}")
    print(f"passes {len(passes)}, record {path}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
