"""One benchmark pass in a fresh process: ``worker.py WORKLOAD SEED TRACE OUT_DIR``.

Times the import of coronagrid from the checkout's ``src`` (part of set-up),
runs the pass and prints its result as one JSON line, with the process's
peak resident memory from ``ru_maxrss``.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, trace, out_dir = argv
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import coronagrid.cli  # the package as the command line loads it
    import_s = time.perf_counter() - start
    if Path(coronagrid.cli.__file__).resolve().parents[2] != ROOT:
        print(f"coronagrid loaded from {coronagrid.cli.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.run_pass(workload, int(seed), workloads.FULL[workload],
                                Path(out_dir), trace == "1")
    result["import_s"] = import_s
    result["setup_s"] += import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
