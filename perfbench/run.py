"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload corpus-analytical --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the per-layer metrics with the layer tracer
installed (see ``layer_trace.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report (stamps, every
metric, the cost-model table) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("corpus-analytical", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(args) -> dict:
    import corpus
    import serve

    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        return serve.run(args.seed, args.seconds, trace, OUT_DIR)
    return corpus.run(args.seed, args.seconds, trace, OUT_DIR)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        repro = None
        reason = str(error)
    else:
        reason = f"found it at {repro.__file__} instead"
    if repro is None or source not in Path(repro.__file__).resolve().parents:
        print(
            f"perfbench: cannot import the repro package from {source} "
            f"({reason}); run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    from metrics import END_TO_END, PER_LAYER

    result = run_workload(args)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"workload did not report {', '.join(missing)}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "ops": result["ops"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    print("stamp: " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    for line in result["lines"]:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<28} {result['metrics'][name]:>14.6g} {unit}")
    report = {
        "stamp": stamp,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
        "notes": result["lines"],
    }
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
