"""Launch ``repro serve`` with the layer tracer installed.

    python3 perfbench/serve_child.py SUMMARY_JSON -- serve --model crude --port 0 ...

Everything after ``--`` is passed to ``repro``'s command line unchanged.
When the server exits (SIGTERM drains it), the per-layer summary and the Γ
fallback counters are written to ``SUMMARY_JSON`` and every span to the
same path with a ``.spans.jsonl`` suffix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layer_trace import Tracer, summarize  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path = Path(argv[0])
    from repro.cli import main as repro_main
    from repro.perturb.algorithm import perturb_tally

    tracer = Tracer().install()
    try:
        code = repro_main(argv[2:])
    finally:
        tracer.uninstall()
        tally = perturb_tally()
        tracer.write(summary_path.with_suffix(".spans.jsonl"))
        summary = summarize(tracer.spans)
        summary["perturbations"] = tally.perturbations
        summary["perturb_fallbacks"] = tally.fallbacks
        summary["skipped"] = tracer.skipped
        summary_path.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
