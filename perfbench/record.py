"""Record one result file: every workload, untraced and traced, seed 0.

    python3 perfbench/record.py NAME

Runs ``run.py`` with its defaults for each workload and writes
``perfbench/results/BENCH_<NAME>.json``, holding each run's metrics with
units and sample counts, its per-case times, its failures and its
provenance.
"""
import json
import subprocess
import sys
from pathlib import Path

from cases import CASES

HERE = Path(__file__).resolve().parent


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    name = sys.argv[1]
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    doc = {"name": name, "runs": []}
    for workload in CASES:
        for trace in (0, 1):
            part = out / f".{workload}-{trace}.json"
            subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", workload, "--trace", str(trace),
                            "--out", str(part)], check=True)
            run = json.loads(part.read_text())
            run.pop("spans", None)
            doc["runs"].append(run)
            part.unlink()
    (out / f"BENCH_{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
