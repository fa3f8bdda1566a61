"""Build every problem of one workload's case set in a fresh interpreter.

    python perfbench/setup_probe.py WORKLOAD SEED

The benchmark times this whole process as its set-up time: interpreter
start, ``import anesopt`` and every problem of the case set built.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import anesopt  # noqa: E402,F401

import cases  # noqa: E402

if __name__ == "__main__":
    for case in cases.CASES[sys.argv[1]](int(sys.argv[2])):
        cases.build(case)
