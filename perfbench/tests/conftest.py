import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
