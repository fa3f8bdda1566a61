"""Regenerate the default-seed data kept with the benchmark.

    python3 perfbench/freeze.py

Writes ``data/frozen_seed0.json``, the strategy t_f of every default-seed
population and induction case, and ``data/replay_seed0/<case>.json``, the
schedules the replay workload replays. Rewriting them changes the benchmark.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from anesopt import strategies  # noqa: E402

import cases  # noqa: E402


def main() -> None:
    data = HERE / "data"
    replay = data / "replay_seed0"
    replay.mkdir(parents=True, exist_ok=True)
    seed = cases.DEFAULT_SEED
    frozen = {"population": {}, "induction": {}}
    replayed = {c.id for c in cases.replay_cases(seed)}
    for group, case_set in (("population", cases.population_cases(seed)),
                            ("induction", cases.induction_cases(seed))):
        for c in case_set:
            sched = strategies.solve_time_optimal(cases.build(c)).schedule
            frozen[group][c.id] = sched.t_f
            if group == "population" and c.id in replayed:
                (replay / f"{c.id}.json").write_text(
                    json.dumps(sched.as_dict(), indent=1) + "\n")
    (data / "frozen_seed0.json").write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()
