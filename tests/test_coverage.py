"""Replay of the coverage corpus, tests/data/coverage.json.

scripts/coverage_corpus.py froze each route's answer on 200 cases: status
and t_f. The file is a ratchet. A route that answered a case still answers
it, with t_f to 1e-9 relative; a certified strategy answer stays certified
with its strategy, and an uncertified one may become certified. A recorded
failure keeps its error type, or becomes an answer whose t_f matches the
other route's frozen t_f to 1e-9. Never re-freeze the file to make this
pass.

Tier-1 replays every shooting answer (about 0.8 s for the 200) and the
strategy answers from rest, re-dosing, the slow bounds (under 1 ms each),
the ray and x4hi (about 0.2 s). A grid start's strategy solve walks all
eight patterns, about 24 ms, 2.6 s for the 108, so those replay under the
corpus marker: pytest -m corpus.
"""
import pytest

from conftest import CORPUS, coverage_corpus

OUTCOMES = {"strategy": coverage_corpus.strategy_outcome,
            "shooting": coverage_corpus.shooting_outcome}
GROUPS = {"population": 74, "grid": 108, "ray": 5, "x4hi": 1, "slow": 12}


def _slow(name, route):
    """The grid's strategy replays, which walk all eight patterns."""
    return route == "strategy" and name.startswith("grid/")


REPLAYS = [pytest.param(name, route, id=f"{name}-{route}",
                        marks=[pytest.mark.corpus] if _slow(name, route)
                        else [])
           for name in CORPUS for route in OUTCOMES]


def test_corpus_holds_the_scripts_cases():
    # a case is changed, added or dropped only by re-freezing the file,
    # which CHANGES.md must record
    inputs = {name: {k: case[k] for k in ("patient", "bis", "u_max", "x0")}
              for name, case in CORPUS.items()}
    assert inputs == coverage_corpus.cases()
    counts = {}
    for name in CORPUS:
        group = name.split("/")[0]
        counts[group] = counts.get(group, 0) + 1
    assert counts == GROUPS


@pytest.mark.parametrize("name, route", REPLAYS)
def test_route_keeps_its_corpus_answer(name, route):
    case = CORPUS[name]
    was = case[route]
    other = case["shooting" if route == "strategy" else "strategy"]
    now = OUTCOMES[route](coverage_corpus.problem(case))
    if "t_f" not in was:
        if "t_f" not in now:
            assert now["status"] == was["status"]
            return
        # a recorded failure now answered: the other route vouches for it
        assert "t_f" in other, f"{name}: no frozen answer to check against"
        assert now["t_f"] == pytest.approx(other["t_f"], rel=1e-9)
        return
    assert "t_f" in now, f"{name}: {route} now fails with {now['status']}"
    assert now["t_f"] == pytest.approx(was["t_f"], rel=1e-9)
    if was["status"] == "certified":
        assert (now["status"], now["strategy"]) == ("certified",
                                                    was["strategy"])
