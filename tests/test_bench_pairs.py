"""`scripts/bench_pairs.py`'s verdict on hand-made paired runs; no benchmark is run."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OLD = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]  # median 1.09, quartiles 1.035 and 1.145


def test_a_change_that_wins_every_pair_by_more_than_the_old_spread_shows_a_gain():
    change, wins, bound_verdict, gain = bench_pairs.verdict(OLD, [o - 0.5 for o in OLD], True, 0.25)
    assert (wins, bound_verdict, gain) == (10, "within bound", True)
    assert change == pytest.approx(0.59 / 1.09 - 1.0)
    # The same runs read the other way round, for a metric where higher is better.
    assert bench_pairs.verdict([o - 0.5 for o in OLD], OLD, False, 0.25)[1:] == (10, "within bound", True)


@pytest.mark.parametrize("lost, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_in_ten_pairs(lost, gain):
    # The change is far ahead in the median, but loses its first `lost` pairs, each to one slow run of its own.
    new = [2.0] * lost + [o - 0.5 for o in OLD[lost:]]
    assert bench_pairs.verdict(OLD, new, True, 0.25)[1:] == (10 - lost, "within bound", gain)


@pytest.mark.parametrize("shift, gain", [(0.10, False), (0.12, True)])
def test_a_gain_needs_a_median_gap_wider_than_the_old_interquartile_distance(shift, gain):
    # OLD's quartiles are 1.035 and 1.145, 0.11 apart: every shift wins all ten pairs, but only a wider gap counts.
    assert bench_pairs.verdict(OLD, [round(o - shift, 6) for o in OLD], True, 0.25)[1:] == (10, "within bound", gain)


def test_the_bound_verdicts():
    assert bench_pairs.verdict(OLD, [o * 1.3 for o in OLD], True, 0.25)[2:] == ("WORSE than bound", False)
    assert bench_pairs.verdict(OLD, [o * 1.3 for o in OLD], False, 0.25)[2:] == ("within bound", True)
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]  # quartiles 1 and 3 about a median of 2
    assert bench_pairs.verdict(wide, [w * 1.1 for w in wide], True, 0.25)[2] == "unresolved, old spread wider than bound"
    # A change whose every run beats every run of OLD is resolved however wide OLD's spread, but its 1.1 gain in the
    # median is narrower than OLD's interquartile distance of 2, so it shows no gain.
    assert bench_pairs.verdict(wide, [0.9] * 10, True, 0.25)[1:] == (10, "within bound", False)
