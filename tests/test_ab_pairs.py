"""The summary arithmetic of experiments/ab_pairs.py; no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "experiments" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [100.0, 110.0, 90.0, 105.0, 95.0]


def test_summary_of_a_clear_gain():
    s = ab_pairs.summarize(PARENT, [120.0, 108.0, 115.0, 130.0, 125.0])
    # exclusive quartiles of five sorted figures sit at positions 1.5 and 4.5
    assert s["parent"] == {"median": 100.0, "q1": 92.5, "q3": 107.5}
    assert s["change"] == {"median": 120.0, "q1": 111.5, "q3": 127.5}
    assert (s["wins"], s["pairs"], s["ratio"]) == (4, 5, 1.2)
    assert s["clears_spread"]  # a gap of 20 against a quartile distance of 15


def test_a_gain_within_the_spread_does_not_clear_it():
    s = ab_pairs.summarize(PARENT, [v + 1.0 for v in PARENT])
    assert (s["wins"], s["ratio"]) == (5, 1.01)
    assert not s["clears_spread"]


@pytest.mark.parametrize("parent,change", [([1.0, 2.0], [1.0]), ([1.0], [2.0])],
                         ids=["unequal", "one-pair"])
def test_summary_needs_two_equal_lists(parent, change):
    with pytest.raises(ValueError):
        ab_pairs.summarize(parent, change)


@pytest.mark.parametrize("spec,seeds", [("401-403", [401, 402, 403]), ("5,7", [5, 7]),
                                        ("9", [9])])
def test_seed_lists(spec, seeds):
    assert ab_pairs.parse_seeds(spec) == seeds
