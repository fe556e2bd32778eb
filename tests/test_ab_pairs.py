"""The summary arithmetic and report of experiments/ab_pairs.py; no benchmark
runs here."""

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


def test_spread_of_setup_times():
    assert ab_pairs.spread([0.30, 0.25, 0.42, 0.28, 0.35]) == \
        {"median": 0.30, "q1": 0.265, "q3": 0.385}


def test_report_gives_each_sides_setup_spread(monkeypatch, capsys, tmp_path):
    setup = {("parent", 1): 0.25, ("parent", 2): 0.30, ("parent", 3): 0.27,
             ("change", 1): 0.40, ("change", 2): 0.20, ("change", 3): 0.31}

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        return {"items_per_s": 100.0 + seed, "setup_s": setup[side, seed],
                "peak_rss_mb": 60.0, "wall_s": 20.0, "cpu_s": 20.0}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "link-mc", "--seeds", "1-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # exclusive quartiles of three sorted figures sit at positions 1 and 3
    assert "parent: setup_s median 0.2700 quartiles 0.2500 0.3000" in lines
    assert "change: setup_s median 0.3100 quartiles 0.2000 0.4000" in lines
