"""experiments/link_overlap.py at 1 and 2 chunks: the inline draws it patches
into harness carry the bits and noise of the threaded run."""

import importlib.util
import threading
from pathlib import Path

from semlink import harness

SCRIPT = Path(__file__).resolve().parent.parent / "experiments" / "link_overlap.py"
_spec = importlib.util.spec_from_file_location("link_overlap", SCRIPT)
link_overlap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(link_overlap)


def test_inline_draws_equal_threaded_draws():
    helper = harness.drawn_ahead
    before = threading.active_count()
    runs = link_overlap.compare(6, (1, 2), rounds=2, seed=3)
    assert harness.drawn_ahead is helper
    assert threading.active_count() == before
    for n in (1, 2):
        stats = [r["stats"] for variant in link_overlap.VARIANTS for r in runs[variant, n]]
        assert stats[0].n_bits == n * (harness.CHUNK_ENTRIES // 6) * 6
        assert stats == [stats[0]] * 4, n
