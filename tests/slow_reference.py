"""The reference-dispatcher comparison of `test_reference`, more and larger.

Tier-1 collects only ``test_*.py``, so this module runs only when named:

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider tests/slow_reference.py

It draws 1000 runs of up to 16 micro clouds, 4 core clouds and 400
requests, and 1000 whole-millisecond runs of up to 16 micro clouds and 400
requests, where starts and finishes land on drop times.  Each must give the
schedule and drop count that `Reference` gives.  `Reference` re-sorts and
restarts its queue after every placement, so this takes many minutes.
"""

from hypothesis import given, settings

from test_reference import assert_matches_reference, reference_runs, whole_ms_runs

SLOW = settings(max_examples=1000, deadline=None, database=None, derandomize=True)


@SLOW
@given(run=reference_runs(max_micro_count=16, max_core_count=4, max_requests=400))
def test_engine_matches_reference_at_scale(run):
    assert_matches_reference(*run)


@SLOW
@given(run=whole_ms_runs(max_micro_count=16, max_requests=400))
def test_engine_matches_reference_on_exact_drop_times_at_scale(run):
    assert_matches_reference(*run)
