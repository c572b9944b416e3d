"""The acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.

Full budgets take a few minutes end to end; set HERMLAB_FAST_ACCEPTANCE=1 to
run the same checks at reduced replicate counts.
"""
import os
import time

import pytest

from hermlab import acceptance

FAST = bool(os.environ.get("HERMLAB_FAST_ACCEPTANCE"))

# per-criterion runtime budgets (seconds), from the stated requirements
BUDGETS = {1: 60, 2: 120, 3: 120, 4: 10, 5: 180, 6: 300, 7: 1, 8: 60, 9: 60, 10: 1}


@pytest.mark.parametrize(
    "num,name,fn", acceptance.CRITERIA, ids=[f"criterion_{n:02d}" for n, _, _ in acceptance.CRITERIA]
)
def test_acceptance_criterion(num, name, fn, capsys):
    t0 = time.perf_counter()
    ok, detail = fn(acceptance.MASTER_SEED, FAST)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    if not FAST:
        assert elapsed <= BUDGETS[num], f"criterion {num} exceeded its {BUDGETS[num]}s budget"


@pytest.mark.parametrize("given,expected", [(0, 0), (7, 7), (None, acceptance.MASTER_SEED)])
def test_run_all_uses_the_given_seed(given, expected, monkeypatch, capsys):
    seen = []

    def stub(seed, fast, threads=None):
        seen.append(seed)
        return True, "stub"

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub", stub)])
    assert acceptance.run_all(seed=given) is True
    assert seen == [expected]
