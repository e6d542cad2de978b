"""Shared test plumbing: solved tables and the acceptance log.

Criterion tests record one PASS/FAIL line each through the ``report``
fixture; the terminal-summary hook replays them after the run, outside
pytest's output capture, so the verdicts always land in the log.
"""

import pytest

from doushouqi.tablebase import Partition, TablebaseStore, solve_pair

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def two_piece_store() -> TablebaseStore:
    """All 64 two-piece tables, solved once per test session."""
    return TablebaseStore.build_two_piece()


@pytest.fixture(scope="session")
def p_tl_pair(two_piece_store):
    """The 3-piece pair P_tl / TL_p: blocked placements and captures into
    2-piece subgames."""
    return solve_pair(Partition.from_name("P_tl"), subgames=two_piece_store)


@pytest.fixture
def report():
    def _report(number, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line, flush=True)
        assert ok, line
    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
