"""Shared fixtures plus the acceptance-criteria summary lines."""

import re

import numpy as np
import pytest

# test modules import random_params from here
from rbmrad.verify import random_params  # noqa: F401

_CRITERION = re.compile(r"test_criterion_(\d+)")
_acceptance_outcomes = {}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if match:
        _acceptance_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_outcomes):
        word = "PASS" if _acceptance_outcomes[num] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {word}")
