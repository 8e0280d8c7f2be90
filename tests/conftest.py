"""Shared pytest plumbing.

Tests marked ``acceptance(num, title)`` are the release gate; their
outcomes are replayed as one line per criterion at the end of the run so
the gate is readable without scrolling the full test log. The hypothesis
profile ``ci`` is loaded when the ``CI`` environment variable is set.
"""

import os

import pytest
from hypothesis import settings

# GitHub Actions sets CI: every CI run then draws the same examples, and a
# failure there reproduces with CI=1
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): release-gate criterion, reported in the "
        "terminal summary")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call":
        _RESULTS[num] = (title, report.passed)
    elif report.failed:  # setup/teardown error counts as a failure
        _RESULTS[num] = (title, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, passed = _RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {title}")
