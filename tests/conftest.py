"""Shared pytest wiring for the suite."""

import sys

import pytest

from kronstap import formats


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion after the run.

    The acceptance tests record their verdicts as they execute; pytest
    captures stdout per test, so the summary lines go through the
    terminal reporter to stay visible in a plain run.
    """
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(results, key=lambda item: item[0]):
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_temporary_artifacts(request):
    """Fail a test that leaves a temporary output file in its tmp_path.

    Every writer in kronstap.formats writes under a temporary name and
    renames the file into place, or removes it when the write fails; a
    leftover one means some path skipped that.
    """
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(path.relative_to(tmp_path))
                  for path in tmp_path.rglob(f"*{formats.TEMP_SUFFIX}"))
    if left:
        pytest.fail(f"temporary artifacts left behind: {left}")
