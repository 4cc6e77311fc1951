import sys, os
sys.path.insert(0, os.path.dirname(__file__))

import pytest

# the slowest test's call takes a few seconds; a stream drained past
# what a test needs can take minutes and still pass, so a call over
# this budget fails
CALL_SECONDS = 60


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if (report.when == "call" and report.passed
            and report.duration > CALL_SECONDS):
        report.outcome = "failed"
        report.longrepr = (f"call took {report.duration:.1f} s, over the "
                           f"{CALL_SECONDS} s budget")
    return report
