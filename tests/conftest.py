"""Suite-wide plumbing: a stdlib watchdog for ``pytest.mark.timeout``.

A wedged barrier would otherwise hang the whole suite.  Tests (or
modules, via ``pytestmark``) marked ``timeout(seconds)`` get a
``signal.alarm`` that fails the test once the budget is spent, after
``faulthandler.dump_traceback_later`` has written every thread's stack
to stderr so the hang is diagnosable.  The budget covers setup, call
and teardown together.  When the ``pytest-timeout`` plugin is installed
it owns the mark and this watchdog stands aside.
"""

import faulthandler
import math
import signal
import sys

import pytest


def _watchdog_on(config) -> bool:
    return (hasattr(signal, "SIGALRM")
            and not config.pluginmanager.hasplugin("timeout"))


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer than this")


def _budget(item) -> int | None:
    marker = item.get_closest_marker("timeout")
    if marker is None:
        return None
    seconds = marker.kwargs.get("timeout",
                                marker.args[0] if marker.args else None)
    if seconds is None or seconds <= 0:
        return None
    return math.ceil(seconds)  # signal.alarm takes whole seconds


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    seconds = _budget(item) if _watchdog_on(item.config) else None
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test exceeded its {seconds} s timeout",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    faulthandler.dump_traceback_later(seconds, file=sys.__stderr__)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)
