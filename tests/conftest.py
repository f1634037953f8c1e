import signal

import pytest
from hypothesis import HealthCheck, Phase, settings

import persistd.verify as pv
from persistd import families

settings.register_profile(
    "default",
    settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ),
)
# For ``tests/mutants/run.py``: a failing property fails its test at once.
settings.register_profile(
    "mutants",
    settings.get_profile("default"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("default")

# The most wall-clock seconds one test body may run, so that a kernel that
# loops forever fails its test instead of hanging the run.  The limit is a
# SIGALRM timer, so it holds where the platform has one (not on Windows).
TEST_SECONDS = 120


def _out_of_time(signum, frame):
    pytest.fail(f"test ran longer than {TEST_SECONDS} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)``: from then on ``owner.name`` runs as before
    and appends its first argument to the list returned."""
    def record(owner, name):
        seen, real = [], getattr(owner, name)

        def recorded(*args, **kwargs):
            seen.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
        return seen

    return record


@pytest.fixture
def no_module_building(monkeypatch):
    """Building a family summand (the ends ``intervals._finite_ends``
    fills) or a verify module fails the test, so a size that slips past its
    bound fails at once instead of running away."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size bound was checked")

    monkeypatch.setattr(families, "_finite_ends", refuse)
    for name in ("random_module", "replicate", "cauchy_witness"):
        monkeypatch.setattr(pv, name, refuse)
