import pytest
from hypothesis import HealthCheck, settings

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
settings.load_profile("default")


@pytest.fixture
def no_module_building(monkeypatch):
    """Building a family summand or a verify module fails the test, so a
    size that slips past its bound fails at once instead of running away."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size bound was checked")

    monkeypatch.setattr(families, "interval", refuse)
    for name in ("random_module", "replicate", "cauchy_witness"):
        monkeypatch.setattr(pv, name, refuse)
