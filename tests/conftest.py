import pytest
from hypothesis import settings

from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source

import reference_symexec

settings.register_profile("suite", derandomize=True, max_examples=60,
                          deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def oracle_checks(monkeypatch):
    """Every simplification, feasibility answer and symbol elimination in
    a test is re-verified against the enumeration oracle."""
    reference_symexec.install_checks(monkeypatch)


@pytest.fixture(scope="session")
def traffic():
    return parse_or_raise(traffic_light_source())


FAULTY_TRAFFIC = traffic_light_source().replace(
    """  if phase in { Stop1Stop2, Go1Stop2 } and Passed(phase) then
    StopLight(1) := not StopLight(1)
    GoLight(1) := not GoLight(1)
    if phase = Stop1Stop2 then
      phase := Go1Stop2
    else
      phase := Stop2Stop1
    endif
  endif""",
    """  if phase in { Stop1Stop2, Go1Stop2 } and Passed(phase) then
    if phase = Stop1Stop2 then
      StopLight(1) := not StopLight(1)
      GoLight(1) := not GoLight(1)
      phase := Go1Stop2
    else
      phase := Go2Stop1
    endif
  endif""")


UNREAD_WRITE = traffic_light_source().replace(
    "monitored Passed",
    "controlled Served : Lane -> Bool init { _: false }\nmonitored Passed",
).replace(
    "    GoLight(1) := not GoLight(1)\n",
    "    GoLight(1) := not GoLight(1)\n    Served(1) := true\n")
"""Variant whose lane 1 also writes ``Served(1)``, a location that no
guard and no ``unsafe`` reads."""


@pytest.fixture(scope="session")
def faulty_traffic():
    """Variant that jumps Go1Stop2 -> Go2Stop1 without toggling the
    lane-1 lights, so both go-lights can end up on."""
    return parse_or_raise(FAULTY_TRAFFIC)
