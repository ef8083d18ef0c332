"""Tests of the benchmark's own parts: the ring-N generator, and the
agreement of BENCHMARK.json with the metrics the benchmark reports."""
import json
import os

import pytest

from casmkit.ast import validate_program
from casmkit.parser import parse_or_raise, pretty_print
from casmkit.programs import traffic_light_source
from casmkit.protect import compute_transition_set, protect
from casmkit.puf import make_device
from casmkit.verify import exhaustive_safety_check, replay_witness

from rings import ring_source

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("faulty", [False, True])
def test_ring_parses_validates_and_has_2n_transitions(n, faulty):
    program = parse_or_raise(ring_source(n, faulty))
    assert validate_program(program) == []
    assert len(program.ctl_values()) == 2 * n
    assert len(compute_transition_set(program).pairs) == 2 * n


def test_ring2_is_the_traffic_light_renamed():
    renames = {"traffic_light": "ring2", "Stop1Stop2": "S1",
               "Go1Stop2": "G1", "Stop2Stop1": "S2", "Go2Stop1": "G2"}
    source = traffic_light_source()
    for old, new in renames.items():
        source = source.replace(old, new)
    assert pretty_print(parse_or_raise(ring_source(2))) \
        == pretty_print(parse_or_raise(source))


@pytest.mark.parametrize("n", [2, 3])
def test_protected_ring_is_safe_with_4n_plus_1_states(n):
    protected, _ = protect(parse_or_raise(ring_source(n)),
                           make_device(7, 16, 16))
    report = exhaustive_safety_check(protected, adversarial_puf=True)
    assert report.unsafe_reachable is False
    assert report.explored_states == 4 * n + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_faulty_ring_caught_with_three_step_witness(n):
    faulty = parse_or_raise(ring_source(n, faulty=True))
    report = exhaustive_safety_check(faulty)
    assert report.unsafe_reachable is True
    assert len(report.witness) == 3
    assert replay_witness(faulty, report.witness)
    assert exhaustive_safety_check(
        parse_or_raise(ring_source(n))).unsafe_reachable is False


def test_ring_needs_two_lanes():
    with pytest.raises(ValueError):
        ring_source(1)


def test_benchmark_json_lists_the_reported_metrics():
    import layers
    import run
    import workloads
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
