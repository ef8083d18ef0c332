"""The model checker's work: each state costs one rule pass per
combination of the inputs its step reads.  The checker learns those
inputs from its enumeration runs, with no discovery pass; these tests
hold what it learns to the reference ``monitored_reads``."""
import math

import pytest

import casmkit.verify as cverify
from casmkit.interp import CompiledProgram, compiled
from casmkit.parser import parse_or_raise
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.verify import exhaustive_safety_check

from reference_symexec import monitored_reads
from rings import ring_source


@pytest.fixture(scope="module")
def subjects(traffic):
    # module scope: protected before the oracle cross-check is switched on
    out = {"traffic": (traffic, {})}
    for n in (2, 3, 4):
        out[f"ring{n}"] = (parse_or_raise(ring_source(n)), {})
        out[f"faulty-ring{n}"] = (parse_or_raise(ring_source(n, True)), {})
    for n in (2, 3):
        protected = protect(parse_or_raise(ring_source(n)),
                            make_device(42, 16, 16))[0]
        out[f"protected-ring{n}-adversarial"] = (
            protected, {"adversarial_puf": True})
        out[f"protected-ring{n}-device42"] = (
            protected, {"device": make_device(42, 16, 16)})
    return out


NAMES = ["traffic", "ring2", "ring3", "ring4", "faulty-ring2",
         "faulty-ring3", "faulty-ring4", "protected-ring2-adversarial",
         "protected-ring2-device42", "protected-ring3-adversarial",
         "protected-ring3-device42"]


@pytest.mark.parametrize("name", NAMES)
def test_one_rule_pass_per_read_input_combination(subjects, name):
    subject, kwargs = subjects[name]
    program = getattr(subject, "program", subject)
    cp = compiled(program)
    assert cp.choose_free

    passes = [0]
    fire = CompiledProgram.fire_rules

    def counting(self, values, monitored, pick):
        passes[0] += 1
        return fire(self, values, monitored, pick)

    # state key -> (values, the inputs of each enumeration from it)
    stepped: dict[object, tuple[dict, list[dict]]] = {}
    enumerate_step_outcomes = cverify.enumerate_step_outcomes

    def recording(cp, values, monitored, ctl_enum=None):
        entry = stepped.setdefault(cp.controlled_key(values), (values, []))
        entry[1].append(dict(monitored))
        return enumerate_step_outcomes(cp, values, monitored, ctl_enum)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CompiledProgram, "fire_rules", counting)
        mp.setattr(cverify, "enumerate_step_outcomes", recording)
        report = exhaustive_safety_check(subject, **kwargs)

    if not report.unsafe_reachable:
        assert len(stepped) == report.explored_states
    branched, domains, fixed = cp.input_split
    combinations = 0
    for values, inputs in stepped.values():
        read = monitored_reads(cp, values, fixed, domains)
        assert read is not None
        # the state branches on exactly the inputs its step reads ...
        varied = {l for l in branched if len({mon[l] for mon in inputs}) > 1}
        assert varied == read
        # ... and steps each of their combinations once
        size = math.prod(len(domains[l]) for l in read)
        assert len({tuple(mon[l] for l in branched) for mon in inputs}) \
            == len(inputs) == size
        combinations += size
    assert passes[0] == combinations
