"""The model checker's device mode branches a challenge site over every
value the site can take for the device's stable response: a bound
response, every safe fallback encoding, or the stall.  These tests hold
it against the reference checker, whose sites are enumerated term by
term, and through the CLI."""
import dataclasses
import re
import shutil

import pytest
from click.testing import CliRunner

from casmkit.cli import main
from casmkit.parser import parse_or_raise
from casmkit.protect import load_protected, protect
from casmkit.puf import make_device
from casmkit.verify import exhaustive_safety_check, replay_witness

import reference_checker
from rings import ring_source

CLONES = (7, 999, 1000)

# condx lines that leave states dangerous which the derived condx marks
# safe: a clone's fallbacks reach them, though not one fixed draw a site
TAMPERS = {
    "go2": "x = Go2Stop1",
    "stop2": "x = Stop2Stop1",
    "go1-go2": "GoLight(1) and x = Go2Stop1",
    "go1-stop2": "GoLight(1) and x = Stop2Stop1",
}


@pytest.fixture(scope="module")
def protected(traffic):
    """The traffic light, ring-3 and ring-4 protected on device 42."""
    out = {"traffic": protect(traffic, make_device(42, 16, 16))[0]}
    for n in (3, 4):
        out[f"ring{n}"] = protect(parse_or_raise(ring_source(n)),
                                  make_device(42, 16, 16))[0]
    return out


@pytest.fixture(scope="module")
def traffic_dir(protected, tmp_path_factory):
    directory = tmp_path_factory.mktemp("device-mode") / "traffic"
    protected["traffic"].save(str(directory))
    return directory


@pytest.fixture(scope="module")
def tampered(traffic_dir, tmp_path_factory):
    """Each tampered copy of the protected traffic light: its directory
    and the artifact loaded from it."""
    out = {}
    for name, condx in TAMPERS.items():
        directory = tmp_path_factory.mktemp("tampered") / name
        shutil.copytree(traffic_dir, directory)
        casm = directory / "protected.casm"
        text, count = re.subn(r"(?m)^condx .*$", f"condx {condx}",
                              casm.read_text())
        assert count == 1
        casm.write_text(text)
        out[name] = directory, load_protected(str(directory))
    return out


def device_report(protected, seed):
    return exhaustive_safety_check(protected,
                                   device=make_device(seed, 16, 16))


@pytest.mark.parametrize("seed", CLONES)
@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_condx_is_unsafe_on_clones(tampered, name, seed):
    protected = tampered[name][1]
    report = device_report(protected, seed)
    assert report.unsafe_reachable
    want = reference_checker.exhaustive_safety_check(
        protected, device=make_device(seed, 16, 16))
    assert report.to_json() == want.to_json()


@pytest.mark.parametrize("seed", [*CLONES, "adversarial"])
@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_witness_replays(tampered, name, seed):
    # on a clone, and under the adversarial model: each witness replays
    # through the same sites, and not once its last control value is one
    # no site gives
    protected = tampered[name][1]
    model = dict(adversarial_puf=True) if seed == "adversarial" else \
        dict(device=make_device(seed, 16, 16))
    witness = exhaustive_safety_check(protected, **model).witness
    assert replay_witness(protected, witness, **model) is True
    last = witness[-1]
    moved = dataclasses.replace(
        last, state={**last.state, protected.program.ctl_loc: -1})
    assert replay_witness(protected, witness[:-1] + [moved],
                          **model) is False


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_verify_on_a_clone_exits_1(tampered, name):
    result = CliRunner().invoke(
        main, ["verify", str(tampered[name][0]), "--device-seed", "999",
               "--exhaustive"], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.endswith(": UNSAFE REACHABLE\n")


@pytest.mark.parametrize("source, seed, states, transitions", [
    ("traffic", 42, 5, 80),
    *(("traffic", seed, 9, 280) for seed in CLONES),
    ("ring3", 42, 7, 448),
    *(("ring3", seed, 13, 2016) for seed in CLONES),
    ("ring4", 42, 9, 2304),
    *(("ring4", seed, 17, 12672) for seed in CLONES),
])
def test_device_mode_counts(protected, source, seed, states, transitions):
    # every state a site can lead to: the clones reach the states of the
    # adversarial model (9, 13 and 17), the enrolled device only the
    # plain program's control states and the initial token
    report = device_report(protected[source], seed)
    assert (report.explored_states, report.transition_count,
            report.unsafe_reachable) == (states, transitions, False)


def test_cli_device_report(traffic_dir):
    result = CliRunner().invoke(
        main, ["verify", str(traffic_dir), "--device-seed", "999"],
        catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.output == "explored 9 states, 280 transitions: safe\n"
