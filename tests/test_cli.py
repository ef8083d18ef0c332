import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from casmkit.cli import main
from casmkit.programs import traffic_light_source


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    src = tmp_path / "traffic.casm"
    src.write_text(traffic_light_source())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


class TestParseCommand:
    def test_ok(self, workspace):
        result = invoke("parse", "traffic.casm")
        assert result.exit_code == 0
        assert "traffic_light" in result.output

    def test_garbage_is_a_usage_error(self, workspace):
        (workspace / "garbage.txt").write_text("this is not a program {{{")
        result = invoke("parse", "garbage.txt")
        assert result.exit_code == 2
        assert "error[E-" in result.output
        # diagnostics carry file:line:col
        assert "garbage.txt:1:" in result.output

    @pytest.mark.parametrize("bound", ["\u00b2", "9" * 5000],
                             ids=["superscript-two", "5000-digits"])
    def test_bad_number_is_a_one_line_usage_error(self, workspace, bound):
        (workspace / "bad.casm").write_text(f"asm p\nint N = 0..{bound}\n",
                                            encoding="utf-8")
        result = invoke("parse", "bad.casm")
        assert_one_line_usage_error(result, "bad.casm:2:12: error[E-SYNTAX]")

    def test_failing_initial_constraint_is_a_one_line_usage_error(
            self, workspace):
        from conftest import CONSTRAINED
        (workspace / "c.casm").write_text(CONSTRAINED.format(
            constraints="constraint phase = A\nconstraint phase = B\n"))
        result = invoke("parse", "c.casm")
        assert_one_line_usage_error(
            result, "error[E-CONSTRAINT]: initial constraint does not hold "
                    "initially")

    def test_repeated_enum_literal_is_a_one_line_usage_error(self,
                                                             workspace):
        (workspace / "dup.casm").write_text(
            "asm s\nenum S = { A, B, A }\ncontrolled c : S init A\n"
            "ctlstate c\nunsafe false\nrule r:\n  c := B\n")
        result = invoke("parse", "dup.casm")
        assert_one_line_usage_error(
            result, "dup.casm:2:18: error[E-DUP-LITERAL]: literal A repeated "
                    "in enum S")

    def test_input_file_is_not_modified(self, workspace):
        before = (workspace / "traffic.casm").read_bytes()
        invoke("parse", "traffic.casm")
        assert (workspace / "traffic.casm").read_bytes() == before


class TestRunCommand:
    def test_trace_to_file(self, workspace):
        result = invoke("run", "traffic.casm", "--steps", "5", "--seed", "7",
                        "--trace", "out.jsonl")
        assert result.exit_code == 0
        lines = (workspace / "out.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[5])["state"]["phase"] == "Go1Stop2"

    def test_reruns_are_byte_identical(self, workspace):
        invoke("run", "traffic.casm", "--steps", "50", "--seed", "3",
               "--monitored", "random:9", "--trace", "a.jsonl")
        invoke("run", "traffic.casm", "--steps", "50", "--seed", "3",
               "--monitored", "random:9", "--trace", "b.jsonl")
        assert (workspace / "a.jsonl").read_bytes() == \
            (workspace / "b.jsonl").read_bytes()

    def test_scripted_oracle_file(self, workspace):
        script = [{"Passed(Stop1Stop2)": True, "Passed(Go1Stop2)": True,
                   "Passed(Stop2Stop1)": True, "Passed(Go2Stop1)": True}]
        (workspace / "env.json").write_text(json.dumps(script))
        result = invoke("run", "traffic.casm", "--steps", "1", "--seed", "1",
                        "--monitored", "file:env.json", "--trace", "t.jsonl")
        assert result.exit_code == 0


class TestSymexecCommand:
    def test_report(self, workspace):
        result = invoke("symexec", "traffic.casm", "--out", "report.json")
        assert result.exit_code == 0
        report = json.loads((workspace / "report.json").read_text())
        non_stutter = [p for p in report["paths"] if not p["stutter"]]
        assert len(non_stutter) == 2  # merged transition groups
        assert report["condX"]
        assert "alpha" in report["symbols"]

    def test_without_abstraction(self, workspace):
        result = invoke("symexec", "traffic.casm", "--no-ctl-abstraction")
        assert result.exit_code == 0
        assert json.loads(result.output)["condX"] is None


class TestProtectCommands:
    def test_protect_run_verify_compare(self, workspace):
        result = invoke("protect", "traffic.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert result.exit_code == 0
        assert sorted(os.listdir(workspace / "p")) == \
            ["enrollment.json", "protected.casm"]

        run_result = invoke("run-protected", "p", "--device-seed", "42",
                            "--steps", "8", "--seed", "7",
                            "--trace", "prot.jsonl")
        assert run_result.exit_code == 0
        lines = (workspace / "prot.jsonl").read_text().splitlines()
        assert len(lines) == 9
        assert all("FALLBACK_TAKEN" not in line for line in lines)

        verify_result = invoke("verify", "p")
        assert verify_result.exit_code == 0
        assert "safe" in verify_result.output

        compare_result = invoke("compare", "p", "--target-seed", "42",
                                "--trials", "4", "--steps", "100",
                                "--report", "report.json")
        assert compare_result.exit_code == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["safetyViolations"] == 0
        assert report["trialsDiverged"] == 4

    def test_stalling_target_fails_compare(self, workspace):
        # with condx true every state is dangerous: the enrolled device's
        # own run stalls at each site, and compare must say so
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        casm = workspace / "p" / "protected.casm"
        lines = casm.read_text().splitlines(keepends=True)
        condx = [i for i, line in enumerate(lines)
                 if line.startswith("condx ")]
        assert len(condx) == 1
        lines[condx[0]] = "condx true\n"
        casm.write_text("".join(lines))
        result = invoke("compare", "p", "--target-seed", "42", "--steps",
                        "2000", "--trials", "5", "--seed", "7")
        assert result.exit_code == 1, result.output
        assert "target fallbacks: 0; target stalls: 2000;" in result.output

    def test_protect_program_writing_an_unread_location(self, workspace):
        from conftest import UNREAD_WRITE
        (workspace / "served.casm").write_text(UNREAD_WRITE)
        result = invoke("protect", "served.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert result.exit_code == 0, result.output
        verify_result = invoke("verify", "p")
        assert verify_result.exit_code == 0
        assert verify_result.output.endswith(": safe\n")

    def test_program_without_transitions_loads_and_verifies(self,
                                                            workspace):
        (workspace / "still.casm").write_text(STILL)
        result = invoke("protect", "still.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert result.exit_code == 0, result.output
        assert "no control-state transitions" in result.output
        verify_result = invoke("verify", "p")
        assert verify_result.exit_code == 0, verify_result.output
        assert verify_result.output.endswith(": safe\n")
        run_result = invoke("run-protected", "p", "--device-seed", "7",
                            "--steps", "3", "--seed", "1")
        assert run_result.exit_code == 0, run_result.output
        last = json.loads(run_result.output.splitlines()[-1])
        assert last["state"]["lit"] is True

    @pytest.mark.parametrize("second_guard, exit_code", [
        ("mode = St0", 2),
        # exclusive with the first rule's guard, so never a conflict
        ("mode = St0 and flag", 0)], ids=["overlapping", "exclusive"])
    def test_conflicting_control_writes_are_rejected(self, workspace,
                                                     second_guard,
                                                     exit_code):
        (workspace / "twice.casm").write_text(
            TWICE.replace("SECOND_GUARD", second_guard))
        result = invoke("protect", "twice.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert result.exit_code == exit_code, result.output
        if exit_code:
            assert_one_line_usage_error(result, "writes to mode")
            assert not (workspace / "p").exists()
        else:
            assert invoke("verify", "p").exit_code == 0

    def test_protect_outputs_are_idempotent(self, workspace):
        for out in ("p1", "p2"):
            invoke("protect", "traffic.casm", "--device-seed", "42",
                   "--challenge-bits", "16", "--response-bits", "16",
                   "--out", out)
        for name in ("protected.casm", "enrollment.json"):
            assert (workspace / "p1" / name).read_bytes() == \
                (workspace / "p2" / name).read_bytes()

    def test_enrollment_failure_exit_code(self, workspace):
        result = invoke("protect", "traffic.casm", "--device-seed", "42",
                        "--challenge-bits", "1", "--response-bits", "16",
                        "--out", "nope")
        assert result.exit_code == 3
        assert not (workspace / "nope").exists()

    def test_clone_run_stays_safe(self, workspace):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        result = invoke("run-protected", "p", "--device-seed", "1234",
                        "--steps", "100", "--seed", "7",
                        "--trace", "clone.jsonl")
        assert result.exit_code == 0
        for line in (workspace / "clone.jsonl").read_text().splitlines():
            state = json.loads(line)["state"]
            assert not (state["GoLight(1)"] and state["GoLight(2)"])


STILL = """\
asm still
enum Mode = { Only }
controlled mode : Mode init Only
controlled lit : Bool init false
ctlstate mode
unsafe false

rule r:
  if mode = Only then
    lit := not lit
  endif
"""
"""No rule writes the control state: nothing is bound to the device."""

TWICE = """\
asm twice
enum Mode = { St0, St1 }
controlled mode : Mode init St0
controlled flag : Bool init false
ctlstate mode
unsafe false

rule r0:
  if mode = St0 and not flag then
    mode := St1
  endif

rule r1:
  if SECOND_GUARD then
    mode := St0
  endif
"""
"""Both rules can fire in St0 and write different control states unless
the second guard excludes the first."""


TWOSITE = """\
asm twosite
enum Mode = { St0, St1 }
controlled mode : Mode init St0
controlled flag0 : Bool init true
ctlstate mode
unsafe not flag0
rule r0:
  if mode = St0 then
    mode := St1
    mode := St1
  endif
rule r1:
  if mode = St1 then
    mode := St0
  endif
"""
"""Two challenge sites fire in one step from St0, with one challenge."""


def assert_one_line_usage_error(result, names):
    assert result.exit_code == 2, result.output
    assert len(result.output.splitlines()) == 1, result.output
    assert names in result.output
    assert "Traceback" not in result.output


def _drop_init_token(raw):
    del raw["initToken"]
    return json.dumps(raw)


def _string_challenge(raw):
    raw["transitions"][0]["challenge"] = "7"
    return json.dumps(raw)


def _duplicate_response(raw):
    raw["transitions"][1]["response"] = raw["transitions"][0]["response"]
    return json.dumps(raw)


def _response_is_init_token(raw):
    raw["transitions"][0]["response"] = raw["initToken"]
    return json.dumps(raw)


def _foreign_init_token(raw):
    raw["initToken"] = 70000
    return json.dumps(raw)


def _truncated(raw):
    return json.dumps(raw)[:-10]


def _other_ctl_function(raw):
    raw["ctlFunction"] = "Passed"
    return json.dumps(raw)


def _init_state_outside_plain_sort(raw):
    raw["initState"] = "Bogus"
    return json.dumps(raw)


def _transition_from_outside_plain_sort(raw):
    raw["transitions"][0]["from"] = "Bogus"
    return json.dumps(raw)


def _transition_to_outside_plain_sort(raw):
    raw["transitions"][0]["to"] = "Bogus"
    return json.dumps(raw)


def _enc_line_omits_an_enrolled_state(raw):
    # the enrollment stays as it is, and the protected program beside it
    # (the workspace is the working directory) loses Go2Stop1's encoding
    casm = Path("p", "protected.casm")
    text = casm.read_text()
    assert text.count(", Go2Stop1: [28866]") == 1
    casm.write_text(text.replace(", Go2Stop1: [28866]", ""))
    return json.dumps(raw)


class TestBadInputs:
    """Malformed artifacts and input specs end in exit code 2 with a
    one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("corrupt, names", [
        (_drop_init_token, "initToken"),
        (_string_challenge, "challenge"),
        (_duplicate_response, "reused"),
        (_response_is_init_token, "reused"),
        (_foreign_init_token, "initToken 70000"),
        (_truncated, "malformed"),
        (_other_ctl_function, "ctlFunction Passed"),
        (_init_state_outside_plain_sort, "initState Bogus"),
        (_transition_from_outside_plain_sort, "transition from Bogus"),
        (_transition_to_outside_plain_sort, "transition to Bogus"),
        (_enc_line_omits_an_enrolled_state,
         "encoding annotation omits Go2Stop1")])
    def test_corrupt_enrollment(self, workspace, corrupt, names):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        path = workspace / "p" / "enrollment.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        result = invoke("run-protected", "p", "--device-seed", "42",
                        "--steps", "3", "--seed", "1")
        assert_one_line_usage_error(result, names)

    @pytest.mark.parametrize("command", [
        ("run-protected", "p", "--device-seed", "42", "--steps", "3",
         "--seed", "1"),
        ("verify", "p"),
        ("compare", "p", "--target-seed", "42", "--steps", "200")])
    def test_transition_to_outside_plain_sort(self, workspace, command):
        # with its response dropped from the enc line as well, the
        # tampered transition agrees with the encoding annotation
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        path = workspace / "p" / "enrollment.json"
        raw = json.loads(path.read_text())
        target, response = raw["transitions"][0]["to"], \
            raw["transitions"][0]["response"]
        path.write_text(_transition_to_outside_plain_sort(raw))
        casm = workspace / "p" / "protected.casm"
        text = casm.read_text()
        assert text.count(f"{target}: [{response}]") == 1
        casm.write_text(text.replace(f"{target}: [{response}]",
                                     f"{target}: []"))
        assert_one_line_usage_error(invoke(*command), "transition to Bogus")

    @pytest.mark.parametrize("bits", [8, 20])
    def test_response_width_disagrees_with_the_control_sort(self, workspace,
                                                            bits):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        path = workspace / "p" / "enrollment.json"
        raw = json.loads(path.read_text())
        raw["responseBits"] = bits
        path.write_text(json.dumps(raw))
        names = (f"{os.path.join('p', 'enrollment.json')} has responseBits "
                 f"{bits}, but phase holds 16-bit responses")
        for command in [
                ("run-protected", "p", "--device-seed", "42", "--steps", "3",
                 "--seed", "1"),
                ("verify", "p"),
                ("compare", "p", "--target-seed", "42", "--steps", "50")]:
            assert_one_line_usage_error(invoke(*command), names)

    @pytest.mark.parametrize("challenge, in_table, reason", [
        (9, False, "is not enrolled in"),
        (70000, False, "is not enrolled in"),
        (70000, True, "is outside the 16-bit challenge space")])
    @pytest.mark.parametrize("command", [
        ("run-protected", "p", "--device-seed", "42", "--steps", "50",
         "--seed", "1"),
        ("verify", "p"),
        ("compare", "p", "--target-seed", "42", "--steps", "50")])
    def test_site_challenge_not_in_the_enrollment(self, workspace, challenge,
                                                  in_table, reason, command):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        casm = workspace / "p" / "protected.casm"
        text = casm.read_text()
        assert text.count("challenge 3\n") == 1
        casm.write_text(text.replace("challenge 3\n",
                                     f"challenge {challenge}\n"))
        if in_table:
            path = workspace / "p" / "enrollment.json"
            raw = json.loads(path.read_text())
            assert raw["transitions"][3]["challenge"] == 3
            raw["transitions"][3]["challenge"] = challenge
            path.write_text(json.dumps(raw))
        names = (f"{os.path.join('p', 'protected.casm')}: challenge "
                 f"{challenge} {reason}")
        assert_one_line_usage_error(invoke(*command), names)

    @pytest.mark.parametrize("command", [
        ("run-protected", "p", "--device-seed", "999", "--steps", "50",
         "--seed", "1"),
        ("verify", "p"),
        ("compare", "p", "--target-seed", "42", "--steps", "50")])
    def test_helper_writes_the_control_state(self, workspace, command):
        # a helper's plain control write would jump on every device
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        casm = workspace / "p" / "protected.casm"
        text = casm.read_text()
        assert text.count("challenge 2\n") == 1
        casm.write_text(text.replace("challenge 2\n", "jump()\n")
                        + "\nrule jump():\n  phase := 28866\n")
        assert_one_line_usage_error(
            invoke(*command),
            "E-CTLSHAPE]: plain control-state update in protected rule jump")

    @pytest.mark.parametrize("missing", ["protected.casm", "enrollment.json"])
    @pytest.mark.parametrize("command", [
        ("run-protected", "p", "--device-seed", "42", "--steps", "3",
         "--seed", "1"),
        ("verify", "p"),
        ("compare", "p", "--target-seed", "42", "--trials", "1",
         "--steps", "3")])
    def test_missing_artifact_file(self, workspace, missing, command):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        (workspace / "p" / missing).unlink()
        assert_one_line_usage_error(invoke(*command), missing)

    def test_bad_clone_seeds(self, workspace):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        result = invoke("compare", "p", "--target-seed", "42",
                        "--clone-seeds", "a,b", "--steps", "3")
        assert_one_line_usage_error(result, "--clone-seeds")

    @pytest.mark.parametrize("command, names", [
        (("run-protected", "p", "--device-seed", "42", "--steps", "-3",
          "--seed", "1"), "step count must be non-negative"),
        (("verify", "traffic.casm", "--runs", "-5"), "--runs"),
        (("verify", "traffic.casm", "--steps", "-1"), "--steps"),
        (("compare", "p", "--target-seed", "42", "--trials", "-3",
          "--steps", "3"), "--trials"),
        (("compare", "p", "--target-seed", "42", "--trials", "1",
          "--steps", "-3"), "step count must be non-negative")],
        ids=["run-protected-steps", "verify-runs", "verify-steps",
             "compare-trials", "compare-steps"])
    def test_negative_count(self, workspace, command, names):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        assert_one_line_usage_error(invoke(*command), names)

    @pytest.mark.parametrize("command", [
        ("run", "traffic.casm", "--steps", "3", "--seed", "1",
         "--trace", "missing/t.jsonl"),
        ("run-protected", "p", "--device-seed", "42", "--steps", "3",
         "--seed", "1", "--trace", "missing/t.jsonl"),
        ("symexec", "traffic.casm", "--out", "missing/s.json"),
        ("verify", "p", "--out", "missing/r.json"),
        ("compare", "p", "--target-seed", "42", "--trials", "1",
         "--steps", "3", "--report", "missing/r.json"),
        ("protect", "traffic.casm", "--device-seed", "42",
         "--challenge-bits", "16", "--response-bits", "16",
         "--out", "traffic.casm/sub")],
        ids=["run", "run-protected", "symexec", "verify", "compare",
             "protect"])
    def test_unwritable_output(self, workspace, command):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        assert_one_line_usage_error(invoke(*command),
                                    f"cannot write {command[-1]}")

    def test_protect_leaves_no_half_artifact(self, workspace):
        (workspace / "p" / "enrollment.json").mkdir(parents=True)
        result = invoke("protect", "traffic.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert_one_line_usage_error(
            result, os.path.join("p", "enrollment.json"))
        assert sorted(os.listdir(workspace / "p")) == ["enrollment.json"]

    @pytest.mark.parametrize("spec", ["random:abc", "file:/nonexistent"])
    def test_bad_monitored_spec(self, workspace, spec):
        result = invoke("run", "traffic.casm", "--steps", "3", "--seed", "1",
                        "--monitored", spec)
        assert_one_line_usage_error(result, spec)

    @pytest.mark.parametrize("script, names", [
        ([1], "entry 0 is not an object"),
        ([{"Passed(Stop1Stop2)": True}, {"Passed(Go1Stop2)": "yes"}],
         "entry 1: Passed(Go1Stop2) = \"yes\" is outside Bool"),
        ([{"Passed(Stop1Stop2)": 7}], "= 7 is outside Bool"),
        ([{"phase": "Go1Stop2"}], "phase is not a monitored location"),
        ([{"Passed(Nowhere)": True}], "entry 0: 'Nowhere'")])
    def test_bad_scripted_oracle(self, workspace, script, names):
        (workspace / "env.json").write_text(json.dumps(script))
        result = invoke("run", "traffic.casm", "--steps", "2", "--seed", "1",
                        "--monitored", "file:env.json")
        assert_one_line_usage_error(result, names)


class TestVerifyCommand:
    def test_exhaustive_safe(self, workspace):
        result = invoke("verify", "traffic.casm", "--exhaustive")
        assert result.exit_code == 0
        assert "safe" in result.output

    def test_exhaustive_violation_exit_code(self, workspace):
        from conftest import FAULTY_TRAFFIC
        (workspace / "faulty.casm").write_text(FAULTY_TRAFFIC)
        result = invoke("verify", "faulty.casm", "--exhaustive")
        assert result.exit_code == 1
        assert "UNSAFE" in result.output

    def test_randomized_mode(self, workspace):
        result = invoke("verify", "traffic.casm", "--runs", "5",
                        "--steps", "50")
        assert result.exit_code == 0

    @pytest.mark.parametrize("faulty, code, output", [
        (True, 1, "unsafe state reached (seed 1, step 3)\n"),
        (False, 0, "no unsafe state in 50 randomized runs of 200 steps\n"),
    ], ids=["faulty-ring4", "ring4"])
    def test_randomized_ring4(self, workspace, faulty, code, output):
        from rings import ring_source
        (workspace / "ring4.casm").write_text(ring_source(4, faulty=faulty))
        result = invoke("verify", "ring4.casm")
        assert result.exit_code == code, result.output
        assert result.output == output

    def test_protected_ring8_is_checked(self, ring8_protected):
        # the bound counts the 33 states visited, not the 17 * 2**16
        # stored states the controlled locations could hold
        result = invoke("verify", ring8_protected)
        assert result.exit_code == 0, result.output
        assert result.output == \
            "explored 33 states, 20086784 transitions: safe\n"


@pytest.fixture(scope="module")
def ring8_protected(tmp_path_factory):
    """Protected ring-8 (device 42, 16/16 bits), written as an artifact.
    Module scope: protected before the oracle cross-check is switched on,
    under which protecting ring-8 takes minutes."""
    from casmkit.parser import parse_or_raise
    from casmkit.protect import protect
    from casmkit.puf import make_device
    from rings import ring_source
    protected, _ = protect(parse_or_raise(ring_source(8)),
                           make_device(42, 16, 16))
    out = tmp_path_factory.mktemp("ring8") / "p"
    protected.save(str(out))
    return str(out)


class TestTwoSitesInOneStep:
    """Sites that fire in one step share the challenge; it is resolved
    once, so clones and noisy targets commit one control value."""

    @pytest.fixture()
    def protected_dir(self, workspace):
        (workspace / "twosite.casm").write_text(TWOSITE)
        result = invoke("protect", "twosite.casm", "--device-seed", "42",
                        "--challenge-bits", "16", "--response-bits", "16",
                        "--out", "p")
        assert result.exit_code == 0, result.output
        return "p"

    @pytest.mark.parametrize("device_seed, noise", [
        ("43", "0.0"), ("42", "0.3")])
    def test_runs(self, protected_dir, workspace, device_seed, noise):
        result = invoke("run-protected", protected_dir, "--device-seed",
                        device_seed, "--noise", noise, "--steps", "40",
                        "--seed", "1", "--trace", "t.jsonl")
        assert result.exit_code == 0, result.output
        entries = [json.loads(line) for line in
                   (workspace / "t.jsonl").read_text().splitlines()]
        assert len(entries) == 41
        # one decision per step, for the two sites of r0 as for r1
        assert all(len(e["events"]) == 1 for e in entries[1:])

    def test_verify(self, protected_dir):
        result = invoke("verify", protected_dir)
        assert result.exit_code == 0, result.output
        assert result.output == "explored 3 states, 12 transitions: safe\n"
        result = invoke("verify", protected_dir, "--device-seed", "42")
        assert result.exit_code == 0, result.output

    def test_compare(self, protected_dir):
        result = invoke("compare", protected_dir, "--target-seed", "42",
                        "--trials", "5", "--steps", "200", "--noise", "0.1")
        assert result.exit_code == 0, result.output
        assert "0 safety violations" in result.output


class TestVersion:
    def test_version_mentions_dialect(self):
        result = invoke("--version")
        assert result.exit_code == 0
        assert "formula dialect" in result.output


def independent_rules(r):
    """A two-phase toggle beside ``r`` rules that each flip their own
    flag; ``unsafe not ok``, and nothing writes ``ok``.  Its ``condx``
    disjoins 2 ** (r + 1) paths, nested as deep."""
    rules = "".join(
        f"rule r{i}:\n  if phase in {{ A, B }} and go{i} then\n"
        f"    x{i} := not x{i}\n  endif\n" for i in range(r))
    return ("asm indep\nenum Phase = { A, B }\n"
            "controlled phase : Phase init A\ncontrolled ok : Bool init true\n"
            + "".join(f"controlled x{i} : Bool init false\n"
                      f"monitored go{i} : Bool\n" for i in range(r))
            + "ctlstate phase\nunsafe not ok\nrule toggle:\n"
              "  if phase = A then\n    phase := B\n  else\n"
              "    phase := A\n  endif\n" + rules)


class TestTooDeep:
    """Terms nested past the recursion limit end in a one-line usage
    error, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["protect", "--device-seed", "42", "--challenge-bits", "16",
         "--response-bits", "16", "--out", "out"],
        ["symexec"],
    ], ids=["protect", "symexec"])
    def test_nine_independent_rules(self, tmp_path, command):
        # run in a process of its own: the suite's oracle checks would
        # re-verify each of the 1,024 disjuncts
        (tmp_path / "indep.casm").write_text(independent_rules(9))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        result = subprocess.run(
            [sys.executable, "-m", "casmkit.cli", command[0], "indep.casm",
             *command[1:]], cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            timeout=120)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("terms nest too deeply to analyse (maximum "
                               "recursion depth exceeded")
        assert not (tmp_path / "out").exists()

    def test_verify(self, workspace, monkeypatch):
        import casmkit.cli as cli

        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "exhaustive_safety_check", deep)
        result = invoke("verify", "traffic.casm", "--exhaustive")
        assert_one_line_usage_error(result, "terms nest too deeply")
