import json
import os

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


def _truncated(raw):
    return json.dumps(raw)[:-10]


def _other_ctl_function(raw):
    raw["ctlFunction"] = "Passed"
    return json.dumps(raw)


def _init_state_outside_plain_sort(raw):
    raw["initState"] = "Bogus"
    return json.dumps(raw)


class TestBadInputs:
    """Malformed artifacts and input specs end in exit code 2 with a
    one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("corrupt, names", [
        (_drop_init_token, "initToken"),
        (_string_challenge, "challenge"),
        (_duplicate_response, "reused"),
        (_response_is_init_token, "reused"),
        (_truncated, "malformed"),
        (_other_ctl_function, "ctlFunction Passed"),
        (_init_state_outside_plain_sort, "initState Bogus")])
    def test_corrupt_enrollment(self, workspace, corrupt, names):
        invoke("protect", "traffic.casm", "--device-seed", "42",
               "--challenge-bits", "16", "--response-bits", "16",
               "--out", "p")
        path = workspace / "p" / "enrollment.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        result = invoke("run-protected", "p", "--device-seed", "42",
                        "--steps", "3", "--seed", "1")
        assert_one_line_usage_error(result, names)

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
