"""The three workloads: inputs built from the workload seed, the jobs
timed on them, and the checks every result must pass.

Each job calls the public library function that the matching CLI
command calls, always through its module (``cverify.exhaustive_...``),
so that the traced run can wrap it.  Every result is checked against
values stored in ``expected.json``, never against values the code under
test derives at run time; a digest that depends on the device is pinned
at the default seed only, and at other seeds each repeated job must give
the same result as its first run.

A case is one operation that is timed and checked.  ``group`` says which
end-to-end metric its time adds to: ``job`` (the workload's headline job)
or ``contrast`` (a job on the same layers that takes the other path).
``repeat`` is how often a case runs in one pass, so that short cases
collect as many samples as long ones; ``cap_s`` is its time cap.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import casmkit.interp as cinterp
import casmkit.parser as cparser
import casmkit.protect as cprotect
import casmkit.puf as cpuf
import casmkit.verify as cverify
from casmkit.ast import term_size, validate_program
from casmkit.programs import traffic_light_source

from rings import ring_source

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)
DEFAULT_SEED = EXPECTED["default_seed"]
BITS = 16  # challenge and response width, as in the paper's example


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Case:
    name: str
    group: str                      # "job" or "contrast"
    run: Callable[[], Any]          # timed
    check: Callable[[Any], None]    # untimed; raises CheckFailed
    repeat: int = 1
    cap_s: float = 30.0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rnd = random.Random(f"{self.name}:{seed}")
        self.tracer = None
        self._first: dict[str, str] = {}

    def span(self, name: str):
        """A tracer span in the traced run, nothing otherwise."""
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def same_as_first(self, key: str, digest: str, pinned: str) -> None:
        """At the default seed ``digest`` must equal the pinned value; at
        any seed, a repeated job must reproduce its first result."""
        if self.seed == DEFAULT_SEED:
            expect(digest == pinned,
                   f"{key}: digest {digest[:16]} differs from the recorded "
                   f"{pinned[:16]}")
        first = self._first.setdefault(key, digest)
        expect(digest == first, f"{key}: result not reproducible")

    # Subclasses implement these.
    def setup(self) -> Any:
        raise NotImplementedError

    def check_setup(self, ctx: Any) -> None:
        raise NotImplementedError

    def cases(self, ctx: Any) -> list[Case]:
        raise NotImplementedError

    def traced_only(self, ctx: Any) -> list[Case]:
        return []

    def figures(self, q: Callable[[str], float]) -> dict[str, float]:
        """The job-level figures, from ``q(case name)`` in seconds."""
        raise NotImplementedError


def check_valid(program) -> None:
    problems = validate_program(program)
    expect(not problems, f"{program.name}: {problems}")


def check_protected(protected, enrollment, exp: dict, label: str) -> None:
    expect(len(enrollment.transitions) == exp["transitions"],
           f"{label}: {len(enrollment.transitions)} enrolled transitions, "
           f"expected {exp['transitions']}")
    size = term_size(protected.safe_condition.cond_x)
    expect(size == exp["condx_size"],
           f"{label}: condx size {size}, expected {exp['condx_size']}")
    expect(not protected.warnings, f"{label}: warnings {protected.warnings}")


def artifact_digest(protected) -> str:
    return sha256(protected.source_text() + protected.enrollment.to_json())


# ---------------------------------------------------------------------------
# runtime-traffic
# ---------------------------------------------------------------------------

class RuntimeTraffic(Workload):
    name = "runtime-traffic"
    STEPS = 10_000          # steps of a clone trial and of the reference run
    TARGET_STEPS = 1_000    # steps of one target comparison
    TRIALS = 2              # clone devices per clone_divergence_report call
    NOISES = (0.0, 0.05)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rnd = self.rnd
        self.exp = EXPECTED["traffic"]
        self.device_seed = self.exp["device_seed"]
        self.run_seed = rnd.randrange(1 << 31)
        self.oracle_seed = rnd.randrange(1 << 31)
        seeds: list[int] = []
        while len(seeds) < self.TRIALS:
            s = rnd.randrange(1 << 62)
            if s != self.device_seed and s not in seeds:
                seeds.append(s)
        self.clone_seeds = seeds
        self.script_bits = [[rnd.random() < 0.75 for _ in range(4)]
                            for _ in range(self.TARGET_STEPS)]

    def setup(self):
        program = cparser.parse_or_raise(traffic_light_source())
        device = cpuf.make_device(self.device_seed, BITS, BITS)
        protected, enrollment = cprotect.protect(program, device)
        always = cinterp.ConstantOracle.always_true(program)
        reference = cinterp.run(program, self.STEPS, always, self.run_seed)
        locs = program.monitored_locations()
        script = cinterp.ScriptedOracle(
            [dict(zip(locs, bits)) for bits in self.script_bits])
        policies = {"always-true": always,
                    "random": cinterp.RandomOracle(self.oracle_seed),
                    "scripted": script}
        return dict(program=program, protected=protected,
                    enrollment=enrollment, always=always,
                    reference=reference, policies=policies)

    def check_setup(self, ctx):
        check_valid(ctx["program"])
        check_protected(ctx["protected"], ctx["enrollment"], self.exp,
                        "traffic")
        # the device seed is fixed, so the artifact is the same at every seed
        digest = artifact_digest(ctx["protected"])
        expect(digest == self.exp["artifact_sha256"],
               "traffic: protected artifact differs from the recorded one")
        expect(len(ctx["reference"].entries) == self.STEPS + 1,
               "traffic: reference run has the wrong length")

    def cases(self, ctx):
        out = []
        for noise in self.NOISES:
            out.append(Case(f"clone noise={noise}", "job",
                            self._clone_run(ctx, noise),
                            self._clone_check(noise), repeat=2))
        for policy, oracle in ctx["policies"].items():
            out.append(Case(f"target {policy}", "contrast",
                            self._target_run(ctx, oracle),
                            self._target_check(policy), repeat=2))
        return out

    def _clone_run(self, ctx, noise):
        def run():
            return cverify.clone_divergence_report(
                ctx["protected"], ctx["reference"], self.clone_seeds,
                self.STEPS, noise, ctx["always"], self.run_seed)
        return run

    def _clone_check(self, noise):
        exp = EXPECTED["clone"]

        def check(report):
            expect(report.safety_violations == 0,
                   f"clones at noise {noise}: {report.safety_violations} "
                   "safety violations")
            expect(report.trials == self.TRIALS
                   and report.steps_per_trial == self.STEPS,
                   f"clones at noise {noise}: wrong trial shape")
            expect(report.trials_diverged
                   >= exp["min_diverged_share"] * report.trials,
                   f"clones at noise {noise}: only {report.trials_diverged} "
                   f"of {report.trials} diverged")
            self.same_as_first(f"clone report noise={noise}",
                               sha256(report.to_json()),
                               exp["report_sha256"][str(noise)])
        return check

    def _target_run(self, ctx, oracle):
        def run():
            return cverify.compare_target_traces(
                ctx["program"], ctx["protected"], self.device_seed,
                self.TARGET_STEPS, oracle, self.run_seed)
        return run

    def _target_check(self, policy):
        def check(cmp):
            expect(cmp.verdict == EXPECTED["target"]["verdict"],
                   f"target {policy}: {cmp.verdict} at step "
                   f"{cmp.mismatch_step} ({cmp.mismatch_location})")
            expect(cmp.fallback_count == EXPECTED["target"]["fallbacks"],
                   f"target {policy}: {cmp.fallback_count} fallbacks")
        return check

    def figures(self, q):
        clone_steps = self.TRIALS * self.STEPS
        targets = [q(f"target {p}") for p in ("always-true", "random",
                                              "scripted")]
        return {
            "clone_steps_per_s": clone_steps / q("clone noise=0.0"),
            "noisy_clone_steps_per_s": clone_steps / q("clone noise=0.05"),
            "target_steps_per_s": 3 * self.TARGET_STEPS / sum(targets),
        }


# ---------------------------------------------------------------------------
# protect-ring
# ---------------------------------------------------------------------------

class ProtectRing(Workload):
    name = "protect-ring"
    SIZES = (2, 3, 4, 5)
    # ring-5 (~6 s, four samples a run) is timed in the traced run only;
    # small rings run more often, for about as many seconds as ring-4
    TIMED = (2, 3, 4)
    REPEAT = {2: 8, 3: 3, 4: 1, 5: 1}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.device_seed = self.rnd.randrange(1 << 62)
        self.latest: dict[int, Any] = {}

    def setup(self):
        return {n: cparser.parse_or_raise(ring_source(n)) for n in self.SIZES}

    def check_setup(self, ctx):
        for program in ctx.values():
            check_valid(program)

    def cases(self, ctx, sizes=TIMED):
        out = [Case(f"protect ring{n}", "job", self._protect_run(ctx[n], n),
                    self._protect_check(n), repeat=self.REPEAT[n],
                    cap_s=90.0)
               for n in sizes]
        out += [Case(f"io ring{n}", "contrast", self._io_run(n),
                     self._io_check(n), repeat=4)
                for n in sizes]
        return out

    def traced_only(self, ctx):
        return self.cases(ctx, sizes=(5,))

    def _protect_run(self, program, n):
        def run():
            device = cpuf.make_device(self.device_seed, BITS, BITS)
            result = cprotect.protect(program, device)
            self.latest[n] = result[0]
            return result
        return run

    def _protect_check(self, n):
        def check(result):
            protected, enrollment = result
            check_protected(protected, enrollment, EXPECTED["rings"][str(n)],
                            f"ring-{n}")
        return check

    def _io_run(self, n):
        directory = os.path.join(self.workdir, f"ring{n}")

        def run():
            protected = self.latest[n]
            protected.save(directory)
            return protected, cprotect.load_protected(directory)
        return run

    def _io_check(self, n):
        def check(result):
            protected, loaded = result
            expect(loaded.enrollment == protected.enrollment,
                   f"ring-{n}: enrollment changed in the artifact round trip")
            expect(loaded.safe_condition.cond_x
                   == protected.safe_condition.cond_x,
                   f"ring-{n}: condx changed in the artifact round trip")
            expect(cparser.pretty_print(loaded.program, loaded.extras())
                   == cparser.pretty_print(protected.program,
                                           protected.extras()),
                   f"ring-{n}: program changed in the artifact round trip")
            self.same_as_first(
                f"artifact ring{n}", artifact_digest(protected),
                EXPECTED["rings"][str(n)]["artifact_sha256_default_seed"])
        return check

    def figures(self, q):
        return {"protect_s": sum(q(f"protect ring{n}") + q(f"io ring{n}")
                                 for n in self.TIMED)}


# ---------------------------------------------------------------------------
# verify-ring
# ---------------------------------------------------------------------------

class VerifyRing(Workload):
    name = "verify-ring"
    SIZES = (2, 3, 4)
    # ring-4 adversarial (~20 s, one sample a run) is timed in the traced
    # run only; see README.md
    TIMED_ADVERSARIAL = (2, 3)
    REPEAT = {2: 5, 3: 1}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.device_seed = self.rnd.randrange(1 << 62)

    def setup(self):
        ctx = {}
        for n in self.SIZES:
            with self.span(f"setup ring{n}"):
                program = cparser.parse_or_raise(ring_source(n))
                faulty = cparser.parse_or_raise(ring_source(n, faulty=True))
                device = cpuf.make_device(self.device_seed, BITS, BITS)
                protected, enrollment = cprotect.protect(program, device)
            ctx[n] = dict(program=program, faulty=faulty,
                          protected=protected, enrollment=enrollment)
        return ctx

    def check_setup(self, ctx):
        for n in self.SIZES:
            check_valid(ctx[n]["program"])
            check_valid(ctx[n]["faulty"])
            check_protected(ctx[n]["protected"], ctx[n]["enrollment"],
                            EXPECTED["rings"][str(n)], f"ring-{n}")

    def _case(self, kind, n, subject, repeat, cap_s=30.0):
        adversarial = kind == "adversarial"

        def run():
            return cverify.exhaustive_safety_check(
                subject, adversarial_puf=adversarial)

        def check(report):
            exp = EXPECTED["rings"][str(n)][kind]
            got = dict(states=report.explored_states,
                       transitions=report.transition_count,
                       unsafe=report.unsafe_reachable)
            want = {k: exp[k] for k in got}
            expect(got == want, f"{kind} verify ring-{n}: {got}, "
                                f"expected {want}")
            if report.unsafe_reachable:
                expect(len(report.witness) == exp["witness_steps"],
                       f"{kind} verify ring-{n}: witness of "
                       f"{len(report.witness)} steps")
                expect(cverify.replay_witness(subject, report.witness),
                       f"{kind} verify ring-{n}: witness does not replay")

        group = "job" if adversarial else "contrast"
        return Case(f"verify-{kind} ring{n}", group, run, check,
                    repeat=repeat, cap_s=cap_s)

    def cases(self, ctx):
        out = [self._case("adversarial", n, ctx[n]["protected"],
                          self.REPEAT[n])
               for n in self.TIMED_ADVERSARIAL]
        for n in self.SIZES:
            out.append(self._case("plain", n, ctx[n]["program"], 3))
            out.append(self._case("faulty", n, ctx[n]["faulty"], 3))
        return out

    def traced_only(self, ctx):
        return [self._case("adversarial", 4, ctx[4]["protected"], 1,
                           cap_s=100.0)]

    def figures(self, q):
        return {
            "verify_s": sum(q(f"verify-adversarial ring{n}")
                            for n in self.TIMED_ADVERSARIAL),
            "verify_plain_s": sum(q(f"verify-{k} ring{n}")
                                  for k in ("plain", "faulty")
                                  for n in self.SIZES),
        }


WORKLOADS = {w.name: w for w in (RuntimeTraffic, ProtectRing, VerifyRing)}
