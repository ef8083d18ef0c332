"""Independent oracles and experiments.

Exhaustive breadth-first reachability over the full transition relation
(monitored inputs branched universally per step, every nondeterministic
resolution explored) backs the safety claims of the transformation; trace
comparison and clone statistics realize the target/replica experiments.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .ast import (
    CasmError, EvalError, Location, Program, State, Value, eval_term,
    format_location, locations_of_interest,
)
from .interp import (
    MonitoredOracle, Trace, enumerate_step_outcomes, iter_run, step,
    ScriptedOracle,
)
from .protect import FALLBACK_TAKEN, ProtectedProgram, ProtectedRunner
from .puf import make_device


class StateSpaceTooLarge(CasmError):
    pass


# ---------------------------------------------------------------------------
# Exhaustive reachability
# ---------------------------------------------------------------------------

@dataclass
class WitnessStep:
    monitored: dict[Location, Value]
    state: dict[Location, Value]


@dataclass
class ReachabilityReport:
    explored_states: int
    transition_count: int
    unsafe_reachable: bool
    witness: Optional[list[WitnessStep]] = None

    def to_json(self) -> str:
        payload = {
            "exploredStates": self.explored_states,
            "transitionCount": self.transition_count,
            "unsafeReachable": self.unsafe_reachable,
            "witness": None if self.witness is None else [
                {"monitored": {format_location(l): v
                               for l, v in w.monitored.items()},
                 "state": {format_location(l): v
                           for l, v in w.state.items()}}
                for w in self.witness
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _monitored_combos(program: Program, interest: set[Location]):
    locs = [l for l in program.monitored_locations()]
    branched = [l for l in locs if l in interest]
    fixed = {l: program.function(l[0]).result.values()[0]
             for l in locs if l not in interest}
    domains = [program.function(l[0]).result.values() for l in branched]
    for combo in itertools.product(*domains):
        valuation = dict(fixed)
        valuation.update(zip(branched, combo))
        yield valuation


def _space_size(program: Program, controlled: list[Location],
                ctl_restriction: Optional[int]) -> int:
    size = 1
    for loc in controlled:
        if ctl_restriction is not None and loc == program.ctl_loc:
            size *= ctl_restriction
        else:
            size *= program.function(loc[0]).result.size
    mon = 1
    for loc in program.monitored_locations():
        mon *= program.function(loc[0]).result.size
    return size * mon


def exhaustive_safety_check(
        subject: Union[Program, ProtectedProgram],
        adversarial_puf: bool = False,
        device=None,
        max_states: int = 1 << 20) -> ReachabilityReport:
    """BFS over every reachable state under every environment input and
    every nondeterministic resolution; reports whether a state satisfying
    the violation predicate is reachable, with a witness run if so.

    For a protected program the stored control value ranges over the
    enrolled responses plus the initial token; with ``adversarial_puf``
    the device response at each challenge site ranges over every enrolled
    response plus one representative unenrolled value (all unenrolled
    values behave identically), and fallback draws branch universally.
    """
    protected: Optional[ProtectedProgram] = None
    if isinstance(subject, ProtectedProgram):
        protected = subject
        program = subject.program
    else:
        program = subject

    interest = set(locations_of_interest(program))
    controlled = [l for l in interest
                  if program.function(l[0]).mode != "monitored"]
    ctl_restriction = None
    if protected is not None:
        ctl_restriction = len(protected.enrollment.transitions) + 1
    if _space_size(program, controlled, ctl_restriction) > max_states:
        raise StateSpaceTooLarge(
            f"state space exceeds {max_states} states")

    ctl_enum = None
    if protected is not None:
        if not adversarial_puf and device is None:
            raise CasmError("checking a protected program without the "
                            "adversarial model needs a device")
        ctl_enum = protected.decider.enumerator(
            None if adversarial_puf else device)

    def unsafe_state(values: dict[Location, Value]) -> bool:
        check_values = values
        if protected is not None:
            check_values = protected.decoded_values(values)
        try:
            return bool(eval_term(program.unsafe,
                                  State(values=check_values, monitored={})))
        except EvalError:
            pass
        for mon in _monitored_combos(program, interest):
            if eval_term(program.unsafe,
                         State(values=check_values, monitored=mon)):
                return True
        return False

    def key_of(values: dict[Location, Value]) -> tuple:
        return tuple(values[l] for l in controlled)

    init_values = program.initial_state().values
    init_key = key_of(init_values)
    visited: dict[tuple, Optional[tuple]] = {init_key: None}
    parents: dict[tuple, tuple] = {}
    snapshots: dict[tuple, dict[Location, Value]] = {init_key: init_values}
    frontier = [init_key]
    transition_count = 0
    unsafe_key: Optional[tuple] = None

    if unsafe_state(init_values):
        unsafe_key = init_key

    while frontier and unsafe_key is None:
        nxt: list[tuple] = []
        for state_key in frontier:
            values = snapshots[state_key]
            for mon in _monitored_combos(program, interest):
                outcomes = enumerate_step_outcomes(program, values, mon,
                                                   ctl_enum)
                transition_count += len(outcomes)
                for outcome in outcomes:
                    succ = dict(values)
                    succ.update(outcome.updates)
                    succ_key = key_of(succ)
                    if succ_key in visited:
                        continue
                    visited[succ_key] = state_key
                    parents[succ_key] = (state_key, mon)
                    snapshots[succ_key] = succ
                    nxt.append(succ_key)
                    if unsafe_state(succ):
                        unsafe_key = succ_key
                        break
                if unsafe_key is not None:
                    break
            if unsafe_key is not None:
                break
        frontier = nxt

    witness = None
    if unsafe_key is not None:
        chain: list[WitnessStep] = []
        k = unsafe_key
        while k != init_key:
            parent, mon = parents[k]
            chain.append(WitnessStep(monitored=mon, state=snapshots[k]))
            k = parent
        chain.reverse()
        witness = chain

    return ReachabilityReport(
        explored_states=len(visited),
        transition_count=transition_count,
        unsafe_reachable=unsafe_key is not None,
        witness=witness,
    )


def replay_witness(program: Program, witness: list[WitnessStep]) -> bool:
    """Re-execute a witness through the concrete runtime; valid iff every
    step reproduces the recorded state and the final state violates.
    Only deterministic (choose-free) programs replay exactly."""
    state = program.initial_state()
    for w in witness:
        result = step(program, state, w.monitored)
        if result.state.values != w.state:
            return False
        state = result.state
    return bool(eval_term(program.unsafe, state))


# ---------------------------------------------------------------------------
# Target-trace comparison
# ---------------------------------------------------------------------------

@dataclass
class TraceComparison:
    verdict: str  # "EQUAL" | "MISMATCH"
    mismatch_step: Optional[int] = None
    mismatch_location: Optional[str] = None
    fallback_count: int = 0

    @property
    def equal(self) -> bool:
        return self.verdict == "EQUAL"


def compare_target_traces(original: Program, protected: ProtectedProgram,
                          device_seed: int, steps: int,
                          oracle: MonitoredOracle, run_seed: int,
                          noise: float = 0.0) -> TraceComparison:
    """Run both programs under the same environment and compare the
    original state with the protected state decoded, step by step."""
    enrollment = protected.enrollment
    device = make_device(device_seed, enrollment.challenge_bits,
                         enrollment.response_bits, noise)
    runner = ProtectedRunner(protected, device, run_seed)
    fallbacks = 0
    orig_iter = iter_run(original, steps, oracle, run_seed)
    prot_iter = runner.iter_entries(steps, oracle)
    order = sorted(original.initial_state().values, key=str)
    for orig_entry, prot_entry in zip(orig_iter, prot_iter):
        fallbacks += prot_entry.events.count(FALLBACK_TAKEN)
        decoded = protected.decoded_values(prot_entry.state)
        if decoded != orig_entry.state:
            for loc in order:
                if decoded.get(loc) != orig_entry.state.get(loc):
                    return TraceComparison(
                        "MISMATCH", orig_entry.step, format_location(loc),
                        fallbacks)
    return TraceComparison("EQUAL", None, None, fallbacks)


# ---------------------------------------------------------------------------
# Clone divergence
# ---------------------------------------------------------------------------

@dataclass
class DivergenceReport:
    trials: int
    steps_per_trial: int
    noise: float
    safety_violations: int
    trials_diverged: int
    first_divergence_hist: dict[int, int] = field(default_factory=dict)
    fallback_rate: float = 0.0
    flagged_control_trials: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "trials": self.trials,
            "stepsPerTrial": self.steps_per_trial,
            "noise": self.noise,
            "safetyViolations": self.safety_violations,
            "trialsDiverged": self.trials_diverged,
            "firstDivergenceStep": {str(k): v for k, v in
                                    sorted(self.first_divergence_hist.items())},
            "fallbackRate": self.fallback_rate,
            "flaggedControlTrials": self.flagged_control_trials,
        }, indent=2, sort_keys=True) + "\n"


def clone_divergence_report(protected: ProtectedProgram,
                            original_trace: Trace,
                            clone_seeds: list[int], steps: int,
                            noise: float, oracle: MonitoredOracle,
                            run_seed: int) -> DivergenceReport:
    """Run the protected program on each clone device and compare the
    decoded control sequence against the original run; counts violating
    states (the pass condition is zero) and fallback frequency.

    A clone whose fingerprint matches the enrollment device is flagged
    as a control trial rather than treated as divergence evidence.
    """
    enrollment = protected.enrollment
    ctl_loc = (enrollment.ctl_name, ())
    original_ctl = [e.state[ctl_loc] for e in original_trace.entries]
    if len(original_ctl) < steps + 1:
        raise CasmError("original trace is shorter than the trial length")

    program = protected.program
    unsafe_reads_ctl = _reads_location(program.unsafe, ctl_loc)
    from .interp import compiled
    cp = compiled(program)
    unsafe_fn = None
    if not unsafe_reads_ctl:
        unsafe_fn = cp._term(program.unsafe)

    violations = 0
    diverged = 0
    hist: dict[int, int] = {}
    fallback_events = 0
    total_steps = 0
    flagged: list[int] = []
    empty: dict = {}

    for trial, seed in enumerate(clone_seeds):
        device = make_device(seed, enrollment.challenge_bits,
                             enrollment.response_bits, noise)
        if device.fingerprint() == enrollment.fingerprint:
            flagged.append(trial)
        runner = ProtectedRunner(protected, device, run_seed)
        first_div: Optional[int] = None
        for entry in runner.iter_entries(steps, oracle):
            if entry.step == 0:
                continue
            total_steps += 1
            fallback_events += entry.events.count(FALLBACK_TAKEN)
            if unsafe_fn is not None:
                if unsafe_fn(entry.state, entry.monitored, empty):
                    violations += 1
            elif protected.is_unsafe(entry.state, entry.monitored):
                violations += 1
            if first_div is None:
                decoded = enrollment.decode_stored(entry.state[ctl_loc])
                if decoded != original_ctl[entry.step]:
                    first_div = entry.step
        if first_div is not None:
            diverged += 1
            hist[first_div] = hist.get(first_div, 0) + 1

    return DivergenceReport(
        trials=len(clone_seeds),
        steps_per_trial=steps,
        noise=noise,
        safety_violations=violations,
        trials_diverged=diverged,
        first_divergence_hist=hist,
        fallback_rate=fallback_events / total_steps if total_steps else 0.0,
        flagged_control_trials=flagged,
    )


def _reads_location(term, loc: Location) -> bool:
    from .ast import App, Const, children
    if isinstance(term, App):
        if term.fn == loc[0] and \
                tuple(a.value for a in term.args
                      if isinstance(a, Const)) == loc[1] \
                and len(term.args) == len(loc[1]):
            return True
    return any(_reads_location(c, loc) for c in children(term))


# ---------------------------------------------------------------------------
# Randomized search (non-exhaustive verification)
# ---------------------------------------------------------------------------

def random_safety_search(program: Program, runs: int, steps: int,
                         base_seed: int) -> Optional[tuple[int, int]]:
    """Seeded random runs; returns (run seed, step) of the first unsafe
    state found, or None."""
    from .interp import RandomOracle
    for i in range(runs):
        oracle = RandomOracle(base_seed + i)
        for entry in iter_run(program, steps, oracle, base_seed + i):
            state = State(values=entry.state, monitored=entry.monitored)
            try:
                hit = eval_term(program.unsafe, state)
            except EvalError:
                hit = False
            if hit:
                return (base_seed + i, entry.step)
    return None
