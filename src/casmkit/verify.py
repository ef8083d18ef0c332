"""Independent oracles and experiments.

Exhaustive breadth-first reachability over the full transition relation
(every valuation of the monitored inputs a step can read, every
nondeterministic resolution explored) backs the safety claims of the
transformation; trace comparison and clone statistics realize the
target/replica experiments.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .ast import (
    CasmError, EvalError, Location, Program, Value, format_location,
)
from .interp import (
    CompiledProgram, ConstantOracle, CtlEnumerator, MonitoredOracle,
    RandomOracle, Trace, _Graph, _Step, check_step_count,
    compiled, drive, enumerate_step_outcomes, iter_run, location_key,
)
from .protect import (
    FALLBACK_TAKEN, SAFE_STALL, ProtectedProgram, ProtectedRunner,
)
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


class _InputProduct:
    """The eager product of the inputs of interest, cut down to those in
    ``read``; the others stay at their first value.

    Each combination of the read inputs stands for every eager valuation
    that agrees with it on them.  Its first such valuation, the unread
    inputs at their first value, comes in the combination's order, so
    successors, parents and witnesses come out as from the whole
    product."""

    def __init__(self, branched: tuple[Location, ...],
                 domains: dict[Location, tuple[Value, ...]],
                 fixed: dict[Location, Value], read: frozenset):
        self.spots = [i for i, l in enumerate(branched) if l in read]
        # tail[i]: the number of valuations of the unread inputs from i on
        self.tail = tail = [1] * (len(branched) + 1)
        for i in reversed(range(len(branched))):
            l = branched[i]
            tail[i] = tail[i + 1] * (1 if l in read else len(domains[l]))
        # each combination, its valuation of every branched input, and
        # the step's inputs under that valuation
        self.combos: list[tuple[tuple, tuple, dict[Location, Value]]] = []
        valuation = [domains[l][0] for l in branched]
        for combo in itertools.product(*(domains[branched[i]]
                                         for i in self.spots)):
            for i, v in zip(self.spots, combo):
                valuation[i] = v
            mon = dict(fixed)
            mon.update(zip(branched, valuation))
            self.combos.append((combo, tuple(valuation), mon))

    def transitions(self, counts: list[tuple[tuple, int]],
                    stopped: bool) -> int:
        """The eager transition count of the combinations stepped, in
        order, with their outcome counts.  When the search ``stopped`` at
        the last one, the eager product stopped at its first valuation,
        so of each earlier combination only the valuations before that
        one count."""
        if not stopped:
            return self.tail[0] * sum(n for _, n in counts)
        last, total = counts[-1]
        for combo, n in counts[:-1]:
            p = next(k for k, (a, b) in enumerate(zip(combo, last)) if a != b)
            total += n * self.tail[self.spots[p] + 1]
        return total


class _ReadInputs(dict):
    """A step's inputs that note each location the step reads."""

    __slots__ = ("read",)

    def __getitem__(self, loc):
        self.read[loc] = None
        return dict.__getitem__(self, loc)


def _eval_error(exc: KeyError) -> EvalError:
    """The error for a compiled term that raised ``exc``: it read a
    variable its environment does not bind or a location its state and
    inputs lack."""
    (key,) = exc.args
    if isinstance(key, str):
        return EvalError(f"unbound variable {key}")
    return EvalError(f"unknown location {format_location(key)}")


def _unsafe_verdict(cp: CompiledProgram,
                    decode: Optional[Callable[[dict], dict]] = None
                    ) -> Callable[[dict[Location, Value]], bool]:
    """The checker's verdict on a state's values: the violation predicate
    holds under some valuation of the inputs it reads, the other inputs
    at their first value.  The predicate is tried first without inputs;
    ``decode`` is as for :meth:`CompiledProgram.unsafe_test`.  A
    predicate that no valuation can evaluate raises :class:`EvalError`."""
    unsafe_test = cp.unsafe_test(decode)
    inputs = _InputProduct(*cp.input_split, cp.unsafe_reads)
    empty: dict = {}

    def unsafe_state(values: dict[Location, Value]) -> bool:
        try:
            return unsafe_test(values, empty)
        except KeyError:
            pass
        try:
            return any(unsafe_test(values, mon)
                       for _, _, mon in inputs.combos)
        except KeyError as exc:
            raise _eval_error(exc) from None
    return unsafe_state


def _subject(subject: Union[Program, ProtectedProgram],
             adversarial_puf: bool, device
             ) -> tuple[Program, Optional[Callable[[dict], dict]],
                        Optional[CtlEnumerator]]:
    """The program to step, the decoding of its states for the
    violation predicate and the enumerator of its challenge sites: for
    a protected program, its decoded values and its sites over every
    response with ``adversarial_puf``, else over ``device``'s."""
    if not isinstance(subject, ProtectedProgram):
        return subject, None, None
    if not adversarial_puf and device is None:
        raise CasmError("checking a protected program without the "
                        "adversarial model needs a device")
    return subject.program, subject.decoded_values, \
        subject.decider.enumerator(None if adversarial_puf else device)


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

    A state is stepped under each valuation of the monitored inputs its
    step reads; the other inputs stay at their first value, and each
    outcome counts once per valuation of them.  The inputs a step reads
    are learnt from its own runs: the first run has every input at its
    first value, and when a run reads an input outside the set so far,
    the set grows and the state's valuations are taken again over it,
    each valuation stepped once.  A run that raises raises when its
    valuation's turn comes.  Report, witness and transition count are
    those of stepping under the whole input product.  ``max_states``
    bounds the number of states visited, not states times input
    valuations: one more raises :class:`StateSpaceTooLarge`.
    """
    program, decode, ctl_enum = _subject(subject, adversarial_puf, device)
    cp = compiled(program)
    key_of = cp.controlled_key
    branched, domains, fixed = cp.input_split
    products: dict[frozenset, _InputProduct] = {}

    def product(read: frozenset) -> _InputProduct:
        inputs = products.get(read)
        if inputs is None:
            inputs = products[read] = _InputProduct(branched, domains,
                                                    fixed, read)
        return inputs

    unsafe_state = _unsafe_verdict(cp, decode)

    def step_state(values: dict[Location, Value]):
        """The product of the inputs the step reads, and each of its
        valuations' outcomes (or exception)."""
        runs: dict[tuple, object] = {}
        read: frozenset = frozenset()
        while True:
            inputs = product(read)
            for _, valuation, mon in inputs.combos:
                if valuation in runs:
                    continue
                reading = _ReadInputs(mon)
                reading.read = {}
                try:
                    outcome = enumerate_step_outcomes(cp, values, reading,
                                                      ctl_enum)
                except (CasmError, KeyError) as exc:
                    # raised when its valuation's turn comes, after the
                    # successors of every valuation before it
                    outcome = exc
                runs[valuation] = outcome
                grown = [l for l in reading.read
                         if l in domains and l not in read]
                if grown:
                    read = read.union(grown)
                    break
            else:
                return inputs, runs

    parents: dict[object, tuple] = {}
    snapshots: dict[object, dict[Location, Value]] = {}

    def visit(key, values: dict[Location, Value]) -> None:
        if len(snapshots) >= max_states:
            raise StateSpaceTooLarge(
                f"state space exceeds {max_states} states")
        snapshots[key] = values

    init_values = program.initial_values()
    init_key = key_of(init_values)
    visit(init_key, init_values)
    frontier = [init_key]
    transition_count = 0
    unsafe_key: Optional[object] = None

    if unsafe_state(init_values):
        unsafe_key = init_key

    while frontier and unsafe_key is None:
        nxt: list = []
        for state_key in frontier:
            values = snapshots[state_key]
            inputs, runs = step_state(values)
            counts: list[tuple[tuple, int]] = []
            for combo, valuation, mon in inputs.combos:
                outcomes = runs[valuation]
                if isinstance(outcomes, BaseException):
                    raise outcomes
                counts.append((combo, len(outcomes)))
                for updates in outcomes:
                    succ = dict(values)
                    succ.update(updates)
                    succ_key = key_of(succ)
                    if succ_key in snapshots:
                        continue
                    visit(succ_key, succ)
                    parents[succ_key] = (state_key, mon)
                    nxt.append(succ_key)
                    if unsafe_state(succ):
                        unsafe_key = succ_key
                        break
                if unsafe_key is not None:
                    break
            transition_count += inputs.transitions(
                counts, unsafe_key is not None)
            if unsafe_key is not None:
                break
        frontier = nxt

    witness = None
    if unsafe_key is not None:
        chain: list[WitnessStep] = []
        k = unsafe_key
        while k != init_key:
            parent, mon = parents[k]
            chain.append(WitnessStep(monitored=dict(mon),
                                     state=snapshots[k]))
            k = parent
        chain.reverse()
        witness = chain

    return ReachabilityReport(
        explored_states=len(snapshots),
        transition_count=transition_count,
        unsafe_reachable=unsafe_key is not None,
        witness=witness,
    )


def replay_witness(subject: Union[Program, ProtectedProgram],
                   witness: list[WitnessStep],
                   adversarial_puf: bool = False, device=None) -> bool:
    """Re-check a witness against the checker's own step: valid iff each
    recorded state is the previous one (the initial state first) with
    the updates of one outcome of :func:`enumerate_step_outcomes` under
    the recorded inputs, and the checker's verdict marks the final state
    unsafe.  The outcomes range over every ``choose`` draw, so a witness
    of a program that draws replays too.  A protected program's sites
    range as in :func:`exhaustive_safety_check` with the same
    ``adversarial_puf`` and ``device``, and its final state is judged
    decoded."""
    program, decode, ctl_enum = _subject(subject, adversarial_puf, device)
    cp = compiled(program)
    values = program.initial_values()
    for w in witness:
        if not any({**values, **updates} == w.state for updates in
                   enumerate_step_outcomes(cp, values, w.monitored,
                                           ctl_enum)):
            return False
        values = w.state
    return _unsafe_verdict(cp, decode)(values)


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


class _StepInputs(MonitoredOracle):
    """One valuation per step for runs stepped in lockstep: the first
    run to ask for step ``k`` draws its inputs for ``program``, and every
    run gets that dict.  It serves only programs whose
    :attr:`~casmkit.interp.CompiledProgram.input_sorts` equal
    ``program``'s, for which the oracle would draw the same inputs."""

    def __init__(self, oracle: MonitoredOracle, program: Program):
        self._oracle = oracle
        self._program = program
        self._step: Optional[int] = None
        self._inputs: dict[Location, Value] = {}

    def valuation(self, program, step_index):
        if step_index != self._step:
            self._inputs = self._oracle.valuation(self._program, step_index)
            self._step = step_index
        return self._inputs


def compare_target_traces(original: Program, protected: ProtectedProgram,
                          device_seed: int, steps: int,
                          oracle: MonitoredOracle, run_seed: int,
                          noise: float = 0.0) -> TraceComparison:
    """Run both programs under the same environment and compare the
    original state with the protected state decoded, step by step.

    When both programs have the same monitored locations and sorts, as
    every artifact :func:`~casmkit.protect.protect` writes does, each
    step's inputs are drawn once and given to both runs; otherwise each
    run draws its own.  A :class:`~casmkit.interp.ConstantOracle` gives
    both runs its one dict either way, and goes to them as it is, so
    each run reads it once (:func:`~casmkit.interp.iter_run`).

    When both programs are ``choose``-free, both runs intern their
    states (:class:`~casmkit.interp._Graph`), so each distinct pair of
    states is decoded and compared once: the verdict is kept by the
    pair's ids, and the memo keeps both states alive, so no id is
    reused.  A program that draws makes a fresh state each step, which
    is compared at that step.  A negative step count is refused."""
    check_step_count(steps)
    enrollment = protected.enrollment
    device = make_device(device_seed, enrollment.challenge_bits,
                         enrollment.response_bits, noise)
    runner = ProtectedRunner(protected, device, run_seed)
    if type(oracle) is not ConstantOracle and \
            compiled(original).input_sorts == \
            compiled(protected.program).input_sorts:
        oracle = _StepInputs(oracle, original)
    fallbacks = 0
    orig_iter = iter_run(original, steps, oracle, run_seed)
    prot_iter = runner.iter_entries(steps, oracle)
    order = sorted(original.initial_values(), key=str)

    def mismatch(orig_state: dict, prot_state: dict) -> Optional[str]:
        """The first location, in name order, where the decoded state
        differs from the original's, formatted; ``None`` if none does."""
        decoded = protected.decoded_values(prot_state)
        if decoded != orig_state:
            for loc in order:
                if decoded.get(loc) != orig_state.get(loc):
                    return format_location(loc)
        return None

    # (id of the original state, id of the protected state) -> the two
    # states, kept alive, and their mismatch
    memo: Optional[dict[tuple[int, int], tuple]] = \
        {} if compiled(original).choose_free and \
        compiled(protected.program).choose_free else None
    for orig_entry, prot_entry in zip(orig_iter, prot_iter):
        fallbacks += prot_entry.events.count(FALLBACK_TAKEN)
        orig_state, prot_state = orig_entry.state, prot_entry.state
        if memo is None:
            loc = mismatch(orig_state, prot_state)
        else:
            key = id(orig_state), id(prot_state)
            held = memo.get(key)
            if held is None:
                held = memo[key] = (orig_state, prot_state,
                                    mismatch(orig_state, prot_state))
            loc = held[2]
        if loc is not None:
            return TraceComparison("MISMATCH", orig_entry.step, loc,
                                   fallbacks)
    return TraceComparison("EQUAL", None, None, fallbacks)


def decoded_target_run(protected: ProtectedProgram, device, steps: int,
                       oracle: MonitoredOracle, seed: int
                       ) -> tuple[Trace, int, int]:
    """The run of ``protected`` on ``device`` as a trace of decoded
    states, a reference for :func:`clone_divergence_report`, with the
    fallbacks and safe stalls it takes.  A ``choose``-free program's run
    interns its states (:class:`~casmkit.interp._Graph`), so each
    distinct state is decoded once and the state column shares the
    decoded dict; the memo, keyed by the state's id, keeps the state
    alive, so no id is reused.  The run adds each step's decoded state
    and its other objects to the trace's columns itself, once per step
    (:meth:`~casmkit.interp.Trace.of_run`), and an entry read from the
    trace owns a copy of each field it hands out
    (:class:`~casmkit.interp.Trace`).  A negative step count is
    refused."""
    check_step_count(steps)
    memo: Optional[dict[int, tuple[dict, dict]]] = \
        {} if compiled(protected.program).choose_free else None
    decode = protected.decoded_values
    counts = [0, 0]  # fallbacks, stalls

    def decoded_run(row):
        def decoded_row(step, state, monitored, fired, events):
            counts[0] += events.count(FALLBACK_TAKEN)
            counts[1] += events.count(SAFE_STALL)
            if memo is None:
                decoded = decode(state)
            else:
                held = memo.get(id(state))
                if held is None:
                    held = memo[id(state)] = state, decode(state)
                decoded = held[1]
            row(step, decoded, monitored, fired, events)
        return ProtectedRunner(protected, device, seed).iter_entries(
            steps, oracle, None, decoded_row)

    trace = Trace.of_run(decoded_run)
    return trace, *counts


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


def _settled_fallbacks(cp: CompiledProgram, sites: CtlEnumerator,
                       monitored: dict[Location, Value],
                       values: dict[Location, Value],
                       unsafe: Callable[[dict, dict], bool],
                       budget: int) -> Optional[int]:
    """The fallbacks each step resolves from ``values`` on, when a run of
    the ``choose``-free ``cp`` on a noise-free device under the constant
    inputs ``monitored`` has settled there; else ``None``.

    The run has settled when every state it can reach from ``values``,
    that state included, is safe, every step from those states resolves
    one number of fallbacks, and no such step raises.  A step from a
    state is the rule pass of :class:`~casmkit.interp._Step` and, for
    each of its sites, every value ``sites``, the device's
    :meth:`~casmkit.protect.SiteDecider.enumerator`, gives it, all with
    one tag; the run's draws pick among those, so its remaining steps
    give that many fallbacks each and no violation.  ``None`` as well
    when more than ``budget`` states are reachable."""
    graph = _Graph(cp.state_key)
    todo = [graph.node(values)]
    rate: Optional[int] = None
    try:
        while todo:
            values = todo.pop().values
            if unsafe(values, monitored):
                return None
            step = _Step(cp.ctl_loc, values,
                         *cp.fire_rules(values, monitored, None))
            staged = step._stage(sites)
            fallbacks = [o[0][1] for o in staged].count(FALLBACK_TAKEN)
            if rate is None:
                rate = fallbacks
            elif fallbacks != rate:
                return None
            for resolved in itertools.product(
                    *([value for value, _ in o] for o in staged)):
                known = len(graph)
                node = step._successor(
                    resolved[0] if len(resolved) == 1 else resolved, graph)
                if len(graph) > known:
                    if len(graph) > budget:
                        return None
                    todo.append(node)
    except (CasmError, KeyError):
        # the walk raises where it reaches such a step
        return None
    return rate


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

    Trials share a run when their devices are noise-free and have equal
    :meth:`~casmkit.protect.SiteDecider.device_key` keys: the same
    responses to the program's challenges where a response decodes, and
    a response that decodes to nothing at the same challenges.  Such a
    device reaches the run only through those responses, and every
    trial draws the same fallbacks and inputs, so these trials step
    alike.  The shared run's counts and first divergence are added once
    per trial, as if each trial had run.

    A trial on a noisy device follows the run of its noise-free twin,
    the device of the same seed at noise 0, whose key is the trial's:
    where the trial's noise coin does not fire, a site gives what the
    twin's gives, and where it fires, the result changes only if the
    flipped response changes the site's rule.  In a noisy report the
    shared run leads all the trials of its key and draws their coins as
    it resolves each site
    (:meth:`~casmkit.protect.ProtectedRunner.iter_entries`); it stops
    at the entry where its last trial departs.  A trial that follows
    to the end adds the shared run's counts; any other trial runs in
    full.

    A run stops early, too, once it has settled
    (:func:`_settled_fallbacks`): every state it can still reach is
    safe and every step from them takes the same number of fallbacks,
    which it adds for each step left.  The check is made once, at the
    run's first divergence, and only for a noise-free device, a
    ``choose``-free program (whose run interns its states) and inputs
    that are a :class:`~casmkit.interp.ConstantOracle` (checked by
    type).  A noisy report's shared run is its twin's, on a noise-free
    device, so it settles too: its counts are then fixed, and it yields
    no more entries.  It is driven on over the states it has reached
    (:func:`~casmkit.interp.drive`), only to draw its trials' coins,
    until the last trial departs or the run ends.  The reference run's
    control value is read only up to each trial's first divergence, from
    the state column of its trace (:class:`~casmkit.interp.Trace`), which
    copies nothing for the report.  A negative step count is refused.
    """
    check_step_count(steps)
    enrollment = protected.enrollment
    ctl_loc = (enrollment.ctl_name, ())
    reference = original_trace.states
    if len(reference) < steps + 1:
        raise CasmError("original trace is shorter than the trial length")

    cp = compiled(protected.program)
    unsafe = cp.unsafe_test(protected.decoded_values)
    read_inputs = tuple(l for l, _ in cp.input_sorts if l in cp.unsafe_reads)
    inputs_key = location_key(read_inputs) if read_inputs else None
    # a choose-free run interns its states (interp._Graph): each distinct
    # state is one dict, which the run's graph keeps alive, so its id
    # names the state for the whole trial
    interned = cp.choose_free
    settles = interned and type(oracle) is ConstantOracle

    def run_trial(device, followers: Optional[dict] = None
                  ) -> tuple[int, int, int, Optional[int]]:
        """Steps, fallbacks, violating states and first divergence step
        of one trial, whose run leads ``followers`` and stops when none
        is left.  On a noise-free device the run stops, too, where it
        has settled; a run that leads followers is then driven on
        without entries, as long as one follows, so that their coins
        are drawn.  The violation predicate is evaluated once per
        distinct state, and inputs when it reads any."""
        entries = ProtectedRunner(protected, device, run_seed).iter_entries(
            steps, oracle, followers)
        may_settle = settles and device.noise_rate <= 0.0
        total = fallbacks = violations = 0
        first_div: Optional[int] = None
        verdicts: dict[object, bool] = {}
        for entry in entries:
            if entry.step == 0:
                continue
            total += 1
            fallbacks += entry.events.count(FALLBACK_TAKEN)
            state = entry.state
            if interned:
                key = id(state) if inputs_key is None else \
                    (id(state), inputs_key(entry.monitored))
                hit = verdicts.get(key)
                if hit is None:
                    hit = verdicts[key] = unsafe(state, entry.monitored)
            else:
                hit = unsafe(state, entry.monitored)
            if hit:
                violations += 1
            if first_div is None:
                decoded = enrollment.decode_stored(state[ctl_loc])
                if decoded != reference[entry.step][ctl_loc]:
                    first_div = entry.step
                    left = steps - first_div
                    if may_settle and left:
                        rate = _settled_fallbacks(
                            cp, decider.enumerator(device), entry.monitored,
                            state, unsafe, left)
                        if rate is not None:
                            fallbacks += rate * left
                            total = steps
                            if followers:
                                drive(entries, followers)
                            break
            if followers is not None and not followers:
                break
        return total, fallbacks, violations, first_div

    decider = protected.decider
    challenges = protected.challenges
    bits = enrollment.challenge_bits, enrollment.response_bits
    # device key -> its trials, in seed order
    groups: dict[tuple, list[int]] = {}
    flagged: list[int] = []
    for trial, seed in enumerate(clone_seeds):
        device = make_device(seed, *bits, noise)
        if device.fingerprint() == enrollment.fingerprint:
            flagged.append(trial)
        groups.setdefault(decider.device_key(device, challenges),
                          []).append(trial)

    violations = diverged = fallback_events = total_steps = 0
    hist: dict[int, int] = {}
    for trials in groups.values():
        followers = {t: make_device(clone_seeds[t], *bits, noise)
                     for t in trials} if noise > 0.0 else None
        led = run_trial(make_device(clone_seeds[trials[0]], *bits),
                        followers)
        for trial in trials:
            if followers is None or trial in followers:
                result = led
            else:
                result = run_trial(make_device(clone_seeds[trial], *bits,
                                               noise))
            trial_steps, fallbacks, trial_violations, first_div = result
            total_steps += trial_steps
            fallback_events += fallbacks
            violations += trial_violations
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


# ---------------------------------------------------------------------------
# Randomized search (non-exhaustive verification)
# ---------------------------------------------------------------------------

def random_safety_search(program: Program, runs: int, steps: int,
                         base_seed: int) -> Optional[tuple[int, int]]:
    """Seeded random runs; returns (run seed, step) of the first unsafe
    state found, or None."""
    unsafe = compiled(program).unsafe_test()
    for i in range(runs):
        oracle = RandomOracle(base_seed + i)
        for entry in iter_run(program, steps, oracle, base_seed + i):
            try:
                hit = unsafe(entry.state, entry.monitored)
            except KeyError:
                hit = False
            if hit:
                return (base_seed + i, entry.step)
    return None
