"""Reference runtime: one checked step, the challenge-site rule
evaluated term by term, and the clone experiment run trial by trial.

``choose_ctl_state`` decides a site by evaluating ``condx`` with the
reference ``eval_term`` for each plain state, independently of the
compiled, memoized :class:`casmkit.protect.SiteDecider`, so tests can
hold the decider and protected runs against it; ``make_ctl_enumerator``
gives every result it can give at a site, for the model checker.
``step`` runs one step of the compiled engine from a reference ``State``
and checks the inputs total first; ``unmemoized_step`` is that step from
a fresh node of its own, so nothing of an earlier step is reused.
``protected_run`` chains such steps, with no memo, and decides every
site term by term at its step.  ``clone_divergence_report`` runs every
clone trial in full, with no trial sharing another's run.  ``query_at`` gives a device's response
at one site and step of a run.  ``random_valuation`` draws a random
oracle's inputs from full named streams, and ``compare_target_traces``
gives each of its two runs an oracle of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from casmkit.ast import (
    CasmError, InconsistentUpdate, Location, Program, Value, compile_term,
    format_location, reads_location,
)
from casmkit.interp import (
    CompiledProgram, CtlEnumerator, CtlResolver, MonitoredOracle, StepError,
    Trace, TraceEntry, _check_total, _Graph, compiled, iter_run, rng_picker,
)
from casmkit.protect import (
    BOUND_OK, FALLBACK_TAKEN, SAFE_STALL, ProtectedProgram, ProtectedRunner,
    SafeCondition,
)
from casmkit.puf import Enrollment, make_device
from casmkit.rng import derive_rng
from casmkit.verify import DivergenceReport, TraceComparison

from reference_walker import State, eval_term, initial_state


@dataclass
class StepResult:
    state: State
    fired: list[str]
    events: list[str]


def unmemoized_step(cp: CompiledProgram, values: dict[Location, Value],
                    monitored: dict[Location, Value], pick,
                    ctl_resolver: Optional[CtlResolver], step_index: int
                    ) -> tuple[dict[Location, Value], list[str], list[str]]:
    """Step ``step_index`` from ``values`` as a node of a fresh graph
    with no state key: the rule pass fires and the sites are staged
    anew.  Gives the next state's values, the fired rules and the
    events."""
    node, fired, events = cp.step_values(
        values, monitored, pick, ctl_resolver, step_index,
        _Graph(None).node(values), None)
    return node.values, fired, events


def step(program: Program, state: State, monitored: dict[Location, Value],
         seed: int = 0, step_index: int = 0,
         ctl_resolver: Optional[CtlResolver] = None) -> StepResult:
    """One synchronous step; the state is never partially updated."""
    _check_total(program, monitored, step_index)
    try:
        values, fired, events = unmemoized_step(
            compiled(program), state.values, monitored,
            rng_picker(seed, step_index), ctl_resolver, step_index)
    except InconsistentUpdate as exc:
        raise StepError(str(exc), step_index) from exc
    return StepResult(State(values=values, monitored=monitored), fired, events)


def safe_states(cond: SafeCondition,
                program_state_values: dict[Location, Value],
                monitored: Optional[dict] = None) -> list[Value]:
    """The plain states ``condx`` does not mark dangerous."""
    state = State(values=dict(program_state_values),
                  monitored=monitored or {})
    return [v for v in cond.plain_values
            if not eval_term(cond.cond_for(v), state)]


def site_results(response: int, safe: list[Value], current_ctl: Value,
                 enrollment: Enrollment) -> tuple[list[Value], str]:
    """The values a challenge site can take for ``response``, over every
    fallback pick, and its tag, given the site's :func:`safe_states`:
    the response when it decodes to a safe state, else the first
    encodings of the safe encodable states, else the current value."""
    decoded = None if response == enrollment.init_token \
        else enrollment.decode_stored(response)
    if decoded is not None and decoded in safe:
        return [response], BOUND_OK
    candidates = [v for v in safe if enrollment.encodings(v)]
    if not candidates:
        return [current_ctl], SAFE_STALL
    return [enrollment.encodings(v)[0] for v in candidates], FALLBACK_TAKEN


def choose_ctl_state(challenge: int, post_values: dict[Location, Value],
                     current_ctl: Value, device, enrollment: Enrollment,
                     safe_condition: SafeCondition, fallback_rng,
                     query_rng) -> tuple[Value, str]:
    """Resolve one challenge site; total by construction.

    The safety predicate is evaluated against the values this step is
    about to commit (the state the chosen control value will inhabit),
    so an accepted value can never enable a violating successor step.
    """
    values, tag = site_results(device.query(challenge, query_rng),
                               safe_states(safe_condition, post_values),
                               current_ctl, enrollment)
    if tag == FALLBACK_TAKEN:
        return values[fallback_rng.randrange(len(values))], tag
    return values[0], tag


def make_ctl_enumerator(protected: ProtectedProgram, device=None
                        ) -> CtlEnumerator:
    """The model checker's site enumeration, built term by term: every
    result :func:`choose_ctl_state` can give at a site, over every
    fallback pick, for the device's stable response, or with no device
    for each enrolled response and one unenrolled response.  Each (value,
    tag) comes once, in first-seen order, the responses in enrollment
    order."""
    enrollment = protected.enrollment
    cond = protected.safe_condition
    everyone = [t.response for t in enrollment.transitions]
    everyone.append(next(
        r for r in reversed(range(1 << enrollment.response_bits))
        if r != enrollment.init_token and enrollment.decode_stored(r) is None))

    # the safe states of each whole post-update state
    memo: dict[tuple, list[Value]] = {}

    def enumerate_site(site: str, challenge: int, post: dict,
                       current_ctl: Value) -> list[tuple[Value, str]]:
        responses = everyone if device is None \
            else [device.stable_response(challenge)]
        key = tuple(sorted(post.items(), key=repr))
        safe = memo.get(key)
        if safe is None:
            safe = memo[key] = safe_states(cond, post)
        found: dict[tuple[Value, str], None] = {}
        for response in responses:
            values, tag = site_results(response, safe, current_ctl,
                                       enrollment)
            found.update(dict.fromkeys((v, tag) for v in values))
        return list(found)

    return enumerate_site


def make_ctl_resolver(protected: ProtectedProgram, device, seed: int
                      ) -> CtlResolver:
    """A resolver that stages nothing: its staged site decides the site
    afresh, with :func:`choose_ctl_state` and full named streams, at
    every step it is called with."""
    enrollment = protected.enrollment
    cond = protected.safe_condition

    def resolver(site: str, challenge: int, post: dict,
                 current_ctl: Value):
        def at(step_index: int) -> tuple[Value, str]:
            fallback_rng = derive_rng("fallback", seed, step_index, site)
            query_rng = derive_rng("pufnoise", device.device_seed, seed,
                                   step_index, site)
            return choose_ctl_state(challenge, post, current_ctl, device,
                                    enrollment, cond, fallback_rng,
                                    query_rng)
        return at

    return resolver


def query_at(device, challenge: int, seed: int, step_index: int,
             site: str) -> int:
    """The device's response at a site of a run: the stable response
    unless ``device.flips_at`` flips it at ``step_index``."""
    flip = device.flips_at(challenge, seed, site)
    flipped = None if flip is None else flip(step_index)
    return device.stable(challenge) if flipped is None else flipped


def protected_run(protected: ProtectedProgram, device, steps: int,
                  oracle: MonitoredOracle, seed: int
                  ) -> Iterator[TraceEntry]:
    """The entries of a protected run, as a chain of unmemoized
    :func:`step` calls whose sites :func:`make_ctl_resolver` decides."""
    program = protected.program
    resolver = make_ctl_resolver(protected, device, seed)
    state = initial_state(program)
    yield TraceEntry(0, dict(state.values), {}, [], [])
    for k in range(steps):
        monitored = oracle.valuation(program, k)
        result = step(program, state, monitored, seed, k, resolver)
        state = result.state
        yield TraceEntry(k + 1, dict(state.values), dict(monitored),
                         list(result.fired), list(result.events))


def random_valuation(program: Program, seed: int, step_index: int
                     ) -> dict[Location, Value]:
    """The inputs a :class:`~casmkit.interp.RandomOracle` with ``seed``
    gives at ``step_index``: each location's first pick over its sort's
    values, from its full stream ``("monitored", seed, step, location)``."""
    out: dict[Location, Value] = {}
    for loc in program.monitored_locations():
        values = program.function(loc[0]).result.values()
        rng = derive_rng("monitored", seed, step_index, format_location(loc))
        out[loc] = values[rng.randrange(len(values))]
    return out


def compare_target_traces(original: Program, protected: ProtectedProgram,
                          device_seed: int, steps: int,
                          make_oracle: Callable[[], MonitoredOracle],
                          run_seed: int, noise: float = 0.0
                          ) -> TraceComparison:
    """:func:`casmkit.verify.compare_target_traces` with each run asking
    an oracle of its own, from ``make_oracle``, for every step's
    inputs."""
    enrollment = protected.enrollment
    device = make_device(device_seed, enrollment.challenge_bits,
                         enrollment.response_bits, noise)
    runner = ProtectedRunner(protected, device, run_seed)
    fallbacks = 0
    order = sorted(original.initial_values(), key=str)
    for orig_entry, prot_entry in zip(
            iter_run(original, steps, make_oracle(), run_seed),
            runner.iter_entries(steps, make_oracle())):
        fallbacks += prot_entry.events.count(FALLBACK_TAKEN)
        decoded = protected.decoded_values(prot_entry.state)
        for loc in order:
            if decoded.get(loc) != orig_entry.state.get(loc):
                return TraceComparison("MISMATCH", orig_entry.step,
                                       format_location(loc), fallbacks)
    return TraceComparison("EQUAL", None, None, fallbacks)


def clone_divergence_report(protected: ProtectedProgram,
                            original_trace: Trace,
                            clone_seeds: list[int], steps: int,
                            noise: float, oracle: MonitoredOracle,
                            run_seed: int) -> DivergenceReport:
    """:func:`casmkit.verify.clone_divergence_report` with every trial
    stepped in full."""
    enrollment = protected.enrollment
    ctl_loc = (enrollment.ctl_name, ())
    original_ctl = [e.state[ctl_loc] for e in original_trace.entries]
    if len(original_ctl) < steps + 1:
        raise CasmError("original trace is shorter than the trial length")

    program = protected.program
    unsafe_fn = None
    if not reads_location(program.unsafe, ctl_loc):
        unsafe_fn = compile_term(program, program.unsafe)

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
            elif eval_term(program.unsafe, State(
                    values=protected.decoded_values(entry.state),
                    monitored=entry.monitored)):
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
