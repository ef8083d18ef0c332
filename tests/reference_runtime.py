"""Reference runtime: one checked step, and the challenge-site rule
evaluated term by term.

``choose_ctl_state`` decides a site by evaluating ``condx`` with
``eval_term`` for each plain state, independently of the compiled,
memoized :class:`casmkit.protect.SiteDecider`, so tests can hold the
decider and protected runs against it.  ``step`` runs one step of the
compiled engine from a :class:`~casmkit.ast.State` and checks the inputs
total first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from casmkit.ast import (
    InconsistentUpdate, Location, Program, State, Value, eval_term,
)
from casmkit.interp import (
    CtlResolver, StepError, _check_total, compiled, rng_picker,
)
from casmkit.protect import (
    BOUND_OK, FALLBACK_TAKEN, SAFE_STALL, ProtectedProgram, SafeCondition,
)
from casmkit.puf import Enrollment
from casmkit.rng import derive_rng


@dataclass
class StepResult:
    state: State
    fired: list[str]
    events: list[str]


def step(program: Program, state: State, monitored: dict[Location, Value],
         seed: int = 0, step_index: int = 0,
         ctl_resolver: Optional[CtlResolver] = None) -> StepResult:
    """One synchronous step; the state is never partially updated."""
    _check_total(program, monitored, step_index)
    cp = compiled(program)
    try:
        values, fired, events = cp.step_values(
            state.values, monitored, rng_picker(seed, step_index), ctl_resolver)
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


def choose_ctl_state(challenge: int, post_values: dict[Location, Value],
                     current_ctl: Value, device, enrollment: Enrollment,
                     safe_condition: SafeCondition, fallback_rng,
                     query_rng) -> tuple[Value, str]:
    """Resolve one challenge site; total by construction.

    The safety predicate is evaluated against the values this step is
    about to commit (the state the chosen control value will inhabit),
    so an accepted value can never enable a violating successor step.
    """
    response = device.query(challenge, query_rng)
    decoded = enrollment.decode(response)
    state = State(values=post_values, monitored={})
    if decoded is not None and \
            not eval_term(safe_condition.cond_for(decoded), state):
        return response, BOUND_OK
    candidates = [v for v in safe_condition.plain_values
                  if enrollment.encodings(v)
                  and not eval_term(safe_condition.cond_for(v), state)]
    if not candidates:
        return current_ctl, SAFE_STALL
    chosen = candidates[fallback_rng.randrange(len(candidates))]
    return enrollment.encodings(chosen)[0], FALLBACK_TAKEN


def make_ctl_resolver(protected: ProtectedProgram, device, seed: int,
                      step_index: int):
    enrollment = protected.enrollment
    cond = protected.safe_condition

    def resolver(site: str, challenge: int, post: dict,
                 current_ctl: Value) -> tuple[Value, str]:
        fallback_rng = derive_rng("fallback", seed, step_index, site)
        query_rng = derive_rng("pufnoise", device.device_seed, seed,
                               step_index, site)
        return choose_ctl_state(challenge, post, current_ctl, device,
                                enrollment, cond, fallback_rng, query_rng)

    return resolver
