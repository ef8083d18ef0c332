"""The model checker as it was before it branched only on the inputs a
step reads: every state is stepped under the whole product of the
monitored inputs of interest.  Kept as the test oracle for
:func:`casmkit.verify.exhaustive_safety_check`; its space bound still
multiplies states by input valuations, and its challenge sites are
enumerated term by term (``reference_runtime.make_ctl_enumerator``), not
by the engine's :class:`~casmkit.protect.SiteDecider`."""
from __future__ import annotations

import itertools
from typing import Optional, Union

from casmkit.ast import (
    CasmError, EvalError, Location, Program, Value, locations_of_interest,
)
from casmkit.interp import compiled, enumerate_step_outcomes
from casmkit.protect import ProtectedProgram
from casmkit.verify import ReachabilityReport, StateSpaceTooLarge, WitnessStep

from reference_runtime import make_ctl_enumerator
from reference_walker import State, eval_term


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
        ctl_enum = make_ctl_enumerator(protected,
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

    cp = compiled(program)
    init_values = program.initial_values()
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
                outcomes = enumerate_step_outcomes(cp, values, mon, ctl_enum)
                transition_count += len(outcomes)
                for updates in outcomes:
                    succ = dict(values)
                    succ.update(updates)
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
