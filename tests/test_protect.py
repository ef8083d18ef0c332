import itertools

import pytest

from casmkit.ast import (
    App, ChooseCtl, Cond, Const, Member, State, Update, eval_term,
    iter_rules, validate_program,
)
from casmkit.interp import ConstantOracle, RandomOracle, step
from casmkit.parser import parse_or_raise, parse_program
from casmkit.protect import (
    AmbiguousSource, BOUND_OK, FALLBACK_TAKEN, SAFE_STALL, ProtectedRunner,
    SafeCondition, SiteDecider, choose_ctl_state, compute_transition_set,
    derive_safe_condition, load_protected, protect, rewrite_program,
    run_protected,
)
from casmkit.puf import EnrollmentExhausted, make_device
from casmkit.rng import derive_rng

PHASE = ("phase", ())
PHASES = ("Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1")
TRAFFIC_A = (("Stop1Stop2", "Go1Stop2"), ("Go1Stop2", "Stop2Stop1"),
             ("Stop2Stop1", "Go2Stop1"), ("Go2Stop1", "Stop1Stop2"))


@pytest.fixture(scope="module")
def protected_traffic(traffic):
    device = make_device(42, 16, 16, 0.0)
    protected, enrollment = protect(traffic, device)
    return protected, enrollment, device


class TestTransitionSet:
    def test_traffic_light_extracts_the_four_pairs(self, traffic):
        tset = compute_transition_set(traffic)
        assert tset.pairs == TRAFFIC_A
        assert len(tset.sites) == 4
        assert all(len(s.sources) == 1 for s in tset.sites)
        assert set(tset.call_sites()) == set(TRAFFIC_A)

    def test_self_loop(self):
        program = parse_or_raise("""\
asm loop
enum Mode = { One }
controlled mode : Mode init One
ctlstate mode
unsafe false

rule r1:
  if mode = One then
    mode := One
  endif
""")
        tset = compute_transition_set(program)
        assert tset.pairs == (("One", "One"),)

    def test_membership_guard_contributes_all_members(self):
        program = parse_or_raise("""\
asm multi
enum Mode = { One, Two, Three }
controlled mode : Mode init One
ctlstate mode
unsafe false

rule r:
  if mode in { One, Two } then
    mode := Three
  endif
""")
        tset = compute_transition_set(program)
        assert set(tset.pairs) >= {("One", "Three"), ("Two", "Three")}
        # cross-check: transitions observed by running from every state
        # are contained in the computed set
        observed = set()
        for start in ("One", "Two", "Three"):
            state = program.initial_state()
            state.values[("mode", ())] = start
            result = step(program, state, {})
            nxt = result.state.values[("mode", ())]
            if nxt != start:
                observed.add((start, nxt))
        assert observed <= set(tset.pairs)

    def test_else_branch_refines_by_complement(self, traffic):
        # the inner conditional's else branch pins the remaining phase
        tset = compute_transition_set(traffic)
        by_rule = {}
        for site in tset.sites:
            by_rule.setdefault(site.rule, []).append(site)
        assert by_rule["lane1"][1].sources == ("Go1Stop2",)
        assert by_rule["lane2"][1].sources == ("Go2Stop1",)

    def test_undominated_update_is_ambiguous(self):
        from casmkit.ast import FunctionDecl, NamedRule, Program, Sort, \
            make_init, BOOL
        mode = Sort("Mode", "enum", ("A", "B"))
        program = Program(
            name="bad", sorts=(mode,),
            functions=(FunctionDecl("mode", (), mode, "controlled",
                                    make_init({(): "A"})),
                       FunctionDecl("go", (), BOOL, "controlled",
                                    make_init({(): True})),),
            named_rules=(),
            main_rules=(NamedRule("r", (), (
                Cond(App("go", ()), (Update("mode", (), Const("B")),)),)),),
            ctl_name="mode", unsafe=Const(False))
        with pytest.raises(AmbiguousSource):
            compute_transition_set(program)


class TestSafeCondition:
    def test_reproduces_published_predicate(self, traffic):
        cond = derive_safe_condition(traffic)
        from casmkit.ast import And, Not, Or, Var
        x = Var("x")
        gl1 = App("GoLight", (Const(1),))
        gl2 = App("GoLight", (Const(2),))
        published = Or(
            And(Member(x, ("Stop1Stop2", "Go1Stop2")), And(Not(gl1), gl2)),
            And(Member(x, ("Stop2Stop1", "Go2Stop1")), And(Not(gl2), gl1)))
        from casmkit.symexec import subst_term
        base = traffic.initial_state().values
        for xv, g1, g2 in itertools.product(PHASES, (False, True),
                                            (False, True)):
            values = dict(base)
            values[("GoLight", (1,))] = g1
            values[("StopLight", (1,))] = not g1
            values[("GoLight", (2,))] = g2
            values[("StopLight", (2,))] = not g2
            state = State(values=values, monitored={})
            mine = eval_term(cond.cond_for(xv), state)
            ref = eval_term(subst_term(published, {x: Const(xv)}), state)
            assert mine == ref, (xv, g1, g2)

    def test_all_red_admits_every_phase(self, traffic):
        cond = derive_safe_condition(traffic)
        assert cond.safe_states(traffic.initial_state().values) == \
            list(PHASES)

    def test_one_go_light_restricts_to_its_side(self, traffic):
        cond = derive_safe_condition(traffic)
        values = dict(traffic.initial_state().values)
        values[("GoLight", (1,))] = True
        values[("StopLight", (1,))] = False
        assert cond.safe_states(values) == ["Stop1Stop2", "Go1Stop2"]

    def test_soundness_exhaustively(self, traffic):
        # an admitted next state never enables a violating step, from any
        # light configuration satisfying the declared pairing constraints
        # (which every reachable state does: the toggles preserve them),
        # under any environment
        cond = derive_safe_condition(traffic)
        monitored_locs = traffic.monitored_locations()
        for g1, g2 in itertools.product((False, True), repeat=2):
            if g1 and g2:
                continue  # already violating: the gate never runs there
            values = dict(traffic.initial_state().values)
            values[("GoLight", (1,))] = g1
            values[("StopLight", (1,))] = not g1
            values[("GoLight", (2,))] = g2
            values[("StopLight", (2,))] = not g2
            for x in cond.safe_states(values):
                start = State(values=dict(values), monitored={})
                start.values[PHASE] = x
                for env in itertools.product((False, True),
                                             repeat=len(monitored_locs)):
                    result = step(traffic, start,
                                  dict(zip(monitored_locs, env)))
                    assert not (result.state.values[("GoLight", (1,))]
                                and result.state.values[("GoLight", (2,))])


class TestRewrite:
    def test_four_challenge_sites_and_encoded_guards(self, protected_traffic):
        protected, enrollment, _ = protected_traffic
        program = protected.program
        sites = [r for nr in program.main_rules
                 for r, _ in iter_rules(nr.body)
                 if isinstance(r, ChooseCtl)]
        assert len(sites) == 4
        assert {s.challenge for s in sites} == \
            {t.challenge for t in enrollment.transitions}
        # no plain control-state updates survive
        for nr in program.main_rules + program.named_rules:
            for r, _ in iter_rules(nr.body):
                assert not (isinstance(r, Update) and r.fn == "phase")
        # both top-level guards test encoded membership
        for nr in program.main_rules:
            guard = nr.body[0].guard
            members = [t for t, _ in _walk(guard) if isinstance(t, Member)
                       and t.item == App("phase", ())]
            assert members
            for m in members:
                assert all(isinstance(v, int) for v in m.values)

    def test_control_sort_is_widened_and_token_initialized(
            self, protected_traffic):
        protected, enrollment, _ = protected_traffic
        ctl = protected.program.ctl
        assert ctl.result.kind == "int"
        assert ctl.result.hi == (1 << 16) - 1
        assert protected.program.initial_ctl() == enrollment.init_token

    def test_initial_token_accepted_by_initial_guard(self, protected_traffic):
        protected, enrollment, _ = protected_traffic
        guard = protected.program.main_rules[0].body[0].guard
        members = [t for t, _ in _walk(guard) if isinstance(t, Member)
                   and t.item == App("phase", ())]
        assert any(enrollment.init_token in m.values for m in members)

    def test_round_trip_revalidates(self, protected_traffic):
        protected, _, _ = protected_traffic
        text = protected.source_text()
        result = parse_program(text)
        assert result.ok, [d.render() for d in result.diagnostics]
        assert result.extras is not None
        assert result.extras.condx is not None
        assert validate_program(result.program, protected=True) == []

    def test_program_without_transitions_only_widens(self):
        program = parse_or_raise("""\
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
""")
        device = make_device(5, 8, 8, 0.0)
        protected, enrollment = protect(program, device)
        assert enrollment.transitions == ()
        assert protected.warnings
        assert protected.program.ctl.result.kind == "int"
        sites = [r for nr in protected.program.main_rules
                 for r, _ in iter_rules(nr.body) if isinstance(r, ChooseCtl)]
        assert sites == []

    def test_idempotent_artifacts(self, traffic, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            device = make_device(42, 16, 16, 0.0)
            protected, _ = protect(traffic, device)
            protected.save(str(out))
        assert (out_a / "protected.casm").read_bytes() == \
            (out_b / "protected.casm").read_bytes()
        assert (out_a / "enrollment.json").read_bytes() == \
            (out_b / "enrollment.json").read_bytes()


def _walk(term):
    from casmkit.ast import children
    yield term, None
    for c in children(term):
        yield from _walk(c)


def _decided(protected, cond, device, challenge, post, current_ctl):
    """The site decider's answer for the reference call's inputs."""
    decider = SiteDecider(protected.program, protected.enrollment, cond)
    return decider.decide(device.query(challenge), post, current_ctl,
                          derive_rng("t1").randrange)


class TestChooseCtlState:
    def test_target_device_binds(self, traffic, protected_traffic):
        protected, enrollment, device = protected_traffic
        cond = protected.safe_condition
        site = enrollment.transitions[0]  # Stop1Stop2 -> Go1Stop2
        post = dict(protected.program.initial_state().values)
        post[("GoLight", (1,))] = True
        post[("StopLight", (1,))] = False
        value, tag = choose_ctl_state(
            site.challenge, post, enrollment.init_token, device, enrollment,
            cond, derive_rng("t1"), derive_rng("t2"))
        assert _decided(protected, cond, device, site.challenge, post,
                        enrollment.init_token) == (value, tag)
        assert tag == BOUND_OK
        assert value == site.response
        assert enrollment.decode(value) == "Go1Stop2"

    def test_clone_device_falls_back_to_safe_state(self, traffic,
                                                   protected_traffic):
        protected, enrollment, _ = protected_traffic
        clone = make_device(4711, 16, 16, 0.0)
        cond = protected.safe_condition
        site = enrollment.transitions[0]
        post = dict(protected.program.initial_state().values)
        post[("GoLight", (1,))] = True
        post[("StopLight", (1,))] = False
        value, tag = choose_ctl_state(
            site.challenge, post, enrollment.init_token, clone, enrollment,
            cond, derive_rng("t1"), derive_rng("t2"))
        assert _decided(protected, cond, clone, site.challenge, post,
                        enrollment.init_token) == (value, tag)
        assert tag == FALLBACK_TAKEN
        decoded = enrollment.decode(value)
        state = State(values=post, monitored={})
        assert eval_term(cond.cond_for(decoded), state) is False
        assert decoded in ("Stop1Stop2", "Go1Stop2")

    def test_empty_safe_set_stalls(self, traffic, protected_traffic):
        protected, enrollment, device = protected_traffic
        always_bad = SafeCondition(cond_x=Const(True), ctl_name="phase",
                                   plain_values=PHASES)
        site = enrollment.transitions[0]
        post = dict(protected.program.initial_state().values)
        value, tag = choose_ctl_state(
            site.challenge, post, enrollment.init_token, device, enrollment,
            always_bad, derive_rng("t1"), derive_rng("t2"))
        assert _decided(protected, always_bad, device, site.challenge, post,
                        enrollment.init_token) == (value, tag)
        assert tag == SAFE_STALL
        assert value == enrollment.init_token


class TestSiteDecider:
    def test_runtime_never_leaves_what_the_checker_explores(
            self, protected_traffic):
        """At every post-state of a random run, the results ``decide``
        gives over every response and draw are exactly ``outcomes``."""
        protected, enrollment, device = protected_traffic
        trace = run_protected(protected, device, 200, RandomOracle(11),
                              seed=3)
        posts = {tuple(sorted(e.state.items())): e.state
                 for e in trace.entries}
        responses = [t.response for t in enrollment.transitions]
        responses.append(next(r for r in range(1 << 16)
                              if enrollment.decode_stored(r) is None))
        always_bad = SafeCondition(cond_x=Const(True), ctl_name="phase",
                                   plain_values=PHASES)
        deciders = (protected.decider,
                    SiteDecider(protected.program, enrollment, always_bad))
        tags = set()
        for decider in deciders:
            for post in posts.values():
                current = post[PHASE]
                outcomes = decider.outcomes(post, current)
                assert len(set(outcomes)) == len(outcomes)
                decided = {decider.decide(r, post, current,
                                          lambda n, i=i: i % n)
                           for r in responses for i in range(len(PHASES))}
                assert decided == set(outcomes), post
                tags |= {tag for _, tag in outcomes}
        assert tags == {BOUND_OK, FALLBACK_TAKEN, SAFE_STALL}


class TestProtectPipeline:
    def test_end_to_end_success(self, protected_traffic):
        protected, enrollment, _ = protected_traffic
        assert len(enrollment.transitions) == 4
        assert enrollment.ctl_name == "phase"
        assert protected.provenance["challenge-bits"] == 16

    def test_narrow_device_fails_with_enrollment_error(self, traffic):
        with pytest.raises(EnrollmentExhausted):
            protect(traffic, make_device(42, 1, 16, 0.0))

    def test_incomplete_enrollment_is_rejected(self, traffic):
        from dataclasses import replace
        from casmkit.protect import MissingEnrollment
        from casmkit.puf import enroll
        device = make_device(42, 16, 16, 0.0)
        tset = compute_transition_set(traffic)
        enrollment = enroll(device, tset.pairs[:3], "Stop1Stop2")
        enrollment = replace(enrollment, ctl_name="phase")
        cond = derive_safe_condition(traffic)
        with pytest.raises(MissingEnrollment):
            rewrite_program(traffic, tset, enrollment, cond)

    def test_runner_matches_reference_resolver(self, traffic,
                                               protected_traffic):
        protected, _, _ = protected_traffic
        from casmkit.interp import compiled, rng_picker
        from casmkit.protect import make_ctl_resolver
        oracle = ConstantOracle.always_true(traffic)
        for device_seed, noise in ((42, 0.0), (999, 0.0), (999, 0.3)):
            device = make_device(device_seed, 16, 16, noise)
            fast = run_protected(protected, device, 120, oracle, seed=5)
            cp = compiled(protected.program)
            values = protected.program.initial_state().values
            for k in range(120):
                monitored = oracle.valuation(protected.program, k)
                resolver = make_ctl_resolver(protected, device, 5, k)
                values, _, _ = cp.step_values(values, monitored,
                                              rng_picker(5, k), resolver)
                assert values == fast.entries[k + 1].state, (device_seed,
                                                             noise, k)

    def test_encoded_space_hygiene(self, traffic, protected_traffic):
        protected, enrollment, _ = protected_traffic
        stored_ok = {t.response for t in enrollment.transitions}
        stored_ok.add(enrollment.init_token)
        oracle = RandomOracle(21)
        for device_seed in (42, 1234, 77):
            device = make_device(device_seed, 16, 16, 0.02)
            trace = run_protected(protected, device, 400, oracle, seed=2)
            for entry in trace.entries:
                assert entry.state[PHASE] in stored_ok

    def test_loaded_artifact_runs_identically(self, traffic,
                                              protected_traffic, tmp_path):
        protected, _, device = protected_traffic
        protected.save(str(tmp_path))
        loaded = load_protected(str(tmp_path))
        oracle = ConstantOracle.always_true(traffic)
        a = run_protected(protected, device, 200, oracle, seed=9)
        b = run_protected(loaded, device, 200, oracle, seed=9)
        assert a.to_jsonl() == b.to_jsonl()
