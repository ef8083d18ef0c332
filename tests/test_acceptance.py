"""Acceptance suite: one test per shipping criterion.

Each test prints one line ``ACCEPTANCE <n> PASS/FAIL`` (visible with
``pytest -s``) and enforces the criterion's stated tolerance, including
its runtime budget.
"""
import itertools
import random
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from casmkit.ast import (
    And, App, Const, Eq, Ite, Member, Not, Or, State, Var, eval_term,
    term_size, validate_program,
)
from casmkit.cli import main as cli_main
from casmkit.interp import ConstantOracle, RandomOracle, ScriptedOracle, run
from casmkit.parser import parse_program, pretty_print
from casmkit.protect import derive_safe_condition, protect
from casmkit.puf import make_device
from casmkit.rng import derive_rng
from casmkit.symexec import (
    SymInit, elim_symbol, free_symbols_in, merge_successors,
    simplify_formula, subst_term, symbolic_step,
)
from casmkit.verify import (
    clone_divergence_report, compare_target_traces, exhaustive_safety_check,
    replay_witness,
)

from fuzzing import formula_symbols, random_formula, random_program
from reference_symexec import equivalent_on_finite_domains, eval_fd

PHASE = ("phase", ())
PHASES = ("Stop1Stop2", "Go1Stop2", "Stop2Stop1", "Go2Stop1")


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} PASS: {description} "
          f"({elapsed:.2f}s of {budget_seconds:.0f}s budget)")
    assert elapsed < budget_seconds, \
        f"criterion {number} exceeded its {budget_seconds}s budget"


@pytest.fixture(scope="module")
def protected_artifacts(traffic):
    device = make_device(42, 16, 16, 0.0)
    protected, enrollment = protect(traffic, device)
    return protected, enrollment, device


@pytest.fixture(scope="module")
def clone_reports(traffic, protected_artifacts):
    """Shared by criteria 5 and 6: 100 clones x 10,000 steps per noise
    level; the zero-noise experiment is computed once."""
    protected, _, _ = protected_artifacts
    oracle = ConstantOracle.always_true(traffic)
    original = run(traffic, 10000, oracle, seed=7)
    seeds = [1000 + i for i in range(100)]
    reports = {}
    start = time.time()
    for noise in (0.0, 0.05):
        reports[noise] = clone_divergence_report(
            protected, original, seeds, 10000, noise, oracle, run_seed=7)
    return reports, time.time() - start


def transcribed_conditions(traffic, init):
    """The worked example's four path conditions over this analysis'
    symbols; the single passage symbol is ground-expanded per phase."""
    alpha = init.sym_val[PHASE]
    beta = init.sym_val[("Passed", (PHASES[3],))]
    for p in reversed(PHASES[:-1]):
        beta = Ite(Eq(alpha, Const(p)), init.sym_val[("Passed", (p,))], beta)
    g1 = And(Or(Eq(alpha, Const("Stop1Stop2")),
                Eq(alpha, Const("Go1Stop2"))), beta)
    g2 = And(Or(Eq(alpha, Const("Stop2Stop1")),
                Eq(alpha, Const("Go2Stop1"))), beta)
    return [
        And(g1, Eq(alpha, Const("Stop1Stop2"))),
        And(g1, Not(Eq(alpha, Const("Stop1Stop2")))),
        And(g2, Eq(alpha, Const("Stop2Stop1"))),
        And(g2, Not(Eq(alpha, Const("Stop2Stop1")))),
    ], g1, g2


def test_criterion_1_path_condition_reproduction(traffic):
    with criterion(1, "four transition paths match the worked example", 1.0):
        init = SymInit.for_program(traffic)
        paths = symbolic_step(traffic, init, ctl_abstraction=True)
        non_stutter = [p for p in paths if not p.stutter]
        assert len(non_stutter) == 4
        expected, _, _ = transcribed_conditions(traffic, init)
        for mine, ref in zip(non_stutter, expected):
            ok, witness = equivalent_on_finite_domains(mine.path_cond, ref,
                                                       traffic)
            assert ok, witness
        # successor maps, location for location
        zeta = init.sym_val[("StopLight", (1,))]
        eta = init.sym_val[("StopLight", (2,))]
        lane1 = dict(init.sym_val)
        lane1[("StopLight", (1,))] = Not(zeta)
        lane1[("GoLight", (1,))] = zeta
        lane2 = dict(init.sym_val)
        lane2[("StopLight", (2,))] = Not(eta)
        lane2[("GoLight", (2,))] = eta
        next_syms = {p.loc_map[PHASE] for p in non_stutter}
        assert len(next_syms) == 1 and \
            next_syms.pop() not in init.sym_val.values()
        for p, ref_map in zip(non_stutter, (lane1, lane1, lane2, lane2)):
            assert set(p.loc_map) == set(ref_map)
            for loc, ref in ref_map.items():
                if loc == PHASE:
                    continue
                ok, witness = equivalent_on_finite_domains(
                    p.loc_map[loc], ref, traffic)
                assert ok, (loc, witness)


def test_criterion_2_grouping_reproduction(traffic):
    with criterion(2, "merged path conditions match the grouped forms", 1.0):
        init = SymInit.for_program(traffic)
        merged = merge_successors(
            symbolic_step(traffic, init, ctl_abstraction=True))
        groups = [m for m in merged if not m.stutter]
        assert len(groups) == 2
        _, g1, g2 = transcribed_conditions(traffic, init)
        for group, ref in zip(groups, (g1, g2)):
            ok, witness = equivalent_on_finite_domains(group.path_cond, ref,
                                                       traffic)
            assert ok, witness


def test_criterion_3_safety_condition_reproduction(traffic):
    with criterion(3, "derived condition matches the published one on all "
                      "16 combinations", 1.0):
        cond = derive_safe_condition(traffic)
        x = Var("x")
        gl1 = App("GoLight", (Const(1),))
        gl2 = App("GoLight", (Const(2),))
        published = Or(
            And(Member(x, ("Stop1Stop2", "Go1Stop2")), And(Not(gl1), gl2)),
            And(Member(x, ("Stop2Stop1", "Go2Stop1")), And(Not(gl2), gl1)))
        base = traffic.initial_state().values
        checks = 0
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
            checks += 1
        assert checks == 16


def test_criterion_4_target_fidelity(traffic, protected_artifacts):
    with criterion(4, "60 target trials over 1,000 steps are all EQUAL "
                      "with zero fallbacks", 10.0):
        protected, _, _ = protected_artifacts
        script = []
        for k in range(1000):
            script.append({loc: (k + i) % 3 != 0 for i, loc in
                           enumerate(traffic.monitored_locations())})
        policies = [ConstantOracle.always_true(traffic), RandomOracle(3),
                    ScriptedOracle(script)]
        trials = 0
        for oracle in policies:
            for run_seed in range(20):
                cmp = compare_target_traces(traffic, protected, 42, 1000,
                                            oracle, run_seed)
                assert cmp.verdict == "EQUAL", (oracle, run_seed)
                assert cmp.fallback_count == 0
                trials += 1
        assert trials == 60


def test_criterion_5_clone_safety(clone_reports):
    reports, experiment_elapsed = clone_reports
    with criterion(5, f"0 safety violations across 200 clone trials of "
                      f"10,000 steps (experiment ran "
                      f"{experiment_elapsed:.1f}s)", 60.0):
        assert experiment_elapsed < 60.0
        assert set(reports) == {0.0, 0.05}
        for noise, report in reports.items():
            assert report.trials == 100
            assert report.steps_per_trial == 10000
            assert report.safety_violations == 0, noise


def test_criterion_6_clone_divergence(clone_reports):
    reports, _ = clone_reports
    with criterion(6, "clones diverge from the target flow within 32 "
                      "steps", 60.0):
        report = reports[0.0]
        assert report.trials_diverged >= 99, report.trials_diverged
        within_32 = sum(count for step, count in
                        report.first_divergence_hist.items() if step <= 32)
        assert within_32 >= 0.95 * report.trials_diverged, \
            report.first_divergence_hist


def test_criterion_7_exhaustive_safety(traffic, faulty_traffic,
                                       protected_artifacts):
    with criterion(7, "model checking: original and protected safe, "
                      "faulty variant caught with a short witness", 30.0):
        original = exhaustive_safety_check(traffic)
        assert original.unsafe_reachable is False

        protected, _, _ = protected_artifacts
        adversarial = exhaustive_safety_check(protected,
                                              adversarial_puf=True)
        assert adversarial.unsafe_reachable is False

        faulty = exhaustive_safety_check(faulty_traffic)
        assert faulty.unsafe_reachable is True
        assert faulty.witness is not None and len(faulty.witness) <= 3
        assert replay_witness(faulty_traffic, faulty.witness)


def test_criterion_8_method_boundary(tmp_path, traffic):
    with criterion(8, "too-small devices fail enrollment with exit code 3",
                   1.0):
        src = tmp_path / "traffic.casm"
        src.write_text(pretty_print(traffic))
        runner = CliRunner()
        for bits in (("--challenge-bits", "1", "--response-bits", "16"),
                     ("--challenge-bits", "16", "--response-bits", "1")):
            result = runner.invoke(cli_main, [
                "protect", str(src), "--device-seed", "42",
                *bits, "--out", str(tmp_path / "out")])
            assert result.exit_code == 3, result.output
            assert not (tmp_path / "out").exists()


def test_criterion_9_property_suites(traffic):
    with criterion(9, "parser round-trip, simplification equivalence, "
                      "concretization soundness, noise calibration", 120.0):
        # 1,000 fuzzed programs survive print/parse round-trips
        rng = random.Random(90210)
        for i in range(1000):
            program = random_program(rng)
            assert validate_program(program) == [], i
            result = parse_program(pretty_print(program))
            assert result.ok and result.program == program, i

        # 1,000 fuzzed formulas: simplification and boolean-symbol
        # elimination agree with the enumeration oracle
        rng = random.Random(31337)
        for i in range(1000):
            symbols = formula_symbols(rng)
            f = random_formula(rng, symbols)
            g = simplify_formula(f)
            ok, witness = equivalent_on_finite_domains(f, g)
            assert ok, (i, witness)
            assert term_size(g) <= term_size(f), i
            target = rng.choice(symbols)
            h = elim_symbol(f, target)
            assert target not in free_symbols_in(h), i

        # concretization soundness, exhaustively over the full state space
        init = SymInit.for_program(traffic, constraints=())
        paths = symbolic_step(traffic, init, ctl_abstraction=False)
        interest = list(init.sym_val)
        controlled = [l for l in interest
                      if traffic.function(l[0]).mode != "monitored"]
        monitored = [l for l in interest
                     if traffic.function(l[0]).mode == "monitored"]
        domains = [traffic.function(l[0]).result.values() for l in interest]
        from reference_runtime import step as concrete_step
        checked = 0
        for combo in itertools.product(*domains):
            concrete = dict(zip(interest, combo))
            valuation = {init.sym_val[l]: v for l, v in concrete.items()}
            taken = [p for p in paths if eval_fd(p.path_cond, valuation)]
            assert len(taken) == 1
            state = traffic.initial_state()
            state.values.update({l: concrete[l] for l in controlled})
            result = concrete_step(traffic, state,
                                   {l: concrete[l] for l in monitored})
            for loc in controlled:
                assert eval_fd(taken[0].loc_map[loc], valuation) == \
                    result.state.values[loc]
            checked += 1
        assert checked == 4 * 2 ** 4 * 2 ** 4

        # noise-rate calibration within two percentage points
        device = make_device(42, 16, 16, 0.05)
        stream = derive_rng("acceptance-noise")
        flips = sum(
            device.query(c % 256, stream) != device.stable_response(c % 256)
            for c in range(10000))
        assert abs(flips / 10000 - 0.05) <= 0.02
