"""Command-line entry point.

Exit codes: 0 success (or: safe, traces equal); 1 an analysis found a
violation or mismatch; 2 usage or parse error; 3 enrollment failure.
Diagnostics go to standard error, results to standard output or the
requested output path.  Commands never modify their input files and
never leave partial outputs behind.
"""
from __future__ import annotations

import json
import os
import sys
import click

from . import FORMULA_DIALECT, __version__
from .ast import CasmError, Program, format_location
from .interp import (
    ConstantOracle, MonitoredOracle, RandomOracle, Trace, TraceEntry,
    load_scripted_oracle, run,
)
from .parser import load_program, format_term
from .protect import (
    FALLBACK_TAKEN, ProtectedProgram, derive_safe_condition, load_protected,
    protect, run_protected,
)
from .puf import EnrollmentExhausted, NoisyReadout, make_device
from .symexec import SymInit, format_symexpr, merge_successors, symbolic_step
from .verify import (
    clone_divergence_report, compare_target_traces, exhaustive_safety_check,
    random_safety_search,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ENROLLMENT = 3


def _fail(message: str, code: int) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _load(path: str) -> Program:
    result = load_program(path)
    for d in result.diagnostics:
        click.echo(d.render(path), err=True)
    if not result.ok:
        sys.exit(EXIT_USAGE)
    assert result.program is not None
    return result.program


def _oracle(program: Program, spec: str) -> MonitoredOracle:
    if spec == "always-true":
        return ConstantOracle.always_true(program)
    try:
        if spec.startswith("random:"):
            return RandomOracle(int(spec.split(":", 1)[1]))
        if spec.startswith("file:"):
            return load_scripted_oracle(program, spec.split(":", 1)[1])
    except (ValueError, OSError) as exc:
        _fail(f"monitored policy {spec!r}: {exc}", EXIT_USAGE)
    raise click.UsageError(
        f"unknown monitored policy {spec!r} "
        "(use always-true, random:SEED, or file:PATH)")


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@click.group()
@click.version_option(
    __version__, message=f"casmkit %(version)s (formula dialect "
                         f"{FORMULA_DIALECT})")
def main() -> None:
    """Toolchain for control-state machine programs: run them, analyze
    them symbolically, and bind their control flow to a device."""


@main.command("parse")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def cmd_parse(file: str) -> None:
    """Parse and validate a program file."""
    program = _load(file)
    click.echo(f"{program.name}: {len(program.sorts)} sorts, "
               f"{len(program.functions)} functions, "
               f"{len(program.main_rules)} top-level rules, "
               f"{len(program.named_rules)} helper rules")


@main.command("run")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--monitored", default="always-true", show_default=True)
@click.option("--trace", "trace_out", type=click.Path(dir_okay=False))
def cmd_run(file: str, steps: int, seed: int, monitored: str,
            trace_out: str | None) -> None:
    """Execute a program and emit its trace as JSON lines."""
    program = _load(file)
    try:
        oracle = _oracle(program, monitored)
        trace = run(program, steps, oracle, seed)
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    _write_out(trace.to_jsonl(), trace_out)


@main.command("symexec")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False))
@click.option("--no-ctl-abstraction", is_flag=True,
              help="Execute control-state updates concretely instead of "
                   "abstracting them to a fresh symbol.")
def cmd_symexec(file: str, out: str | None, no_ctl_abstraction: bool) -> None:
    """Symbolically execute one step and report paths and the derived
    safety condition."""
    program = _load(file)
    try:
        init = SymInit.for_program(program)
        paths = merge_successors(
            symbolic_step(program, init,
                          ctl_abstraction=not no_ctl_abstraction))
        cond_x = None
        if not no_ctl_abstraction:
            cond_x = derive_safe_condition(program).cond_x
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    report = {
        "program": program.name,
        "symbols": {format_symexpr(expr): format_location(loc)
                    for loc, expr in init.sym_val.items()},
        "paths": [
            {"cond": format_symexpr(p.path_cond),
             "locMap": {format_location(loc): format_symexpr(e)
                        for loc, e in p.loc_map.items()},
             "merged-from": list(p.merged_from),
             "stutter": p.stutter}
            for p in paths
        ],
        "condX": None if cond_x is None else format_term(cond_x),
    }
    _write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


@main.command("protect")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--device-seed", type=int, required=True)
@click.option("--challenge-bits", type=int, required=True)
@click.option("--response-bits", type=int, required=True)
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--attempt-budget", type=int, default=65536, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              required=True)
def cmd_protect(file: str, device_seed: int, challenge_bits: int,
                response_bits: int, noise: float, attempt_budget: int,
                out_dir: str) -> None:
    """Bind a program to a device; writes protected.casm and
    enrollment.json into the output directory."""
    program = _load(file)
    try:
        device = make_device(device_seed, challenge_bits, response_bits,
                             noise)
        protected, enrollment = protect(program, device, attempt_budget)
    except (EnrollmentExhausted, NoisyReadout) as exc:
        _fail(str(exc), EXIT_ENROLLMENT)
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    protected.save(out_dir)
    for w in protected.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"{out_dir}: protected {program.name} with "
               f"{len(enrollment.transitions)} bound transitions")


@main.command("run-protected")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--device-seed", type=int, required=True)
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--monitored", default="always-true", show_default=True)
@click.option("--trace", "trace_out", type=click.Path(dir_okay=False))
def cmd_run_protected(directory: str, device_seed: int, noise: float,
                      steps: int, seed: int, monitored: str,
                      trace_out: str | None) -> None:
    """Execute a protected artifact against a device given by seed."""
    try:
        protected = load_protected(directory)
        device = make_device(device_seed,
                             protected.enrollment.challenge_bits,
                             protected.enrollment.response_bits, noise)
        oracle = _oracle(protected.program, monitored)
        trace = run_protected(protected, device, steps, oracle, seed)
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    _write_out(trace.to_jsonl(), trace_out)


@main.command("verify")
@click.argument("path", type=click.Path(exists=True))
@click.option("--exhaustive", is_flag=True)
@click.option("--adversarial-puf", is_flag=True)
@click.option("--device-seed", type=int,
              help="Device for checking a protected artifact without the "
                   "adversarial response model.")
@click.option("--runs", type=int, default=50, show_default=True,
              help="Randomized runs when not exhaustive.")
@click.option("--steps", type=int, default=200, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False))
def cmd_verify(path: str, exhaustive: bool, adversarial_puf: bool,
               device_seed: int | None, runs: int, steps: int,
               out: str | None) -> None:
    """Check that no reachable state violates the safety declaration."""
    try:
        if os.path.isdir(path):
            protected = load_protected(path)
            device = None
            if device_seed is not None and not adversarial_puf:
                device = make_device(device_seed,
                                     protected.enrollment.challenge_bits,
                                     protected.enrollment.response_bits, 0.0)
            else:
                adversarial_puf = True
            report = exhaustive_safety_check(
                protected, adversarial_puf=adversarial_puf, device=device)
        elif exhaustive:
            report = exhaustive_safety_check(_load(path))
        else:
            program = _load(path)
            hit = random_safety_search(program, runs, steps, 1)
            if hit is not None:
                _fail(f"unsafe state reached (seed {hit[0]}, step {hit[1]})",
                      EXIT_VIOLATION)
            click.echo(f"no unsafe state in {runs} randomized runs of "
                       f"{steps} steps")
            return
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    if out is not None:
        _write_out(report.to_json(), out)
    click.echo(f"explored {report.explored_states} states, "
               f"{report.transition_count} transitions: "
               + ("UNSAFE REACHABLE" if report.unsafe_reachable else "safe"))
    if report.unsafe_reachable:
        sys.exit(EXIT_VIOLATION)


@main.command("compare")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--target-seed", type=int, required=True)
@click.option("--clone-seeds", default="",
              help="Comma-separated device seeds; generated from "
                   "--trials when omitted.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--steps", type=int, required=True)
@click.option("--seed", type=int, default=1, show_default=True,
              help="Run seed shared by all trials.")
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--monitored", default="always-true", show_default=True)
@click.option("--report", "report_out", type=click.Path(dir_okay=False))
def cmd_compare(directory: str, target_seed: int, clone_seeds: str,
                trials: int, steps: int, seed: int, noise: float,
                monitored: str, report_out: str | None) -> None:
    """Run the protected artifact on its target device and on clones,
    and report safety and divergence statistics."""
    try:
        protected = load_protected(directory)
        oracle = _oracle(protected.program, monitored)
        enrollment = protected.enrollment
        target = make_device(target_seed, enrollment.challenge_bits,
                             enrollment.response_bits, 0.0)
        baseline = run_protected(protected, target, steps, oracle, seed)
        target_fallbacks = sum(e.events.count(FALLBACK_TAKEN)
                               for e in baseline.entries)
        decoded_baseline = Trace(entries=[
            TraceEntry(e.step, protected.decoded_values(e.state),
                       e.monitored, e.fired, e.events)
            for e in baseline.entries])
        if clone_seeds.strip():
            seeds = [int(s) for s in clone_seeds.split(",") if s.strip()]
        else:
            seeds = [target_seed + 1 + i for i in range(trials)]
        report = clone_divergence_report(protected, decoded_baseline, seeds,
                                         steps, noise, oracle, seed)
    except CasmError as exc:
        _fail(str(exc), EXIT_USAGE)
    if report_out is not None:
        _write_out(report.to_json(), report_out)
    click.echo(f"target fallbacks: {target_fallbacks}; "
               f"{report.trials_diverged}/{report.trials} clones diverged; "
               f"{report.safety_violations} safety violations; "
               f"fallback rate {report.fallback_rate:.3f}")
    if report.safety_violations > 0 or target_fallbacks > 0:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
