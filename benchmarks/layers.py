"""Per-layer metrics of the traced run.

``install`` wraps each layer's entry points (named after casmkit's
modules) at the attribute its caller resolves; ``metrics`` turns the
recorded spans into the per-layer metrics listed in ``PER_LAYER``.

Stage metrics (``parser.parse_ms``, ``protect.transitions_ms``,
``puf.enroll_ms``, ``protect.condx_ms``, ``protect.rewrite_ms``,
``protect.artifact_io_ms``, ``verify.adversarial_ms``) are whole span
durations.  Hot-path metrics (``symexec.*_ms``, ``interp.*``,
``protect.resolver_us``, ``rng.derive_us``, ``protect.cond_for_ms``) are
self times: a span's duration minus the wrapped calls inside it.

Totals cover everything the traced run did, set-up included; a metric
ending in ``.ringN`` covers only the work done for ring-N.  The
``verify.*``, ``interp.enumerate_*`` and ``protect.cond_for_*`` metrics
cover the adversarial checks only.  A layer the workload does not use
reads 0.
"""
from __future__ import annotations

import re

import casmkit.interp as cinterp
import casmkit.parser as cparser
import casmkit.protect as cprotect
import casmkit.puf as cpuf
import casmkit.symexec as csymexec
import casmkit.verify as cverify
from casmkit.ast import term_size

from tracing import Tracer

PROTECT_RINGS = (2, 3, 4, 5)
VERIFY_RINGS = (2, 3, 4)

# (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    ("parser.parse_ms", "ms", "lower"),
    ("protect.transitions_ms", "ms", "lower"),
    ("protect.transition_count", "count", "lower"),
    ("puf.enroll_ms", "ms", "lower"),
    ("puf.fingerprint_ms", "ms", "lower"),
    ("puf.enroll_queries", "count", "lower"),
    ("puf.enroll_yield", "ratio", "higher"),
    ("protect.condx_ms", "ms", "lower"),
    *((f"protect.condx_ms.ring{n}", "ms", "lower") for n in PROTECT_RINGS),
    ("symexec.symbolic_step_ms", "ms", "lower"),
    ("symexec.satisfiable_ms", "ms", "lower"),
    *((f"symexec.satisfiable_ms.ring{n}", "ms", "lower")
      for n in PROTECT_RINGS),
    ("symexec.satisfiable_calls", "count", "lower"),
    *((f"symexec.satisfiable_calls.ring{n}", "count", "lower")
      for n in PROTECT_RINGS),
    ("symexec.merge_ms", "ms", "lower"),
    ("symexec.simplify_ms", "ms", "lower"),
    ("symexec.elim_ms", "ms", "lower"),
    ("symexec.paths", "count", "lower"),
    ("symexec.groups", "count", "lower"),
    ("protect.condx_size", "count", "lower"),
    *((f"protect.condx_size.ring{n}", "count", "lower")
      for n in PROTECT_RINGS),
    ("protect.rewrite_ms", "ms", "lower"),
    ("protect.artifact_io_ms", "ms", "lower"),
    ("interp.step_us", "us", "lower"),
    ("protect.resolver_us", "us", "lower"),
    ("protect.sites_bound", "count", "higher"),
    ("protect.sites_fallback", "count", "lower"),
    ("protect.sites_stall", "count", "lower"),
    ("rng.derive_us", "us", "lower"),
    ("rng.derive_calls_per_step", "calls/step", "lower"),
    ("interp.check_total_us", "us", "lower"),
    ("puf.stable_response_calls", "count", "lower"),
    ("interp.reference_step_us", "us", "lower"),
    ("verify.states", "count", "lower"),
    ("verify.transitions", "count", "lower"),
    ("verify.monitored_branches", "calls/state", "lower"),
    ("verify.useful_ratio", "ratio", "higher"),
    ("verify.states_per_s", "1/s", "higher"),
    ("verify.transitions_per_s", "1/s", "higher"),
    ("verify.adversarial_ms", "ms", "lower"),
    *((f"verify.adversarial_ms.ring{n}", "ms", "lower")
      for n in VERIFY_RINGS),
    ("interp.enumerate_ms", "ms", "lower"),
    ("interp.enumerate_calls", "count", "lower"),
    ("protect.cond_for_ms", "ms", "lower"),
    *((f"protect.cond_for_ms.ring{n}", "ms", "lower") for n in VERIFY_RINGS),
    ("protect.cond_for_calls", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _note(key, measure):
    def on_result(tracer, idx, result):
        tracer.note(idx, key, measure(result))
    return on_result


def _step_name(args) -> str:
    # step_values(self, values, monitored, pick, ctl_resolver): the
    # protected runtime passes a resolver, plain runs pass None
    resolver = args[4] if len(args) > 4 else None
    return "interp.step" if resolver is not None else "interp.step_plain"


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    w(cparser, "parse_program", "parser.parse")
    w(cprotect, "parse_program", "parser.parse")
    w(cprotect, "compute_transition_set", "protect.transitions",
      _note("transitions", lambda r: len(r.pairs)))
    w(cprotect, "enroll", "puf.enroll",
      _note("enrolled", lambda r: len(r.transitions)))
    w(cpuf, "_majority_readout", "puf.readout")
    w(cpuf, "_fingerprint", "puf.fingerprint")
    w(cprotect, "derive_safe_condition", "protect.condx",
      _note("condx_size", lambda r: term_size(r.cond_x)))
    w(cprotect, "symbolic_step", "symexec.symbolic_step",
      _note("paths", len))
    w(csymexec, "satisfiable", "symexec.satisfiable")
    w(cprotect, "merge_successors", "symexec.merge", _note("groups", len))
    w(cprotect, "simplify_formula", "symexec.simplify")
    w(cprotect, "elim_symbol", "symexec.elim")
    w(cprotect, "rewrite_program", "protect.rewrite")
    w(cprotect.ProtectedProgram, "save", "protect.artifact_io")
    w(cprotect, "load_protected", "protect.artifact_io")
    w(cinterp.CompiledProgram, "step_values", _step_name)
    w(cprotect.ProtectedRunner, "_resolver", "protect.resolver",
      _note("site", lambda r: r[1]))
    w(cprotect, "derive_rng", "rng.derive")
    w(cinterp, "derive_rng", "rng.derive")
    w(cprotect, "_check_total", "interp.check_total")
    w(cinterp, "_check_total", "interp.check_total")
    w(cpuf.PufDevice, "stable_response", "puf.stable_response")
    w(cverify, "exhaustive_safety_check", "verify.bfs",
      _note("bfs", lambda r: (r.explored_states, r.transition_count)))
    w(cverify, "enumerate_step_outcomes", "interp.enumerate")
    w(cprotect.SafeCondition, "cond_for", "protect.cond_for")


_RING = re.compile(r"ring(\d+)$")


def metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from the spans.  Each wrapped call belongs to
    the nearest enclosing span the benchmark opened itself: a case, or
    (a part of) a set-up."""
    bench_spans = tracer.own
    n = len(tracer)
    names = [tracer.names[i] for i in tracer.name_of]
    parent = tracer.parent
    dur = tracer.durations()
    own = tracer.self_times()

    # each span's nearest enclosing benchmark span ("" outside any)
    job = [""] * n
    for i in range(n):
        if names[i] in bench_spans:
            job[i] = names[i]
        elif parent[i] >= 0:
            job[i] = job[parent[i]]

    def ring_of(i):
        m = _RING.search(job[i])
        return int(m.group(1)) if m else None

    def adversarial(i):
        return job[i].startswith("verify-adversarial")

    index: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        index.setdefault(name, []).append(i)

    def select(name, where=None):
        spans = index.get(name, [])
        return spans if where is None else [i for i in spans if where(i)]

    def total(spans, times):
        return sum(times[i] for i in spans)

    def per_ring(name, times, rings, scale, where=None):
        return {f".ring{r}": total(select(
            name, lambda i: ring_of(i) == r and (where is None or where(i))),
            times) * scale for r in rings}

    notes: dict[tuple[str, str], list] = {}
    for idx, key, value in tracer.notes:
        notes.setdefault((key, job[idx]), []).append(value)

    def noted(key, where=lambda job_name: True):
        return [v for (k, j), vs in notes.items() if k == key and where(j)
                for v in vs]

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    ms, us = 1e3, 1e6

    out["parser.parse_ms"] = total(select("parser.parse"), dur) * ms
    out["protect.transitions_ms"] = total(select("protect.transitions"),
                                          dur) * ms
    out["protect.transition_count"] = sum(noted("transitions"))
    enrolls = select("puf.enroll")
    out["puf.enroll_ms"] = total(enrolls, dur) * ms
    out["puf.fingerprint_ms"] = total(select("puf.fingerprint"), dur) * ms
    enroll_set = set(enrolls)
    queries = len(select("puf.readout", lambda i: parent[i] in enroll_set))
    out["puf.enroll_queries"] = queries
    out["puf.enroll_yield"] = ratio(sum(noted("enrolled")), queries)

    condx = select("protect.condx")
    out["protect.condx_ms"] = total(condx, dur) * ms
    for suffix, v in per_ring("protect.condx", dur, PROTECT_RINGS,
                              ms).items():
        out["protect.condx_ms" + suffix] = v
    out["symexec.symbolic_step_ms"] = total(select("symexec.symbolic_step"),
                                            own) * ms
    sat = select("symexec.satisfiable")
    out["symexec.satisfiable_ms"] = total(sat, own) * ms
    for suffix, v in per_ring("symexec.satisfiable", own, PROTECT_RINGS,
                              ms).items():
        out["symexec.satisfiable_ms" + suffix] = v
    out["symexec.satisfiable_calls"] = len(sat)
    for r in PROTECT_RINGS:
        out[f"symexec.satisfiable_calls.ring{r}"] = sum(
            1 for i in sat if ring_of(i) == r)
    out["symexec.merge_ms"] = total(select("symexec.merge"), own) * ms
    out["symexec.simplify_ms"] = total(select("symexec.simplify"), own) * ms
    out["symexec.elim_ms"] = total(select("symexec.elim"), own) * ms
    out["symexec.paths"] = sum(noted("paths"))
    out["symexec.groups"] = sum(noted("groups"))
    out["protect.condx_size"] = max(noted("condx_size"), default=0)
    for r in PROTECT_RINGS:
        out[f"protect.condx_size.ring{r}"] = max(
            noted("condx_size", lambda j, r=r: j.endswith(f"ring{r}")),
            default=0)
    out["protect.rewrite_ms"] = total(select("protect.rewrite"), dur) * ms
    out["protect.artifact_io_ms"] = total(select("protect.artifact_io"),
                                          dur) * ms

    steps = select("interp.step")
    out["interp.step_us"] = ratio(total(steps, own), len(steps)) * us
    resolver = select("protect.resolver")
    out["protect.resolver_us"] = ratio(total(resolver, own),
                                       len(resolver)) * us
    sites = noted("site")
    out["protect.sites_bound"] = sites.count(cprotect.BOUND_OK)
    out["protect.sites_fallback"] = sites.count(cprotect.FALLBACK_TAKEN)
    out["protect.sites_stall"] = sites.count(cprotect.SAFE_STALL)
    derive = select("rng.derive")
    out["rng.derive_us"] = ratio(total(derive, own), len(derive)) * us
    out["rng.derive_calls_per_step"] = ratio(
        len(select("rng.derive", lambda i: job[i].startswith("clone")
                   or job[i].startswith("target"))),
        len(steps))
    checks = select("interp.check_total")
    out["interp.check_total_us"] = ratio(total(checks, own), len(checks)) * us
    out["puf.stable_response_calls"] = len(select("puf.stable_response"))
    ref = select("interp.step_plain", lambda i: job[i].startswith("target"))
    out["interp.reference_step_us"] = ratio(total(ref, own), len(ref)) * us

    bfs = select("verify.bfs", adversarial)
    bfs_s = total(bfs, dur)
    found = noted("bfs", lambda j: j.startswith("verify-adversarial"))
    states = sum(s for s, _ in found)
    transitions = sum(t for _, t in found)
    enumerate_calls = select("interp.enumerate", adversarial)
    out["verify.states"] = states
    out["verify.transitions"] = transitions
    out["verify.monitored_branches"] = ratio(len(enumerate_calls), states)
    out["verify.useful_ratio"] = ratio(states - len(found), transitions)
    out["verify.states_per_s"] = ratio(states, bfs_s)
    out["verify.transitions_per_s"] = ratio(transitions, bfs_s)
    out["verify.adversarial_ms"] = bfs_s * ms
    for suffix, v in per_ring("verify.bfs", dur, VERIFY_RINGS, ms,
                              adversarial).items():
        out["verify.adversarial_ms" + suffix] = v
    out["interp.enumerate_ms"] = total(enumerate_calls, own) * ms
    out["interp.enumerate_calls"] = len(enumerate_calls)
    cond_for = select("protect.cond_for", adversarial)
    out["protect.cond_for_ms"] = total(cond_for, own) * ms
    for suffix, v in per_ring("protect.cond_for", own, VERIFY_RINGS, ms,
                              adversarial).items():
        out["protect.cond_for_ms" + suffix] = v
    out["protect.cond_for_calls"] = len(cond_for)

    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans"] = n
    if list(out) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out
