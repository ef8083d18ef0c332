"""Golden analysis corpus: what ``protect`` and the symbolic step give on
the programs the ROADMAP's byte-identity gates name.

``analysis_corpus.json`` names each program and pins the SHA-256 of its
analysis: the protected artifact's text and enrollment JSON (device 42,
16-bit challenges and responses), or the refusal's type and message,
together with the path conditions of the merged symbolic step without
control abstraction (or that step's refusal).  So a change in any
``condx``, artifact, enrollment, refusal or merged path shows.

The programs are the traffic light, ring-2..9, faulty ring-2..7, the
first 80 of ``random_program(random.Random(4242))`` (protected or
refused), and those of the first 200 of ``random_program(
random.Random(seed))`` for seeds 1..10 that protect.  The other seeded
programs, all refused, are left out to keep the test short.  Programs
come from ``tests/fuzzing.py``, so a change to its generator needs the
corpus recorded anew.

Running this file as a script records the corpus anew from the current
code::

    PYTHONPATH=src:benchmarks python tests/test_analysis_corpus.py
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from casmkit.ast import CasmError, Program
from casmkit.parser import parse_or_raise
from casmkit.programs import traffic_light_source
from casmkit.protect import protect
from casmkit.puf import make_device
from casmkit.symexec import (
    SymInit, analysis, format_symexpr, merge_successors, symbolic_step,
)

import reference_symexec
from fuzzing import random_program
from rings import ring_source

CORPUS = Path(__file__).with_name("analysis_corpus.json")
FUZZ_SEED = 4242
FUZZ_COUNT = 80
SEEDS = range(1, 11)
PER_SEED = 200


def _refusal(exc: Exception) -> dict:
    return {"refused": type(exc).__name__, "message": str(exc)}


def outcome(program: Program) -> tuple:
    """The protected artifact's text and enrollment JSON, or the
    refusal; and the merged paths' conditions, or the refusal."""
    try:
        protected, enrollment = protect(program, make_device(42, 16, 16))
        artifact = [protected.source_text(), enrollment.to_json()]
    except (CasmError, RecursionError) as exc:
        artifact = _refusal(exc)
    try:
        with analysis():
            paths = symbolic_step(program, SymInit.for_program(program),
                                  ctl_abstraction=False)
            conds = [format_symexpr(p.path_cond)
                     for p in merge_successors(paths)]
    except (CasmError, RecursionError) as exc:
        conds = _refusal(exc)
    return artifact, conds


def digest(program: Program) -> str:
    return hashlib.sha256(json.dumps(outcome(program)).encode()).hexdigest()


def programs(names=None) -> dict[str, Program]:
    """Every program of the corpus by name, or those of ``names``."""
    out = {"traffic": parse_or_raise(traffic_light_source())}
    for n in range(2, 10):
        out[f"ring-{n}"] = parse_or_raise(ring_source(n))
    for n in range(2, 8):
        out[f"faulty-ring-{n}"] = parse_or_raise(ring_source(n, True))
    for seed, count in [(FUZZ_SEED, FUZZ_COUNT)] + [(s, PER_SEED)
                                                    for s in SEEDS]:
        rng = random.Random(seed)
        for i in range(count):
            out[f"{seed}/{i}"] = random_program(rng)
    if names is None:
        return out
    return {name: out[name] for name in names}


def _load() -> dict[str, str]:
    return json.loads(CORPUS.read_text())


def test_corpus_names_the_gated_programs():
    names = set(_load())
    assert {"traffic", "ring-9", "faulty-ring-7"} <= names
    assert {f"{FUZZ_SEED}/{i}" for i in range(FUZZ_COUNT)} <= names
    assert sum(not name.startswith(f"{FUZZ_SEED}/") and "/" in name
               for name in names) >= 300


def test_analysis_matches_its_recorded_digest(monkeypatch):
    # the corpus pins outputs; the oracle cross-check would only slow it
    reference_symexec.remove_checks(monkeypatch)
    corpus = _load()
    wrong = [name for name, program in programs(corpus).items()
             if digest(program) != corpus[name]]
    assert wrong == []


def _record() -> None:
    corpus = {}
    for name, program in programs().items():
        artifact, _ = outcome(program)
        seeded = "/" in name and not name.startswith(f"{FUZZ_SEED}/")
        if seeded and isinstance(artifact, dict):
            continue
        corpus[name] = digest(program)
    CORPUS.write_text(json.dumps(corpus, indent=0) + "\n")


if __name__ == "__main__":
    _record()
