"""Golden parse corpus: seeded one-identifier mutations of four programs.

``parse_corpus.json`` holds the traffic light, ring-3, faulty ring-3 and
the protected traffic-light artifact, and about 1,000 mutations of them.
A mutation deletes, duplicates or renames one identifier token.  For
each, the file pins the SHA-256 of what ``parse_program`` gives: whether
it accepted, the canonical text of the program and its extras, and every
diagnostic's rendering, so a change in any accepted program, any
diagnostic's code, message or span, or their order shows.

Running this file as a script records the corpus anew from the current
parser::

    PYTHONPATH=src:benchmarks python tests/test_parse_corpus.py
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from casmkit.parser import parse_program, pretty_print, tokenize

CORPUS = Path(__file__).with_name("parse_corpus.json")
PER_SOURCE = 250
FRESH_NAMES = ("Nope", "x")
"""Renames draw from the source's own identifiers and these."""


def _ident_offsets(text: str) -> list[tuple[int, str]]:
    """Character offset and name of every identifier token in ``text``."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    tokens, _ = tokenize(text)
    return [(line_starts[t.line - 1] + t.column - 1, t.value)
            for t in tokens if t.type == "IDENT"]


def mutate(text: str, kind: str, index: int, new: str) -> str:
    """``text`` with its ``index``-th identifier deleted, duplicated or
    renamed to ``new``."""
    at, name = _ident_offsets(text)[index]
    replacement = {"delete": "", "duplicate": f"{name} {name}",
                   "rename": new}[kind]
    return text[:at] + replacement + text[at + len(name):]


def outcome_digest(text: str) -> str:
    result = parse_program(text)
    printed = (pretty_print(result.program, result.extras)
               if result.program is not None else None)
    seen = (result.ok, printed, [d.render() for d in result.diagnostics])
    return hashlib.sha256(json.dumps(seen).encode()).hexdigest()


def _load():
    return json.loads(CORPUS.read_text())


def test_corpus_size():
    corpus = _load()
    assert set(corpus["mutations"]) == set(corpus["sources"])
    assert sum(map(len, corpus["mutations"].values())) >= 900


def test_unmutated_sources_parse():
    for text in _load()["sources"].values():
        assert parse_program(text).ok


def test_mutations_match_their_recorded_outcome():
    corpus = _load()
    wrong = []
    for name, text in corpus["sources"].items():
        for kind, index, new, digest in corpus["mutations"][name]:
            if outcome_digest(mutate(text, kind, index, new)) != digest:
                wrong.append((name, kind, index, new))
    assert wrong == []


def _record() -> None:
    from casmkit.parser import parse_or_raise
    from casmkit.programs import traffic_light_source
    from casmkit.protect import protect
    from casmkit.puf import make_device
    from rings import ring_source

    traffic = traffic_light_source()
    protected, _ = protect(parse_or_raise(traffic), make_device(42, 16, 16))
    sources = {
        "traffic": traffic,
        "ring3": ring_source(3),
        "faulty-ring3": ring_source(3, True),
        "protected-traffic": protected.source_text(),
    }
    rng = random.Random(20261020)
    mutations = {}
    for name, text in sources.items():
        idents = _ident_offsets(text)
        vocabulary = sorted({n for _, n in idents} | set(FRESH_NAMES))
        picked: dict[tuple, str] = {}
        while len(picked) < PER_SOURCE:
            kind = rng.choice(("delete", "duplicate", "rename", "rename"))
            index = rng.randrange(len(idents))
            new = rng.choice(vocabulary) if kind == "rename" else ""
            if new == idents[index][1]:
                continue
            key = (kind, index, new)
            if key not in picked:
                picked[key] = outcome_digest(mutate(text, *key))
        mutations[name] = [[*key, digest] for key, digest in picked.items()]
    lines = ['{"sources": ' + json.dumps(sources, indent=1) + ',',
             ' "mutations": {']
    for i, (name, rows) in enumerate(mutations.items()):
        body = ",\n".join("  " + json.dumps(row) for row in rows)
        comma = "," if i < len(mutations) - 1 else ""
        lines.append(f' {json.dumps(name)}: [\n{body}\n ]{comma}')
    lines.append("}}")
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _record()
