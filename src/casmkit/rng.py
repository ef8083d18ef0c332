"""Deterministic stream derivation.

Every random draw in the toolchain comes from a stream named by a label
path, so runs are reproducible bit-for-bit across platforms and adding
one draw site never perturbs another site's stream.  Streams are
counter-mode SHA-256: cheap to create, cheap to draw from.  A draw site
that takes one word from each of many streams whose labels share a
prefix uses :func:`first_words`, which encodes that prefix once.  A draw
site that picks one value from each of a fixed set of streams at a time,
as a step's monitored inputs do, uses :func:`first_picks`, which encodes
each stream's label tail once and hashes the shared head once a pick.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Callable, Hashable, Iterable, Sequence

_sha256 = hashlib.sha256
_unpack_word = struct.Struct(">Q").unpack_from


def _word(block: bytes) -> int:
    """The stream word hashed from one ``label#counter`` block: the first
    eight digest bytes, big-endian."""
    return _unpack_word(_sha256(block).digest())[0]


class HashStream:
    """Deterministic uniform stream identified by its label path."""

    __slots__ = ("_label", "_counter")

    def __init__(self, *parts):
        self._label = "|".join(map(str, parts)).encode()
        self._counter = 0

    def _next(self) -> int:
        word = _word(self._label + b"#" + str(self._counter).encode())
        self._counter += 1
        return word

    def random(self) -> float:
        return self._next() / 2.0 ** 64

    def randrange(self, n: int) -> int:
        # modulo bias is below 2**-40 for any n this toolchain draws over
        return self._next() % n


def derive_rng(*parts) -> HashStream:
    return HashStream(*parts)


def first_words(*prefix) -> Callable[..., int]:
    """A function ``first_word(*rest)`` that gives the first 64-bit word
    of the stream ``derive_rng(*prefix, *rest)``, for one or more parts
    ``rest``, without building the stream.  That word ``w`` is what the
    stream's first draw reads: ``w / 2 ** 64`` is its ``random()`` and
    ``w % n`` its ``randrange(n)``."""
    head = "".join(f"{p!s}|" for p in prefix)

    def first_word(part, *rest) -> int:
        # one and two parts, the draws of a run, skip the join
        if not rest:
            return _word(f"{head}{part!s}#0".encode())
        if len(rest) == 1:
            return _word(f"{head}{part!s}|{rest[0]!s}#0".encode())
        return _word(
            f"{head}{part!s}|{'|'.join(map(str, rest))}#0".encode())
    return first_word


def first_picks(choices: Iterable[tuple[Hashable, object, Sequence]],
                *prefix) -> Callable[[object], dict]:
    """A function ``picks(part)`` that gives, for each ``(key, rest,
    values)`` of ``choices``, ``values[w % len(values)]`` under ``key``,
    where ``w`` is the first word of the stream ``derive_rng(*prefix,
    part, rest)``: that stream's first ``randrange(len(values))`` pick.

    Each ``rest`` is encoded once, here; a call encodes and hashes the
    shared label head ``prefix|part`` once and finishes each stream's
    block on a copy of that hash, in one loop."""
    head = "".join(f"{p!s}|" for p in prefix)
    plan = [(key, f"|{rest!s}#0".encode(), values, len(values))
            for key, rest, values in choices]

    def picks(part) -> dict:
        shared = _sha256(f"{head}{part!s}".encode())
        out = {}
        for key, tail, values, n in plan:
            block = shared.copy()
            block.update(tail)
            out[key] = values[_unpack_word(block.digest())[0] % n]
        return out
    return picks
