"""Deterministic stream derivation.

Every random draw in the toolchain comes from a stream named by a label
path, so runs are reproducible bit-for-bit across platforms and adding
one draw site never perturbs another site's stream.  Streams are
counter-mode SHA-256: cheap to create, cheap to draw from.  A draw site
of a run that takes one word per step, as a challenge site's fallback
pick does, uses :func:`step_words`, which encodes the site's label head
and tail once; a coin that fires below a bound, as a device's noise
coin does, uses :func:`step_below`, which compares the hashed block with
the bound and reads no word.  A draw site that picks one value from
each of a fixed set of streams at a time, as a step's monitored inputs
do, uses :func:`first_picks`, which encodes each stream's label tail once
and hashes the shared head once a pick.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Callable, Hashable, Iterable, Sequence

try:
    # CPython's own SHA-256 builds and digests a one-block hash faster
    # than OpenSSL's, and every block hashed here is a short label
    from _sha256 import sha256 as _sha256
except ImportError:  # pragma: no cover - a build without it, or 3.12+
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


def step_words(prefix: Sequence, site, index: int = 0
               ) -> Callable[[object], int]:
    """A function ``word(step)`` that gives the 64-bit word ``#index``
    of the stream ``derive_rng(*prefix, step, site)`` without building
    the stream.  The first word ``w`` (``index`` 0) is what the stream's
    first draw reads: ``w / 2 ** 64`` is its ``random()`` and ``w % n``
    its ``randrange(n)``; word ``#1`` is what its second draw reads.
    The label head ``prefix|`` and tail ``|site#index`` are formatted
    once, here; a call puts the step between them and hashes one
    block."""
    head = "".join(f"{p!s}|" for p in prefix)
    tail = f"|{site!s}#{index}"

    def word(step) -> int:
        return _unpack_word(_sha256(f"{head}{step!s}{tail}".encode())
                            .digest())[0]
    return word


def step_below(prefix: Sequence, site, bound: int
               ) -> Callable[[object], bool]:
    """A function ``fires(step)`` that tells whether the first word of
    the stream ``derive_rng(*prefix, step, site)`` (word ``#0`` of
    :func:`step_words`) is below ``bound``, an integer in
    ``[0, 2 ** 64)``.  The label head and tail and the bound's eight
    big-endian bytes are formatted once, here; a call hashes one block
    and compares its digest with those bytes.  A 32-byte digest sorts
    below the 8-byte bound exactly when its first eight bytes, read
    big-endian, are below ``bound``: where they equal the bound, the
    longer string sorts after it."""
    head = "".join(f"{p!s}|" for p in prefix)
    tail = f"|{site!s}#0"
    limit = bound.to_bytes(8, "big")

    def fires(step) -> bool:
        return _sha256(f"{head}{step!s}{tail}".encode()).digest() < limit
    return fires


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
