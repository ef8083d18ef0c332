"""Deterministic stream derivation.

Every random draw in the toolchain comes from a stream named by a label
path, so runs are reproducible bit-for-bit across platforms and adding
one draw site never perturbs another site's stream.  Streams are
counter-mode SHA-256: cheap to create, cheap to draw from.
"""
from __future__ import annotations

import hashlib


class HashStream:
    """Deterministic uniform stream identified by its label path."""

    __slots__ = ("_label", "_counter")

    def __init__(self, *parts):
        self._label = "|".join(str(p) for p in parts).encode()
        self._counter = 0

    def _next(self) -> int:
        digest = hashlib.sha256(
            self._label + b"#" + str(self._counter).encode()).digest()
        self._counter += 1
        return int.from_bytes(digest[:8], "big")

    def random(self) -> float:
        return self._next() / 2.0 ** 64

    def randrange(self, n: int) -> int:
        # modulo bias is below 2**-40 for any n this toolchain draws over
        return self._next() % n


def derive_rng(*parts) -> HashStream:
    return HashStream(*parts)
