"""Simulated physically unclonable functions and enrollment.

A device is identified by a 64-bit seed; its stable response to a
challenge is a keyed pseudorandom function (SHA-256 over seed and
challenge, truncated to the response width), so equal parameters give a
functionally identical device and different seeds give unrelated tables.
Noise is surfaced, never corrected: with probability ``noise_rate`` a
query returns a uniformly random different response.

Enrollment picks one challenge per control-state transition such that
the stable responses are pairwise distinct and distinct from a reserved
token that encodes the initial control state.  Readout at enrollment
time uses majority-of-9 voting to suppress noise; the running program
never error-corrects.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .ast import CasmError, Value, format_value
from .rng import derive_rng, step_below, step_words

ENROLLMENT_VERSION = 1
_MAJORITY_ROUNDS = 9


class PufParameterError(CasmError):
    pass


class EnrollmentExhausted(CasmError):
    """The device cannot encode all transitions injectively."""


class NoisyReadout(CasmError):
    """Majority voting failed to stabilize any probed challenge."""


@dataclass(frozen=True)
class PufDevice:
    device_seed: int
    challenge_bits: int
    response_bits: int
    noise_rate: float = 0.0
    _stable: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if not 1 <= self.challenge_bits <= 32:
            raise PufParameterError("challenge width must be in 1..32")
        if not 1 <= self.response_bits <= 32:
            raise PufParameterError("response width must be in 1..32")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise PufParameterError("noise rate must be in [0, 1]")

    @property
    def challenge_count(self) -> int:
        return 1 << self.challenge_bits

    @property
    def response_count(self) -> int:
        return 1 << self.response_bits

    def stable_response(self, challenge: int) -> int:
        self._check_challenge(challenge)
        digest = hashlib.sha256(
            b"puf:" + (self.device_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            + challenge.to_bytes(4, "big")).digest()
        return int.from_bytes(digest[:8], "big") & (self.response_count - 1)

    def stable(self, challenge: int) -> int:
        """:meth:`stable_response`, computed once per challenge."""
        stable = self._stable.get(challenge)
        if stable is None:
            stable = self._stable[challenge] = self.stable_response(challenge)
        return stable

    def query(self, challenge: int, query_rng=None) -> int:
        """Device response; noisy with probability ``noise_rate``."""
        stable = self.stable(challenge)
        if self.noise_rate <= 0.0:
            return stable
        if query_rng is None:
            raise PufParameterError("a noisy device needs a query stream")
        if query_rng.random() >= self.noise_rate:
            return stable
        flipped = query_rng.randrange(self.response_count - 1)
        if flipped >= stable:
            flipped += 1
        return flipped

    @cached_property
    def _coin_bound(self) -> int:
        """The least word ``w`` for which ``w / 2.0 ** 64 < noise_rate``
        is false: :meth:`query`'s noise coin fires exactly on the words
        below it.  The word is rounded to a float before it is compared,
        and rounding keeps the test monotone in ``w``, so bisection on
        that same test finds the bound; it is false at ``2 ** 64``, and
        so the bound is below it."""
        rate = self.noise_rate
        lo, hi = 0, 1 << 64
        while lo < hi:
            mid = (lo + hi) // 2
            if mid / 2.0 ** 64 < rate:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def flips_at(self, challenge: int, seed: int, site: str
                 ) -> Optional[tuple[Callable[[int], bool],
                                     Callable[[int], int]]]:
        """The noise at a site of a run, staged once per site: ``None``
        on a noise-free device, else ``(fires, flipped)``.  Where
        ``fires(step)`` holds, :meth:`query` with the noise stream named
        after this device and (seed, step, site) flips the response at
        ``step``, to ``flipped(step)``; elsewhere it gives the stable
        response.  The caller tests the coin itself and calls
        ``flipped`` only where it fires.  The noise coin is one block of
        the stream compared with a bound found once per device
        (:func:`~casmkit.rng.step_below`): its word ``#0`` is below the
        bound exactly where ``random() < noise_rate``.  Word ``#1``,
        which :meth:`query`'s ``randrange`` reads for the flipped
        response, is hashed on its own (:func:`~casmkit.rng.step_words`)
        by ``flipped``."""
        if self.noise_rate <= 0.0:
            return None
        prefix = ("pufnoise", self.device_seed, seed)
        word = step_words(prefix, site, 1)
        stable = self.stable(challenge)
        others = self.response_count - 1

        def flipped(step: int) -> int:
            response = word(step) % others
            return response + 1 if response >= stable else response
        return step_below(prefix, site, self._coin_bound), flipped

    def _check_challenge(self, challenge: int) -> None:
        if not 0 <= challenge < self.challenge_count:
            raise PufParameterError(
                f"challenge {challenge} outside {self.challenge_bits}-bit space")

    def fingerprint(self) -> str:
        return _fingerprint(self, self.challenge_count)


def make_device(device_seed: int, challenge_bits: int, response_bits: int,
                noise_rate: float = 0.0) -> PufDevice:
    return PufDevice(device_seed, challenge_bits, response_bits, noise_rate)


def _majority_readout(device, challenge: int, vote_rng) -> Optional[int]:
    """The majority of nine queries, or ``None`` when no response has
    more than half the votes.  A noise-free device's queries all give
    its stable response, which is then the readout.  The queries stop at
    the first response to win more than half: no later vote can change
    the majority, and every caller reads each challenge from a stream of
    its own, so the votes not taken draw nothing another readout would."""
    if device.noise_rate <= 0.0:
        return device.stable(challenge)
    counts: dict[int, int] = {}
    for _ in range(_MAJORITY_ROUNDS):
        r = device.query(challenge, vote_rng)
        votes = counts[r] = counts.get(r, 0) + 1
        if votes * 2 > _MAJORITY_ROUNDS:
            return r
    return None


def _fingerprint(device, challenge_count: int) -> str:
    """The device's majority readouts of its first 64 challenges, hashed.
    Only a noisy device's readout reads the stream ("fingerprint", c) of
    challenge ``c``, so only a noisy device's probes derive it."""
    probes = min(challenge_count, 64)
    noisy = device.noise_rate > 0.0
    parts = []
    for c in range(probes):
        rng = derive_rng("fingerprint", c) if noisy else None
        r = _majority_readout(device, c, rng)
        parts.append(f"{c}:{'?' if r is None else r}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Enrollment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnrolledTransition:
    source: Value
    target: Value
    challenge: int
    response: int


@dataclass
class Enrollment:
    """Binding of a program's control-state transitions to one device."""

    ctl_name: str
    transitions: tuple[EnrolledTransition, ...]
    init_token: int
    init_state: Value
    challenge_bits: int
    response_bits: int
    fingerprint: str
    version: int = ENROLLMENT_VERSION
    _decode: dict = field(default_factory=dict, compare=False, repr=False)
    _encodings: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._decode.clear()
        self._encodings.clear()
        for t in self.transitions:
            if t.response in self._decode or t.response == self.init_token:
                raise CasmError(f"enrolled response {t.response} is reused")
            self._decode[t.response] = t.target
            self._encodings.setdefault(t.target, []).append(t.response)

    def decode_stored(self, value: int) -> Optional[Value]:
        """Plain state of a stored control value; the reserved token
        stands for the initial state."""
        if value == self.init_token:
            return self.init_state
        return self._decode.get(value)

    def encodings(self, state: Value) -> tuple[int, ...]:
        """Responses that decode to ``state`` (first is lowest in
        transition order)."""
        return tuple(self._encodings.get(state, ()))

    def challenge_for(self, source: Value, target: Value) -> int:
        for t in self.transitions:
            if t.source == source and t.target == target:
                return t.challenge
        raise CasmError(
            f"no enrolled transition {format_value(source)} -> "
            f"{format_value(target)}")

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "ctlFunction": self.ctl_name,
            "initToken": self.init_token,
            "initState": self.init_state,
            "challengeBits": self.challenge_bits,
            "responseBits": self.response_bits,
            "fingerprint": self.fingerprint,
            "transitions": [
                {"from": t.source, "to": t.target,
                 "challenge": t.challenge, "response": t.response}
                for t in self.transitions
            ],
        }, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Enrollment":
        try:
            raw = json.loads(text)
            return cls(
                ctl_name=raw["ctlFunction"],
                transitions=tuple(
                    EnrolledTransition(t["from"], t["to"],
                                       _integer(t, "challenge"),
                                       _integer(t, "response"))
                    for t in raw["transitions"]),
                init_token=_integer(raw, "initToken"),
                init_state=raw["initState"],
                challenge_bits=_integer(raw, "challengeBits"),
                response_bits=_integer(raw, "responseBits"),
                fingerprint=raw.get("fingerprint", ""),
                version=int(raw.get("version", 1)),
            )
        except KeyError as exc:
            raise CasmError(f"enrollment lacks field {exc}") from None
        except (ValueError, TypeError) as exc:
            raise CasmError(f"malformed enrollment: {exc}") from None


def _integer(fields: dict, key: str) -> int:
    if type(fields[key]) is not int:
        raise CasmError(f"enrollment field {key!r} is not an integer")
    return fields[key]


def _challenge_order(device, budget: int):
    count = device.challenge_count
    if count <= (1 << 16):
        yield from range(min(count, budget))
        return
    seen: set[int] = set()
    emitted = 0
    k = 0
    while emitted < budget and len(seen) < count:
        rng = derive_rng("enroll-scan", device.challenge_bits, k)
        c = rng.randrange(count)
        k += 1
        if c in seen:
            continue
        seen.add(c)
        emitted += 1
        yield c


def enroll(device, transitions: Sequence[tuple[Value, Value]],
           initial_state: Value, attempt_budget: int = 65536) -> Enrollment:
    """Select one challenge per transition with pairwise-distinct stable
    responses, all distinct from the reserved initial-state token."""
    n = len(transitions)
    if n == 0:
        return Enrollment(ctl_name="", transitions=(), init_token=0,
                          init_state=initial_state,
                          challenge_bits=device.challenge_bits,
                          response_bits=device.response_bits,
                          fingerprint=device.fingerprint())
    if n + 1 > device.response_count or n > device.challenge_count:
        raise EnrollmentExhausted(
            f"device cannot encode {n} transitions plus an initial token "
            f"({device.challenge_bits}-bit challenges, "
            f"{device.response_bits}-bit responses)")

    chosen: list[tuple[int, int]] = []
    taken: set[int] = set()
    probed = 0
    unstable = 0
    for challenge in _challenge_order(device, attempt_budget):
        probed += 1
        readout = _majority_readout(
            device, challenge, derive_rng("enroll-readout", challenge))
        if readout is None:
            unstable += 1
            continue
        if readout in taken:
            continue
        chosen.append((challenge, readout))
        taken.add(readout)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        if probed and unstable == probed:
            raise NoisyReadout(
                f"no stable readout in {probed} challenges at noise rate "
                f"{getattr(device, 'noise_rate', 0.0)}")
        raise EnrollmentExhausted(
            f"found only {len(chosen)} of {n} injective challenges within "
            f"{probed} probes")

    init_token = 0
    while init_token in taken:
        init_token += 1

    enrolled = tuple(
        EnrolledTransition(src, dst, challenge, response)
        for (src, dst), (challenge, response) in zip(transitions, chosen))
    return Enrollment(
        ctl_name="",
        transitions=enrolled,
        init_token=init_token,
        init_state=initial_state,
        challenge_bits=device.challenge_bits,
        response_bits=device.response_bits,
        fingerprint=device.fingerprint(),
    )
