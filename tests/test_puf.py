import json
import math
from collections import Counter

import pytest

from casmkit.ast import CasmError
from casmkit.puf import (
    Enrollment, EnrollmentExhausted, NoisyReadout, PufParameterError,
    _majority_readout, enroll, make_device,
)
from casmkit.rng import derive_rng

from reference_runtime import flip_at

TRAFFIC_A = [("Stop1Stop2", "Go1Stop2"), ("Go1Stop2", "Stop2Stop1"),
             ("Stop2Stop1", "Go2Stop1"), ("Go2Stop1", "Stop1Stop2")]


class TestDevice:
    def test_noise_free_query_is_deterministic(self):
        device = make_device(42, 16, 16, 0.0)
        assert device.query(123) == device.query(123)

    def test_distinct_seeds_disagree_almost_everywhere(self):
        a = make_device(42, 16, 16, 0.0)
        b = make_device(43, 16, 16, 0.0)
        rng = derive_rng("challenge-sample")
        challenges = [rng.randrange(1 << 16) for _ in range(1000)]
        differing = sum(a.stable_response(c) != b.stable_response(c)
                        for c in challenges)
        # expected collision rate is 2**-16 per challenge
        assert differing >= 970

    def test_full_noise_always_flips(self):
        device = make_device(42, 8, 8, 1.0)
        for c in range(32):
            rng = derive_rng("noise-test", c)
            assert device.query(c, rng) != device.stable_response(c)

    def test_equal_parameters_equal_table(self):
        a = make_device(7, 8, 8, 0.0)
        b = make_device(7, 8, 8, 0.0)
        assert [a.stable_response(c) for c in range(256)] == \
            [b.stable_response(c) for c in range(256)]

    def test_challenge_space_bound(self):
        device = make_device(1, 2, 8, 0.0)
        assert device.challenge_count == 4
        for c in range(4):
            device.stable_response(c)
        with pytest.raises(PufParameterError):
            device.stable_response(4)

    def test_response_histogram_is_balanced(self):
        # degenerate response functions would pile many challenges onto
        # few values; the keyed construction stays close to uniform
        device = make_device(42, 8, 8, 0.0)
        hist = Counter(device.stable_response(c) for c in range(256))
        assert max(hist.values()) <= 8

    def test_parameter_validation(self):
        with pytest.raises(PufParameterError):
            make_device(1, 0, 8)
        with pytest.raises(PufParameterError):
            make_device(1, 8, 33)
        with pytest.raises(PufParameterError):
            make_device(1, 8, 8, 1.5)

    def test_noise_rate_calibration(self):
        device = make_device(42, 16, 16, 0.1)
        rng = derive_rng("calibration")
        flips = sum(device.query(c % 16, rng) != device.stable_response(c % 16)
                    for c in range(10000))
        assert abs(flips / 10000 - 0.1) <= 0.02


class TestNoiseCoin:
    """The coin of ``flips_at`` is ``word / 2.0 ** 64 < rate``, as the
    first ``random()`` of the noise stream in ``query``: the word is
    rounded to a float before the comparison."""

    DEVICE_SEED, SEED, SITE, CHALLENGE = 999, 7, "main#0", 5

    def rounded_up_word(self):
        """A step whose coin word ``w`` rounds up in ``float(w)``, with
        that word."""
        for step in range(1000):
            word = derive_rng("pufnoise", self.DEVICE_SEED, self.SEED, step,
                              self.SITE).randrange(1 << 64)
            if int(float(word)) > word and word > 1 << 62:
                return step, word
        raise AssertionError("no word rounds up")

    def flip(self, rate, step):
        device = make_device(self.DEVICE_SEED, 16, 16, rate)
        return flip_at(
            device.flips_at(self.CHALLENGE, self.SEED, self.SITE), step)

    def test_a_rate_equal_to_the_rounded_word_does_not_flip(self):
        step, word = self.rounded_up_word()
        rate = float(word) / 2 ** 64
        # as integers the word lies below the rate, as floats it equals it
        assert word < rate * 2 ** 64 and word / 2.0 ** 64 == rate
        assert self.flip(rate, step) is None
        # one ulp above, the coin flips the response
        assert self.flip(math.nextafter(rate, 2.0), step) is not None


def voted_readout(device, challenge, vote_rng):
    """Majority of nine queries, voted: the readout on any device."""
    votes = Counter(device.query(challenge, vote_rng) for _ in range(9))
    best, count = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
    return best if count * 2 > 9 else None


class TestMajorityReadout:
    @pytest.mark.parametrize("bits", [(1, 1), (8, 3), (16, 16), (32, 32)])
    def test_noise_free_readout_is_the_voted_one(self, bits):
        for seed in (7, 42, 1000):
            device = make_device(seed, *bits)
            for c in range(min(device.challenge_count, 64)):
                assert _majority_readout(
                    device, c, derive_rng("readout", c)) == voted_readout(
                    device, c, derive_rng("readout", c)) \
                    == device.stable(c)

    def test_noise_free_fingerprint_and_enrollment_are_the_voted_ones(
            self, monkeypatch):
        devices = [make_device(seed, 16, bits)
                   for seed in (7, 42) for bits in (3, 16)]
        fast = [(d.fingerprint(), enroll(d, TRAFFIC_A, "Stop1Stop2"))
                for d in devices]
        monkeypatch.setattr("casmkit.puf._majority_readout", voted_readout)
        assert fast == [(d.fingerprint(),
                         enroll(d, TRAFFIC_A, "Stop1Stop2"))
                        for d in devices]

    def test_fingerprint_derives_vote_streams_on_a_noisy_device_alone(
            self, monkeypatch):
        derived = []

        def counting(*name):
            derived.append(name)
            return derive_rng(*name)

        monkeypatch.setattr("casmkit.puf.derive_rng", counting)
        quiet = make_device(42, 16, 16).fingerprint()
        assert derived == []
        noisy = make_device(42, 16, 16, 0.05).fingerprint()
        assert derived == [("fingerprint", c) for c in range(64)]
        # at 5% noise every probe still reads the stable response
        assert noisy == quiet

    def test_noisy_readout_still_votes(self):
        device = make_device(42, 16, 16, 0.3)
        readouts = [(_majority_readout(device, c, derive_rng("readout", c)),
                     voted_readout(device, c, derive_rng("readout", c)))
                    for c in range(64)]
        assert all(a == b for a, b in readouts)
        assert any(a is None for a, _ in readouts)


    def test_noisy_readout_stops_at_a_majority(self):
        # the votes after a response wins five of nine cannot change it
        class Counting:
            def __init__(self, device):
                self.device, self.noise_rate, self.queries = \
                    device, device.noise_rate, 0

            def query(self, challenge, vote_rng):
                self.queries += 1
                return self.device.query(challenge, vote_rng)

        for noise, mean in ((0.05, 6), (0.3, 9)):
            device = Counting(make_device(42, 16, 16, noise))
            counts = []
            for c in range(64):
                device.queries = 0
                readout = _majority_readout(device, c, derive_rng(
                    "readout", c))
                assert readout == voted_readout(
                    device.device, c, derive_rng("readout", c))
                counts.append(device.queries)
            assert min(counts) == 5 and max(counts) <= 9
            assert sum(counts) < mean * len(counts)


class TestEnrollment:
    def test_traffic_light_enrollment(self):
        device = make_device(42, 16, 16, 0.0)
        e = enroll(device, TRAFFIC_A, "Stop1Stop2")
        assert len(e.transitions) == 4
        challenges = [t.challenge for t in e.transitions]
        responses = [t.response for t in e.transitions]
        assert len(set(challenges)) == 4
        assert len(set(responses)) == 4
        assert e.init_token not in responses
        for t in e.transitions:
            assert e.decode_stored(t.response) == t.target
            assert t.response in e.encodings(t.target)
        assert e.decode_stored(e.init_token) == "Stop1Stop2"

    def test_challenge_pigeonhole(self):
        with pytest.raises(EnrollmentExhausted):
            enroll(make_device(42, 1, 16, 0.0), TRAFFIC_A, "Stop1Stop2")

    def test_response_pigeonhole(self):
        with pytest.raises(EnrollmentExhausted):
            enroll(make_device(42, 16, 1, 0.0), TRAFFIC_A, "Stop1Stop2")

    def test_reproducible(self):
        a = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A, "Stop1Stop2")
        b = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A, "Stop1Stop2")
        assert a.to_json() == b.to_json()

    def test_enrollment_suppresses_noise(self):
        noiseless = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A,
                           "Stop1Stop2")
        noisy = enroll(make_device(42, 16, 16, 0.05), TRAFFIC_A, "Stop1Stop2")
        assert [t.response for t in noisy.transitions] == \
            [t.response for t in noiseless.transitions]

    def test_hopeless_noise_is_reported(self):
        # with two response values and certain flipping, readouts are
        # stably wrong; with a big space they never stabilize
        with pytest.raises(NoisyReadout):
            enroll(make_device(42, 8, 16, 1.0), TRAFFIC_A, "Stop1Stop2",
                   attempt_budget=64)

    def test_json_round_trip_and_stability(self):
        e = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A, "Stop1Stop2")
        text = e.to_json()
        again = Enrollment.from_json(text)
        assert again.to_json() == text
        assert [(t.source, t.target) for t in again.transitions] == TRAFFIC_A

    def test_non_injective_enrollment_is_rejected(self):
        e = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A, "Stop1Stop2")
        for response in (e.transitions[0].response, e.init_token):
            raw = json.loads(e.to_json())
            raw["transitions"][1]["response"] = response
            with pytest.raises(CasmError, match="reused"):
                Enrollment.from_json(json.dumps(raw))

    def test_transitions_keep_given_order(self):
        e = enroll(make_device(42, 16, 16, 0.0), TRAFFIC_A, "Stop1Stop2")
        assert [(t.source, t.target) for t in e.transitions] == TRAFFIC_A

