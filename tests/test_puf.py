import json
from collections import Counter

import pytest

from casmkit.ast import CasmError
from casmkit.puf import (
    Enrollment, EnrollmentExhausted, NoisyReadout, PufParameterError,
    TraceDevice, enroll, make_device,
)
from casmkit.rng import derive_rng

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
            assert e.decode(t.response) == t.target
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


class TestTraceDevice:
    def test_scripted_responses(self, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps({"0": 7, "1": 9}))
        device = TraceDevice.load(str(path))
        assert device.query(0) == 7
        assert device.query(1) == 9
        with pytest.raises(PufParameterError):
            device.query(2)
