"""One-shot draws: ``first_words`` gives the first word of the stream
``derive_rng`` names, and the noise coin of ``PufDevice.query_at``
draws as the full noise stream does."""
import itertools
import random

import pytest

from casmkit.puf import make_device
from casmkit.rng import derive_rng, first_words


def random_part(rnd):
    kind = rnd.randrange(4)
    if kind == 0:
        return rnd.randrange(1 << 64)
    if kind == 1:
        return -rnd.randrange(1, 1 << 40)
    if kind == 2:
        return rnd.randrange(100)
    alphabet = "ab|#0 é"
    return "".join(rnd.choice(alphabet) for _ in range(rnd.randrange(8)))


def random_parts(rnd):
    return [random_part(rnd) for _ in range(rnd.randrange(1, 6))]


class TestFirstWords:
    def test_equals_the_first_draw_of_the_named_stream(self):
        rnd = random.Random(11)
        for _ in range(2000):
            parts = random_parts(rnd)
            split = rnd.randrange(len(parts))
            word = first_words(*parts[:split])(*parts[split:])
            assert word / 2 ** 64 == derive_rng(*parts).random(), parts
            n = rnd.choice([1, 2, 3, 7, 1000, rnd.randrange(1, 1 << 32)])
            assert word % n == derive_rng(*parts).randrange(n), (parts, n)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_each_rest_width_hashes_the_stream_label(self, width):
        # one- and two-part rests take their own formatting path
        parts = ["main#0", "", "a|b", 7, 0, -12, True, False]
        for prefix in ((), ("fallback", 5), ("pufnoise", -3, 1 << 40)):
            word = first_words(*prefix)
            for rest in itertools.product(parts, repeat=width):
                assert word(*rest) == \
                    derive_rng(*prefix, *rest).randrange(1 << 64), rest

    def test_a_prefix_serves_many_streams(self):
        word = first_words("fallback", -7)
        for step in range(200):
            for site in ("main#0", "a|b#1", ""):
                assert word(step, site) % 5 == \
                    derive_rng("fallback", -7, step, site).randrange(5)

    def test_a_separator_in_a_part_joins_as_the_stream_label_does(self):
        # "a|b" then "c" and "a" then "b|c" name one stream
        assert first_words("a|b")("c") == first_words("a")("b|c") == \
            first_words()("a", "b", "c")

    def test_needs_a_part_after_the_prefix(self):
        with pytest.raises(TypeError):
            first_words("fallback", 1)()


class TestQueryAt:
    @pytest.mark.parametrize("noise", [0.0, 0.05, 1.0])
    def test_equals_a_query_on_the_noise_stream(self, noise):
        rnd = random.Random(5)
        flips = 0
        for device_seed in (42, 999, -3):
            device = make_device(device_seed, 16, 16, noise)
            for _ in range(400):
                challenge = rnd.randrange(1 << 16)
                seed = rnd.choice([0, 5, -1, 1 << 40])
                step = rnd.randrange(10_000)
                site = rnd.choice(["main#0", "lane|1#2", "r#1000"])
                got = device.query_at(challenge, seed, step, site)
                expected = device.query(challenge, derive_rng(
                    "pufnoise", device_seed, seed, step, site))
                assert got == expected, (device_seed, seed, step, site)
                flips += got != device.stable_response(challenge)
        if noise == 0.0:
            assert flips == 0
        elif noise == 1.0:
            assert flips == 1200
        else:
            assert 20 <= flips <= 110
