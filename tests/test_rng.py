"""One-shot draws: ``step_words`` gives the first word of the stream
``derive_rng`` names at each step of a site, ``step_below`` tells whether
that word is below a bound, and the noise coin of ``PufDevice.flips_at``
draws as the full noise stream does."""
import itertools
import math
import random

import pytest

from casmkit.puf import make_device
from casmkit.rng import derive_rng, step_below, step_words

from reference_runtime import query_at


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
    return [random_part(rnd) for _ in range(rnd.randrange(0, 4))]


PARTS = ["main#0", "", "a|b", 7, 0, -12, True, False, 1 << 64]

# the rates of the noise coin held against ``word / 2.0 ** 64 < rate``:
# the smallest, a power of two, common ones, and the largest below 1
RATES = [1e-300, 2 ** -40, 0.001, 0.05, 1 / 3, 0.5, 1 - 2 ** -53, 1.0]


class TestStepWords:
    def test_equals_the_first_draw_of_the_named_stream(self):
        rnd = random.Random(11)
        for _ in range(2000):
            prefix = random_parts(rnd)
            step, site = random_part(rnd), random_part(rnd)
            word = step_words(prefix, site)(step)
            parts = [*prefix, step, site]
            assert word / 2 ** 64 == derive_rng(*parts).random(), parts
            n = rnd.choice([1, 2, 3, 7, 1000, rnd.randrange(1, 1 << 32)])
            assert word % n == derive_rng(*parts).randrange(n), (parts, n)

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_each_part_kind_hashes_the_stream_label(self, width):
        # int, bool and str parts, negative ones and "|" inside a part,
        # in the prefix, the step and the site
        for prefix in itertools.product(PARTS, repeat=width):
            for site in PARTS:
                word = step_words(prefix, site)
                for step in PARTS:
                    assert word(step) == derive_rng(
                        *prefix, step, site).randrange(1 << 64), \
                        (prefix, step, site)

    def test_a_site_serves_every_step(self):
        for prefix in (("fallback", -7), ("pufnoise", -3, 1 << 40, 5)):
            for site in ("main#0", "a|b#1", ""):
                word = step_words(prefix, site)
                for step in range(200):
                    assert word(step) % 5 == \
                        derive_rng(*prefix, step, site).randrange(5)

    def test_negative_seeds_draw_their_own_streams(self):
        words = {step_words(("fallback", seed), "main#0")(3)
                 for seed in (-1, 1, -(1 << 63), 1 << 63)}
        assert len(words) == 4
        assert step_words(("fallback", -1), "main#0")(3) / 2 ** 64 == \
            derive_rng("fallback", -1, 3, "main#0").random()

    def test_a_separator_in_a_part_joins_as_the_stream_label_does(self):
        # "a|b" then "c" and "a" then "b|c" name one stream
        assert step_words(("a|b",), "d")("c") == \
            step_words(("a",), "d")("b|c") == \
            step_words((), "d")("a|b|c") == \
            step_words((), "c|d")("a|b")


class TestStepBelow:
    def test_fires_where_the_first_word_is_below_the_bound(self):
        # bounds at the word itself and beside it: a digest whose first
        # eight bytes equal the bound's does not sort below them
        rnd = random.Random(13)
        for _ in range(2000):
            prefix = random_parts(rnd)
            step, site = random_part(rnd), random_part(rnd)
            word = step_words(prefix, site)(step)
            for bound in (0, word - 1, word, word + 1, (1 << 64) - 1,
                          rnd.randrange(1 << 64)):
                if 0 <= bound < 1 << 64:
                    assert step_below(prefix, site, bound)(step) == \
                        (word < bound), (prefix, step, site, bound)

    @pytest.mark.parametrize("rate", RATES)
    def test_the_device_bound_splits_the_words_as_the_rate_does(self, rate):
        bound = make_device(42, 16, 16, rate)._coin_bound
        assert 0 < bound < 1 << 64
        rnd = random.Random(str(rate))
        words = [bound - 1, bound, bound + 1, 0, (1 << 64) - 1]
        words += [rnd.randrange(1 << 64) for _ in range(10_000)]
        # words whose float rounds near the bound's
        words += [min(max(0, bound + rnd.randrange(-1 << 12, 1 << 12)),
                      (1 << 64) - 1) for _ in range(1000)]
        for word in words:
            assert (word < bound) == (word / 2.0 ** 64 < rate), word


class TestQueryAt:
    # 1-bit responses flip to the one other response, and 3-bit ones
    # often to a response above the stable one
    @pytest.mark.parametrize("bits", [1, 3, 16])
    @pytest.mark.parametrize("noise", [0.0, *RATES])
    def test_equals_a_query_on_the_noise_stream(self, noise, bits):
        rnd = random.Random(5)
        flips = 0
        for device_seed in (42, 999, -3):
            device = make_device(device_seed, 16, bits, noise)
            for _ in range(400):
                challenge = rnd.randrange(1 << 16)
                seed = rnd.choice([0, 5, -1, 1 << 40])
                step = rnd.randrange(10_000)
                site = rnd.choice(["main#0", "lane|1#2", "r#1000"])
                got = query_at(device, challenge, seed, step, site)
                expected = device.query(challenge, derive_rng(
                    "pufnoise", device_seed, seed, step, site))
                assert got == expected, (device_seed, seed, step, site)
                flips += got != device.stable_response(challenge)
        if noise == 0.0:
            assert flips == 0
        elif noise == 1.0:
            assert flips == 1200
        elif noise == 0.05:
            assert 20 <= flips <= 110
        else:
            # within five standard deviations of 1200 coins' mean
            mean = 1200 * noise
            assert abs(flips - mean) <= 5 * math.sqrt(mean * (1 - noise)) + 1
