import math
import random

import numpy as np
import pytest

from rwsparse.model import l0_norm
from rwsparse.probgen import (
    EnsembleSpec,
    eta_from_sigma,
    gen_noiseless,
    gen_noisy,
    sample_support,
    standard_normal,
)


class TestEnsembleSpec:
    def test_valid(self):
        EnsembleSpec(n=256, m=100, s=20)

    def test_s_equal_n_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, m=5, s=10)

    def test_m_not_below_n_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, m=10, s=2)

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, m=5, s=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=10, m=5, s=2, sigma=-0.1)

    @pytest.mark.parametrize(
        "fields",
        [{"n": 256.0}, {"m": 100.0}, {"s": 20.0}, {"seed": 1.5}, {"seed": True}, {"s": True},
         {"seed": "1"}],
    )
    def test_sizes_and_seed_must_be_integers(self, fields):
        # the floats and the string once reached the draw as a raw TypeError,
        # and a bool passed as the integer it equals
        spec = {"n": 256, "m": 100, "s": 20, "seed": 0, **fields}
        name, value = next(iter(fields.items()))
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            gen_noiseless(EnsembleSpec(**spec))

    def test_numpy_integers_are_integers(self):
        drawn = gen_noiseless(EnsembleSpec(n=np.int64(24), m=np.int32(12), s=np.int64(3),
                                           seed=np.uint32(5)))
        assert np.array_equal(drawn.phi, gen_noiseless(EnsembleSpec(n=24, m=12, s=3, seed=5)).phi)


@pytest.mark.parametrize(
    "make",
    [lambda: EnsembleSpec(n=10, m=5, s=2, sigma=np.nan), lambda: eta_from_sigma(np.nan, 10)],
    ids=["EnsembleSpec", "eta_from_sigma"],
)
def test_nan_sigma_is_rejected(make):
    with pytest.raises(ValueError, match="sigma"):
        make()


class TestEtaFromSigma:
    def test_paper_calibration_point(self):
        # m = 128: eta^2 = 128 + 2 sqrt(256) = 160
        eta = eta_from_sigma(1.0, 128)
        assert eta**2 == pytest.approx(160.0)

    def test_zero_sigma(self):
        assert eta_from_sigma(0.0, 128) == 0.0

    def test_sigma_scaling(self):
        assert eta_from_sigma(2.0, 128) ** 2 == pytest.approx(640.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            eta_from_sigma(-1.0, 10)
        with pytest.raises(ValueError):
            eta_from_sigma(1.0, 0)


class TestDeterminism:
    def test_noiseless_bit_identical(self):
        a = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=123))
        b = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=123))
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_star, b.x_star)
        assert a.content_digest() == b.content_digest()

    def test_noisy_bit_identical(self):
        a = gen_noisy(EnsembleSpec(n=64, m=24, s=6, sigma=0.1, seed=7))
        b = gen_noisy(EnsembleSpec(n=64, m=24, s=6, sigma=0.1, seed=7))
        assert a.content_digest() == b.content_digest()

    def test_different_seeds_differ(self):
        a = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=1))
        b = gen_noiseless(EnsembleSpec(n=64, m=24, s=6, seed=2))
        assert a.content_digest() != b.content_digest()

    def test_sigma_zero_reduces_to_noiseless(self):
        clean = gen_noiseless(EnsembleSpec(n=32, m=12, s=4, seed=9))
        noisy = gen_noisy(EnsembleSpec(n=32, m=12, s=4, sigma=0.0, seed=9))
        assert np.array_equal(clean.phi, noisy.phi)
        assert np.array_equal(clean.b, noisy.b)
        assert np.array_equal(clean.x_star, noisy.x_star)
        assert noisy.eta == 0.0

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_noiseless(EnsembleSpec(n=32, m=12, s=4, sigma=0.1, seed=0))
        with pytest.raises(ValueError):
            gen_noisy(EnsembleSpec(n=32, m=12, s=4, seed=0))


class TestDistributions:
    def test_columns_normalized_in_expectation(self):
        sq = []
        for seed in range(10):
            inst = gen_noiseless(EnsembleSpec(n=256, m=100, s=20, seed=seed))
            sq.extend(np.sum(inst.phi**2, axis=0))
        assert abs(np.mean(sq) - 1.0) <= 0.15

    def test_signal_normalized_in_expectation(self):
        sq = [
            float(np.sum(gen_noiseless(EnsembleSpec(n=64, m=32, s=8, seed=seed)).x_star ** 2))
            for seed in range(1000)
        ]
        assert abs(np.mean(sq) - 1.0) <= 0.15

    def test_sparsity_bound(self):
        for seed in range(20):
            inst = gen_noiseless(EnsembleSpec(n=48, m=20, s=5, seed=seed))
            assert l0_norm(inst.x_star, 0.0) <= 5

    def test_consistency_noiseless(self):
        inst = gen_noiseless(EnsembleSpec(n=48, m=20, s=5, seed=3))
        assert np.linalg.norm(inst.phi @ inst.x_star - inst.b) <= 1e-12

    def test_noise_feasibility_frequency(self):
        # P(||z||^2 <= eta^2) with eta^2 = sigma^2 (m + 2 sqrt(2m)) is ~0.971
        rng = np.random.Generator(np.random.PCG64(0))
        m = 128
        eta_sq = eta_from_sigma(1.0, m) ** 2
        inside = 0
        draws = 2000
        for _ in range(draws):
            z = standard_normal(rng, m)
            inside += float(z @ z) <= eta_sq
        assert 0.94 <= inside / draws <= 1.0

    def test_standard_normal_moments(self):
        rng = np.random.Generator(np.random.PCG64(42))
        z = standard_normal(rng, 200_001)  # odd size exercises truncation
        assert abs(float(z.mean())) <= 0.01
        assert abs(float(z.var()) - 1.0) <= 0.02

    def test_support_sampler(self):
        rng = np.random.Generator(np.random.PCG64(5))
        n, s = 20, 6
        seen = np.zeros(n)
        draws = 3000
        for _ in range(draws):
            sup = sample_support(rng, n, s)
            assert sup.size == s
            assert np.all(np.diff(sup) > 0)
            assert sup.min() >= 0 and sup.max() < n
            seen[sup] += 1
        freq = seen / draws
        assert np.all(np.abs(freq - s / n) <= 0.05)


class TestNoisyGeneration:
    def test_eta_set_from_sigma(self):
        inst = gen_noisy(EnsembleSpec(n=64, m=32, s=6, sigma=0.2, seed=1))
        assert inst.eta == pytest.approx(eta_from_sigma(0.2, 32))
        assert inst.sigma == 0.2

    def test_noise_level_plausible(self):
        # ||b - phi x*|| concentrates near sigma sqrt(m)
        norms = []
        for seed in range(200):
            inst = gen_noisy(EnsembleSpec(n=48, m=24, s=5, sigma=0.1, seed=seed))
            norms.append(np.linalg.norm(inst.b - inst.phi @ inst.x_star))
        assert np.mean(norms) == pytest.approx(0.1 * np.sqrt(24), rel=0.1)


def _fisher_yates(rng, n, s):
    """The reference support draw: one bounded integer per step."""
    idx = np.arange(n)
    for i in range(s):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:s])


def _box_muller(rng, size):
    """The reference normal draw: separate arrays joined by concatenate."""
    if size == 0:
        return np.zeros(0)
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:size]


class TestStreams:
    """The draws are pinned to their reference forms directly, value and
    generator state, not only through the digests of generated panels."""

    def test_support_is_the_scalar_fisher_yates_draw(self):
        cases = random.Random(0)
        for _ in range(600):
            seed, n = cases.randrange(2**32), cases.randrange(2, 400)
            s, before = cases.randrange(1, n), cases.randrange(4)
            ref = np.random.Generator(np.random.PCG64(seed))
            got = np.random.Generator(np.random.PCG64(seed))
            # bounded draws before the support leave PCG64 holding half of
            # a 64-bit output, which the support's draws may take next
            ref.integers(0, 1000, size=before)
            got.integers(0, 1000, size=before)
            want = _fisher_yates(ref, n, s)
            support = sample_support(got, n, s)
            assert support.dtype == want.dtype and support.tobytes() == want.tobytes()
            assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [0, 1, 2, 37, 38, 25_600])
    def test_standard_normal_is_the_concatenated_form(self, size):
        for seed in range(40):
            ref = np.random.Generator(np.random.PCG64(seed))
            got = np.random.Generator(np.random.PCG64(seed))
            want = _box_muller(ref, size)
            z = standard_normal(got, size)
            assert z.shape == (size,) and z.tobytes() == want.tobytes()
            assert got.bit_generator.state == ref.bit_generator.state
