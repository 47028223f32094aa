import math

import numpy as np
import pytest
from scipy.stats import chi2

from screenqkd import photonics
from screenqkd.errors import ConfigError
from screenqkd.photonics import (
    DIAGONAL,
    PI,
    Origin,
    Photon,
    Pulse,
    angles_close,
    beam_split,
    born_probability,
    canon,
    make_pulse,
    measure,
    single_photon_pulse,
)

from conftest import binom_sigma


class TestCanonialization:
    def test_range(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-100, 100, size=2000):
            c = canon(x)
            assert 0.0 <= c < PI

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-50, 50, size=1000):
            assert canon(canon(x)) == canon(x)

    def test_axis_identification(self):
        assert angles_close(canon(0.3), canon(0.3 + PI))
        assert angles_close(canon(0.1), canon(0.1 - 3 * PI))

    def test_tiny_negative_angles_map_to_zero(self):
        # x % pi rounds up to exactly pi for -2.2e-16 < x < 0
        for x in (-1e-17, -1e-20):
            assert canon(x) == 0.0
            assert Photon(x).polarization == 0.0


def rotate(state: float, delta: float) -> float:
    return Photon(state).rotated(delta).polarization


class TestRotate:
    def test_canonicalizes_once(self, monkeypatch):
        calls = []
        real_canon = photonics.canon

        def counting_canon(radians):
            calls.append(radians)
            return real_canon(radians)

        photon = Photon(2.9)
        monkeypatch.setattr(photonics, "canon", counting_canon)
        assert photon.rotated(0.5).polarization == real_canon(3.4)
        assert len(calls) == 1

    def test_identity(self):
        assert rotate(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_additive(self):
        assert rotate(0.3, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_mod_pi_wrap(self):
        # independent fmod computation of 2.9 + 0.5 reduced mod pi
        expected = math.fmod(3.4, PI)
        assert rotate(2.9, 0.5) == pytest.approx(expected, abs=1e-12)
        assert rotate(2.9, 0.5) == pytest.approx(0.2584073464102069, abs=1e-9)

    def test_group_action(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            s, a, b = rng.uniform(-50, 50, size=3)
            composed = rotate(rotate(s, a), b)
            direct = rotate(s, a + b)
            assert angles_close(composed, direct, tol=1e-12)


class TestMeasure:
    def test_aligned_deterministic(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert measure(Photon(PI / 4), PI / 4, rng) == 0

    def test_orthogonal_deterministic(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert measure(Photon(3 * PI / 4), PI / 4, rng) == 1

    def test_unbiased_at_45_degrees(self):
        rng = np.random.default_rng(6)
        n = 100_000
        mean = sum(measure(Photon(0.0), DIAGONAL, rng) for _ in range(n)) / n
        assert abs(mean - 0.5) <= 0.01

    def test_born_rule_chi_squared(self):
        # 16 angle differences, 1e4 samples each, chi-squared against cos^2
        rng = np.random.default_rng(7)
        samples = 10_000
        statistic = 0.0
        for i in range(16):
            delta = (i + 0.5) * PI / 16
            expected0 = math.cos(delta) ** 2 * samples
            expected1 = samples - expected0
            ones = sum(
                measure(Photon(delta), 0.0, rng)
                for _ in range(samples)
            )
            zeros = samples - ones
            statistic += (zeros - expected0) ** 2 / expected0
            statistic += (ones - expected1) ** 2 / expected1
        assert statistic < chi2.ppf(0.999, df=16)

    def test_outcome_probabilities_exhaustive(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            s, a = rng.uniform(0, PI, size=2)
            p0 = born_probability(s, a)
            p1 = born_probability(s, a + PI / 2)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_basis_axes_orthogonal(self):
        # an axis and the same axis plus pi are one analyzer: same outcomes
        # from the same generator state
        photon = Photon(0.4)
        for axis in (0.0, 1.234, PI / 4, 3.0):
            rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
            a = [measure(photon, axis, rng_a) for _ in range(200)]
            b = [measure(photon, axis + PI, rng_b) for _ in range(200)]
            assert a == b and set(a) == {0, 1}


class TestPulsePreparation:
    def test_vacuum_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            assert make_pulse(0.7, 0.0, rng).count == 0

    def test_poisson_sample_mean(self):
        rng = np.random.default_rng(10)
        n = 100_000
        mean = sum(make_pulse(0.7, 2.0, rng).count for _ in range(n)) / n
        assert abs(mean - 2.0) <= 0.05

    def test_single_photon_forced(self):
        pulse = single_photon_pulse(0.3)
        assert pulse.count == 1
        assert pulse.photons[0].polarization == pytest.approx(0.3)
        assert pulse.photons[0].origin is Origin.LEGITIMATE

    def test_shared_polarization(self):
        rng = np.random.default_rng(11)
        pulse = make_pulse(2.5, 6.0, rng)
        for photon in pulse.photons:
            assert photon.polarization == pytest.approx(canon(2.5))

    def test_negative_mean_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ConfigError):
            make_pulse(0.0, -0.1, rng)
        with pytest.raises(ConfigError):
            make_pulse(0.0, 101.0, rng)


class TestBeamSplit:
    def test_tap_zero(self):
        rng = np.random.default_rng(13)
        pulse = make_pulse(0.2, 4.0, rng)
        tapped, passed = beam_split(pulse, 0.0, rng)
        assert tapped.is_empty
        assert passed.photons == pulse.photons

    def test_tap_one(self):
        rng = np.random.default_rng(14)
        pulse = make_pulse(0.2, 4.0, rng)
        tapped, passed = beam_split(pulse, 1.0, rng)
        assert passed.is_empty
        assert tapped.photons == pulse.photons

    def test_binomial_mean(self):
        rng = np.random.default_rng(15)
        pulse = Pulse(tuple(Photon(0.1) for _ in range(100_000)))
        tapped, passed = beam_split(pulse, 0.3, rng)
        assert abs(tapped.count - 30_000) <= 450
        assert tapped.count + passed.count == 100_000

    def test_conserves_photons(self):
        rng = np.random.default_rng(16)
        pulse = Pulse(tuple(Photon(i * 0.01, Origin.LEGITIMATE) for i in range(50)))
        tapped, passed = beam_split(pulse, 0.5, rng)
        merged = sorted(p.polarization for p in tapped.photons + passed.photons)
        assert merged == sorted(p.polarization for p in pulse.photons)

    def test_origin_blind(self):
        # tapped fraction must not depend on the diagnostic origin tag
        rng = np.random.default_rng(17)
        n = 50_000
        photons = tuple(Photon(0.4, Origin.LEGITIMATE) for _ in range(n)) + tuple(
            Photon(0.4, Origin.TROJAN_INJECTED) for _ in range(n)
        )
        tapped, _ = beam_split(Pulse(photons), 0.3, rng)
        legit = sum(p.origin is Origin.LEGITIMATE for p in tapped.photons)
        trojan = tapped.count - legit
        tol = 4 * math.sqrt(2) * binom_sigma(0.3, n) * n
        assert abs(legit - trojan) <= tol

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ConfigError):
            beam_split(Pulse((Photon(0.0),)), 1.5, rng)
        with pytest.raises(ConfigError):
            beam_split(Pulse((Photon(0.0),)), -0.1, rng)


def test_photon_immutable():
    photon = Photon(0.5)
    with pytest.raises(AttributeError):
        photon.polarization = 0.6  # type: ignore[misc]


def test_pulse_rotation_preserves_origin():
    pulse = Pulse((Photon(0.2, Origin.TROJAN_INJECTED),))
    rotated = pulse.rotated(1.0)
    assert rotated.photons[0].origin is Origin.TROJAN_INJECTED
    assert rotated.photons[0].polarization == pytest.approx(1.2)
