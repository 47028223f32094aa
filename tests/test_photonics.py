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
    Pulse,
    beam_split,
    born_probability,
    canon,
    make_pulse,
    measure,
    single_photon_pulse,
)
from screenqkd.protocol import bob_decode

from conftest import angles_close, binom_sigma, raw_pulse


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
            assert single_photon_pulse(np.array([x])).photons[0] == 0.0


def _pulse(polarizations, origins=None) -> Pulse:
    """A batch of single-photon rounds: round i holds one photon at
    ``polarizations[i]`` with origin ``origins[i]`` (legitimate by default)."""
    n = len(polarizations)
    origins = np.zeros(n, np.int8) if origins is None else np.asarray(origins, np.int8)
    table = np.asarray(polarizations, float)
    angles = tuple(table if (origins == code).any() else None for code in Origin)
    return Pulse(np.arange(n, dtype=np.int32), origins, angles, n)


def rotate(state: float, delta: float) -> float:
    return single_photon_pulse(np.array([state])).rotated(delta).photons[0]


class TestRotate:
    def test_canonicalizes_once(self, monkeypatch):
        # each constructor reduces its input exactly once, one entry per round
        calls = []
        real_canon = photonics.canon

        def counting_canon(radians):
            calls.append(np.array(radians, copy=True))
            return real_canon(radians)

        monkeypatch.setattr(photonics, "canon", counting_canon)
        polarization = np.array([2.9, -0.4, 7.0])
        for build in (
            lambda: single_photon_pulse(polarization),
            lambda: make_pulse(polarization, 3.0, np.random.default_rng(1)),
        ):
            calls.clear()
            pulse = build()
            assert len(calls) == 1 and np.array_equal(calls[0], polarization)
            assert np.array_equal(pulse.photons, real_canon(polarization)[pulse.owner])
            calls.clear()
            # a copy: `rotated` takes over a writeable array delta
            pulse.rotated(0.5).rotated(polarization.copy())
            assert not calls

    @pytest.mark.parametrize("x", (1e20, -1e20, 1e6 * PI + 0.7))
    def test_constructors_reduce_huge_angles(self, x):
        raw, reduced = np.full(4, x), np.full(4, float(canon(x)))
        assert np.array_equal(
            single_photon_pulse(raw).photons, single_photon_pulse(reduced).photons
        )
        pulses = [make_pulse(p, 3.0, np.random.default_rng(5)) for p in (raw, reduced)]
        assert np.array_equal(pulses[0].owner, pulses[1].owner)
        assert np.array_equal(pulses[0].photons, pulses[1].photons)
        assert 0 <= pulses[0].photons.min() and pulses[0].photons.max() < PI

    def test_rotated_adds_without_reducing(self):
        rng = np.random.default_rng(2)
        pulse = make_pulse(rng.uniform(0, PI, 50), 3.0, rng)
        for delta in (0.5, -PI / 4, 2.5 * PI, rng.uniform(-PI, PI, 50)):
            shift = delta[pulse.owner] if np.ndim(delta) else delta
            assert np.array_equal(pulse.rotated(delta).photons, pulse.photons + shift)

    def test_identity(self):
        assert rotate(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_additive(self):
        assert rotate(0.3, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_mod_pi_wrap(self):
        # independent fmod computation of 2.9 + 0.5 reduced mod pi
        expected = math.fmod(3.4, PI)
        assert angles_close(rotate(2.9, 0.5), expected, tol=1e-12)
        assert angles_close(rotate(2.9, 0.5), 0.2584073464102069, tol=1e-9)

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
        assert (measure(raw_pulse(np.full(200, PI / 4)), PI / 4, rng) == 0).all()

    def test_orthogonal_deterministic(self):
        rng = np.random.default_rng(5)
        assert (measure(raw_pulse(np.full(200, 3 * PI / 4)), PI / 4, rng) == 1).all()

    def test_unbiased_at_45_degrees(self):
        rng = np.random.default_rng(6)
        n = 100_000
        mean = measure(raw_pulse(np.zeros(n)), DIAGONAL, rng).sum() / n
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
            ones = int(measure(raw_pulse(np.full(samples, delta)), 0.0, rng).sum())
            zeros = samples - ones
            statistic += (zeros - expected0) ** 2 / expected0
            statistic += (ones - expected1) ** 2 / expected1
        assert statistic < chi2.ppf(0.999, df=16)

    def test_outcome_probabilities_exhaustive(self):
        rng = np.random.default_rng(8)
        s, a = rng.uniform(0, PI, size=(2, 500))
        p0 = born_probability(s, a)
        p1 = born_probability(s, a + PI / 2)
        assert p0 + p1 == pytest.approx(np.ones(500), abs=1e-12)

    def test_basis_axes_orthogonal(self):
        # an axis and the same axis plus pi are one analyzer: same outcomes
        # from the same generator state
        photons = raw_pulse(np.full(200, 0.4))
        for axis in (0.0, 1.234, PI / 4, 3.0):
            rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
            a = measure(photons, axis, rng_a).tolist()
            b = measure(photons, axis + PI, rng_b).tolist()
            assert a == b and set(a) == {0, 1}

    def test_less_must_have_an_entry_per_round(self):
        # unchecked, a short `less` would be clipped: photons past its end read its last entry
        pulse = single_photon_pulse(np.full(6, 0.3))
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="less has 2 entries for 6 rounds"):
            measure(pulse, DIAGONAL, rng, less=np.zeros(2))
        with pytest.raises(ValueError, match="less has 2 entries for 6 rounds"):
            bob_decode(pulse, np.zeros(2), rng)
        assert rng.bit_generator.state == before
        assert len(measure(pulse, DIAGONAL, rng, less=np.zeros(6))) == 6


class TestPulsePreparation:
    def test_vacuum_mean(self):
        rng = np.random.default_rng(9)
        assert make_pulse(np.full(200, 0.7), 0.0, rng).count == 0

    def test_poisson_sample_mean(self):
        rng = np.random.default_rng(10)
        n = 100_000
        mean = make_pulse(np.full(n, 0.7), 2.0, rng).count / n
        assert abs(mean - 2.0) <= 0.05

    def test_single_photon_forced(self):
        pulse = single_photon_pulse(np.array([0.3]))
        assert pulse.count == 1
        assert pulse.photons[0] == pytest.approx(0.3)
        assert pulse.origin[0] == Origin.LEGITIMATE

    def test_shared_polarization(self):
        rng = np.random.default_rng(11)
        pulse = make_pulse(np.array([2.5]), 6.0, rng)
        for photon in pulse.photons:
            assert photon == pytest.approx(canon(2.5))

    def test_negative_mean_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ConfigError):
            make_pulse(np.zeros(1), -0.1, rng)
        with pytest.raises(ConfigError):
            make_pulse(np.zeros(1), 101.0, rng)

    def test_bool_mean_rejected(self):
        # unchecked, True would run at mean 1; ProtocolParams rejects it too
        with pytest.raises(ConfigError, match="^mean_photons: must be a number, got True"):
            make_pulse(np.zeros(1), True, np.random.default_rng(12))


class TestBeamSplit:
    def test_tap_zero(self):
        rng = np.random.default_rng(13)
        pulse = make_pulse(np.full(3, 0.2), 4.0, rng)
        tapped, passed = beam_split(pulse, 0.0, rng)
        assert tapped.is_empty
        assert np.array_equal(passed.photons, pulse.photons)

    def test_tap_one(self):
        rng = np.random.default_rng(14)
        pulse = make_pulse(np.full(3, 0.2), 4.0, rng)
        tapped, passed = beam_split(pulse, 1.0, rng)
        assert passed.is_empty
        assert np.array_equal(tapped.photons, pulse.photons)

    def test_binomial_mean(self):
        rng = np.random.default_rng(15)
        pulse = _pulse(np.full(100_000, 0.1))
        tapped, passed = beam_split(pulse, 0.3, rng)
        assert abs(tapped.count - 30_000) <= 450
        assert tapped.count + passed.count == 100_000

    def test_conserves_photons(self):
        rng = np.random.default_rng(16)
        pulse = _pulse(np.arange(50) * 0.01)
        tapped, passed = beam_split(pulse, 0.5, rng)
        merged = sorted(np.concatenate((tapped.photons, passed.photons)))
        assert merged == sorted(pulse.photons)

    def test_origin_blind(self):
        # tapped fraction must not depend on the diagnostic origin tag
        rng = np.random.default_rng(17)
        n = 50_000
        origins = [Origin.LEGITIMATE] * n + [Origin.EVE] * n
        tapped, _ = beam_split(_pulse(np.full(2 * n, 0.4), origins), 0.3, rng)
        legit = int(np.count_nonzero(tapped.origin == Origin.LEGITIMATE))
        trojan = tapped.count - legit
        tol = 4 * math.sqrt(2) * binom_sigma(0.3, n) * n
        assert abs(legit - trojan) <= tol

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ConfigError):
            beam_split(_pulse([0.0]), 1.5, rng)
        with pytest.raises(ConfigError):
            beam_split(_pulse([0.0]), -0.1, rng)

    def test_bool_fraction_rejected(self):
        # unchecked, True would tap every photon
        with pytest.raises(ConfigError, match="^tap_fraction: must be a number, got True"):
            beam_split(_pulse([0.0]), True, np.random.default_rng(18))


def test_photon_immutable():
    pulse = single_photon_pulse(np.array([0.5]))
    with pytest.raises(AttributeError):
        pulse.photons = np.array([0.6])  # type: ignore[misc]


def test_pulse_rotation_preserves_origin():
    pulse = _pulse([0.2], [Origin.EVE])
    rotated = pulse.rotated(1.0)
    assert rotated.origin[0] == Origin.EVE
    assert rotated.photons[0] == pytest.approx(1.2)


class TestBatch:
    def test_rotation_per_round(self):
        pulse = make_pulse(np.array([0.1, 0.2, 0.3]), 3.0, np.random.default_rng(22))
        rotated = pulse.rotated(np.array([0.5, 1.0, 1.5]))
        expected = [canon(0.1 + 0.5), canon(0.2 + 1.0), canon(0.3 + 1.5)]
        for photon, owner in zip(rotated.photons, rotated.owner):
            assert photon == pytest.approx(expected[owner])

    def test_merged_keeps_rounds_contiguous_and_in_order(self):
        first = Pulse(
            np.array([0, 0, 2], np.int32), np.zeros(3, np.int8),
            (np.array([0.1, 0.2, 0.3]), None), 3,
        )
        second = single_photon_pulse(np.array([1.0, 1.1, 1.2])).tagged(Origin.EVE)
        merged = first.merged(second)
        assert merged.owner.tolist() == [0, 0, 0, 1, 2, 2]
        assert merged.photons.tolist() == pytest.approx([0.1, 0.1, 1.0, 1.1, 0.3, 1.2])
        assert merged.origin.tolist() == [0, 0, 1, 1, 0, 1]
        assert merged.counts.tolist() == [3, 1, 2]
        # each round's first photon, where the owner changes
        assert np.flatnonzero(np.diff(merged.owner, prepend=-1)).tolist() == [0, 3, 4]

    def test_merged_scatters_one_origin_on_disjoint_rounds(self):
        source = single_photon_pulse(np.array([0.1, 0.2, 0.3]))
        resent = single_photon_pulse(np.array([1.0, 1.1, 1.2])).rotated(0.5)
        merged = source.take(np.array([True, False, True])).merged(
            resent.take(np.array([False, True, False]))
        )
        assert merged.owner.tolist() == [0, 1, 2]
        assert merged.photons.tolist() == pytest.approx([0.1, 1.6, 0.3])
        assert merged.origin.tolist() == [0, 0, 0]
        assert not merged.angles[Origin.LEGITIMATE].flags.writeable

    def test_merged_refuses_two_angles_for_one_round_and_origin(self):
        pulse = single_photon_pulse(np.array([0.1, 0.2]))
        other = single_photon_pulse(np.array([0.3, 0.4])).take(np.array([False, True]))
        with pytest.raises(ValueError, match="origin 0 in one round"):
            pulse.merged(other)
        # other origins in the same rounds merge
        probes = other.tagged(Origin.EVE)
        assert pulse.merged(probes).photons.tolist() == pytest.approx([0.1, 0.2, 0.4])

    def test_tagged_refuses_two_origins(self):
        probes = single_photon_pulse(np.array([0.3, 0.4])).tagged(Origin.EVE)
        pulse = single_photon_pulse(np.array([0.1, 0.2])).merged(probes)
        with pytest.raises(ValueError, match="several origins"):
            pulse.tagged(Origin.EVE)
        # a batch that carries both tables, but photons of one origin
        rows = pulse.origin == Origin.LEGITIMATE
        legit = Pulse(pulse.owner[rows], pulse.origin[rows], pulse.angles, pulse.rounds)
        legit = legit.tagged(Origin.EVE)
        assert legit.origin.tolist() == [Origin.EVE] * 2
        assert legit.photons.tolist() == pytest.approx([0.1, 0.2])

    def test_tables_must_have_an_entry_per_round(self):
        # unchecked, a short table would be clipped: photons past its end read its last entry
        owner, origin = np.arange(6, dtype=np.int32), np.zeros(6, np.int8)
        with pytest.raises(ValueError, match="2 table entries for 6 rounds"):
            Pulse(owner, origin, (np.array([0.1, 0.2]), None), 6)
        with pytest.raises(ValueError, match="7 table entries for 6 rounds"):
            Pulse(owner, np.ones(6, np.int8), (None, np.zeros(7)), 6)
        # a dropped table is checked too, and vacuum as well
        with pytest.raises(ValueError, match="2 table entries for 6 rounds"):
            Pulse(owner, origin, (np.zeros(6), np.zeros(2)), 6)
        with pytest.raises(ValueError, match="5 table entries for 6 rounds"):
            Pulse(owner[:0], origin[:0], (np.zeros(5), None), 6)
        assert Pulse(owner, origin, (np.zeros(6), None), 6).photons.tolist() == [0.0] * 6

    def test_make_pulse_sorts_photons_by_round(self):
        pulse = make_pulse(np.linspace(0.0, 3.0, 1000), 2.0, np.random.default_rng(23))
        assert np.all(np.diff(pulse.owner) >= 0)
        assert pulse.counts.sum() == pulse.count and pulse.rounds == 1000
