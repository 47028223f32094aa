import dataclasses
import hashlib
import math
import tracemalloc

import screenqkd.protocol as protocol

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from screenqkd.adversary import AttackConfig, build_interceptor
from screenqkd.errors import ConfigError
from screenqkd.photonics import PI, Pulse, canon, single_photon_pulse
from screenqkd.protocol import (
    Announcement,
    ProtocolParams,
    Verdict,
    alice_encode,
    alice_prepare,
    bob_decode,
    bob_transform,
    derive_rng,
    expected_ad_bit,
    is_matched,
    key_digest,
    pack_key_bits,
    run_session,
    screening_angles,
    sift_and_verify,
)

from conftest import angles_close, binom_sigma, transcript_records


class TestScreeningAngles:
    def test_n2_matches_published_set(self):
        assert screening_angles(2) == pytest.approx([PI / 6, PI / 3], abs=1e-12)

    def test_n1(self):
        assert screening_angles(1) == pytest.approx([PI / 4], abs=1e-12)

    def test_n3(self):
        assert screening_angles(3) == pytest.approx(
            [PI / 8, PI / 4, 3 * PI / 8], abs=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_strictly_increasing_inside_open_interval(self, n):
        angles = screening_angles(n)
        assert all(0.0 < a < PI / 2 for a in angles)
        assert all(b > a for a, b in zip(angles, angles[1:]))
        assert len(set(angles)) == n

    def test_matched_pairs_sum_to_quarter_turn(self):
        angles = screening_angles(5)
        for i in range(5):
            assert angles[i] + angles[4 - i] == pytest.approx(PI / 2, abs=1e-12)

    def test_bit_identical_to_scalar_formula(self):
        # finite nonzero floats compare equal exactly when their bits do
        for n in (*range(1, 301), 2**20):
            reference = [i * PI / (2 * (n + 1)) for i in range(1, n + 1)]
            assert screening_angles(n).tolist() == reference, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            screening_angles(0)
        with pytest.raises(ConfigError):  # and one past MAX_SCREENING
            screening_angles(2**20 + 1)


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ProtocolParams(n_screening=0)
        with pytest.raises(ConfigError):
            ProtocolParams(rounds=0)
        with pytest.raises(ConfigError):
            ProtocolParams(p_analyzing=1.5)
        with pytest.raises(ConfigError):
            ProtocolParams(transmission=-0.1)
        with pytest.raises(ConfigError):
            ProtocolParams(mode="coherent")
        with pytest.raises(ConfigError):
            ProtocolParams(mean_photons=-1.0)
        for bad in (
            dict(n_screening=2.0), dict(rounds="100"), dict(rounds=10.5),
            dict(rounds=True), dict(p_analyzing=float("nan")),
            dict(mean_photons=float("inf")), dict(mean_photons=float("nan")),
            dict(transmission="0.9"), dict(seed=1.5), dict(mean_photons=101),
            dict(rounds=2**31), dict(n_screening=2**20 + 1),
            dict(loss=1.5), dict(loss=-0.1), dict(loss=float("nan")), dict(loss="0.1"),
            dict(loss=True), dict(seed=-1), dict(seed=2**64),
        ):
            with pytest.raises(ConfigError):
                ProtocolParams(**bad)
        assert ProtocolParams(rounds=2**31 - 1).rounds == 2**31 - 1
        assert ProtocolParams(n_screening=2**20).n_screening == 2**20
        assert ProtocolParams(seed=2**64 - 1).seed == 2**64 - 1

    def test_screening_angles_computed_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return screening_angles(n)

        monkeypatch.setattr(protocol, "screening_angles", counting)
        params = ProtocolParams(n_screening=3, rounds=500, seed=5)
        run_session(params)
        assert len(calls) <= 1


class TestAlicePrepare:
    def test_single_mode_one_photon(self):
        params = ProtocolParams(mode="single")
        rng = np.random.default_rng(0)
        theta = np.array([1.3])
        pulse = alice_prepare(theta, params, rng)
        assert pulse.count == 1
        assert pulse.photons[0] == pytest.approx(theta[0])

    def test_distinct_thetas(self):
        thetas = run_session(ProtocolParams(rounds=2, seed=1)).rounds.theta
        assert thetas[0] != thetas[1]

    def test_theta_uniform(self):
        params = ProtocolParams(rounds=100_000, seed=2)
        thetas = run_session(params).rounds.theta / PI
        result = kstest(thetas, "uniform")
        assert result.pvalue > 0.01


class TestBobTransform:
    def test_rotation_arithmetic(self):
        params = ProtocolParams(n_screening=2, p_analyzing=0.0)
        theta, phi, b_index = 0.37, 1.9, 2
        pulse = bob_transform(
            single_photon_pulse(np.array([theta])), np.array([phi]),
            np.array([b_index]), params,
        )
        alpha_b = params.angles[b_index - 1]
        assert angles_close(pulse.photons[0], theta + phi + alpha_b, tol=1e-12)

    def test_never_analyzing_at_zero(self):
        transcript = run_session(ProtocolParams(p_analyzing=0.0, rounds=500, seed=4))
        assert not transcript.rounds.is_analyzing.any()

    def test_always_analyzing_at_one(self):
        transcript = run_session(ProtocolParams(p_analyzing=1.0, rounds=500, seed=5))
        rounds = transcript.rounds
        assert rounds.is_analyzing.all()
        assert np.array_equal(transcript.announcement.phi_star_flags, rounds.phi == PI / 2)
        assert set(rounds.phi.tolist()) == {0.0, PI / 2}


def _one(value) -> np.ndarray:
    return np.array([value])


class TestAliceEncode:
    def test_rotation_arithmetic_no_tap(self):
        params = ProtocolParams(n_screening=2, transmission=1.0)
        rng = np.random.default_rng(6)
        theta, phi, alpha_b = 0.81, 1.1, params.angles[1]
        incoming = single_photon_pulse(_one(theta + phi + alpha_b))
        for k in (0, 1):
            to_bob, ad_outcomes, _, _ = alice_encode(
                incoming, _one(theta), _one(k), _one(1), params, rng
            )
            assert len(ad_outcomes) == 0
            assert to_bob.count == 1
            expected = phi + (-1) ** k * PI / 4 + params.angles[0] + alpha_b
            assert angles_close(to_bob.photons[0], expected, tol=1e-12)

    def test_full_tap_consumes_pulse(self):
        params = ProtocolParams(n_screening=2, transmission=0.0)
        rng = np.random.default_rng(7)
        to_bob, ad_outcomes, ad_owner, _ = alice_encode(
            single_photon_pulse(_one(0.4)), _one(0.4), _one(0), _one(1), params, rng
        )
        assert to_bob.is_empty
        assert len(ad_outcomes) == 1 and list(ad_owner) == [0]

    def test_matched_analyzing_ad_bit_all_cases(self):
        # exhaustive (k, phi*) x matched pair check of the integrity relation
        params = ProtocolParams(n_screening=2, transmission=0.0)
        rng = np.random.default_rng(8)
        theta = 1.234
        for a_index, b_index in ((1, 2), (2, 1)):
            alpha_b = params.angles[b_index - 1]
            for k in (0, 1):
                for phi_star in (0.0, PI / 2):
                    incoming = single_photon_pulse(_one(theta + phi_star + alpha_b))
                    _, ad_outcomes, _, _ = alice_encode(
                        incoming, _one(theta), _one(k), _one(a_index), params, rng
                    )
                    assert ad_outcomes.tolist() == [expected_ad_bit(k, phi_star)]

    def test_rejects_bad_arguments(self):
        params = ProtocolParams(n_screening=2)
        rng = np.random.default_rng(9)
        pulse = single_photon_pulse(_one(0.0))
        with pytest.raises(ConfigError):
            alice_encode(pulse, _one(0.0), _one(2), _one(1), params, rng)
        with pytest.raises(ConfigError):
            alice_encode(pulse, _one(0.0), _one(0), _one(3), params, rng)


class TestBobDecode:
    def test_matched_round_outcomes(self):
        rng = np.random.default_rng(10)
        phi = 0.77
        for k, expected in ((0, 1), (1, 0)):
            state = phi + (-1) ** k * PI / 4 + PI / 2
            outcome, received = bob_decode(single_photon_pulse(_one(state)), _one(phi), rng)
            assert received[0] == 1
            assert outcome[0] == expected == (k ^ 1)

    def test_vacuum_absent(self):
        rng = np.random.default_rng(11)
        outcome, received = bob_decode(Pulse.vacuum(1), _one(0.3), rng)
        assert outcome[0] == -1 and received[0] == 0

    def test_multi_photon_agreement(self):
        rng = np.random.default_rng(12)
        phi = 0.2
        state = phi + PI / 4 + PI / 2  # k = 0 on a matched round
        angles = (np.full(1, state), None, None)
        pulse = Pulse(np.zeros(4, np.int32), np.zeros(4, np.int8), angles, 1)
        outcome, received = bob_decode(pulse, _one(phi), rng)
        assert received[0] == 4 and outcome[0] == 1

    def test_multi_photon_disagreement_is_inconclusive(self):
        # 20 photons halfway between the analyzer axes: all 20 outcomes
        # agree with probability 2^-19, else the round has no outcome
        rng = np.random.default_rng(13)
        angles = (np.zeros(2), None, None)
        pulse = Pulse(np.zeros(20, np.int32), np.zeros(20, np.int8), angles, 2)
        outcome, received = bob_decode(pulse, np.zeros(2), rng)
        assert received.tolist() == [20, 0] and outcome.tolist() == [-1, -1]

    def test_counts_narrow_to_the_largest(self):
        # 300 photons in one round do not fit a byte: the counts are uint16
        rng = np.random.default_rng(14)
        owner = np.repeat(np.arange(3, dtype=np.int32), [0, 300, 2])
        pulse = Pulse(owner, np.zeros(302, np.int8), (np.zeros(3), None, None), 3)
        _, received = bob_decode(pulse, np.zeros(3), rng)
        assert received.dtype == np.uint16
        assert np.array_equal(received, pulse.counts)


class TestKeyDigest:
    def test_big_endian_packing(self):
        assert pack_key_bits([]) == b""
        assert pack_key_bits([1]) == b"\x80"
        assert pack_key_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
        assert pack_key_bits([0, 1]) == b"\x40"
        assert pack_key_bits([1] * 8 + [1]) == b"\xff\x80"

    def test_digest_matches_hashlib(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        assert key_digest(bits) == hashlib.sha256(pack_key_bits(bits)).digest()
        assert len(key_digest(bits)) == 32

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(bits=st.lists(st.integers(0, 1), max_size=257))
    def test_packing_matches_bit_loop(self, bits):
        expected = bytearray((len(bits) + 7) // 8)
        for i, bit in enumerate(bits):
            if bit:
                expected[i >> 3] |= 0x80 >> (i & 7)
        assert pack_key_bits(bits) == bytes(expected)
        assert pack_key_bits(bytes(bits)) == bytes(expected)
        assert pack_key_bits(np.array(bits, dtype=bool)) == bytes(expected)


def _honest_session(**overrides):
    defaults = dict(
        n_screening=2, rounds=5000, p_analyzing=0.2, transmission=0.9,
        mode="single", seed=42,
    )
    defaults.update(overrides)
    return run_session(ProtocolParams(**defaults))


class TestHonestSession:
    def test_keys_identical_and_accepted(self):
        transcript = _honest_session()
        assert transcript.alice_key == transcript.bob_key
        assert len(transcript.alice_key) > 0
        assert transcript.alice_hash == transcript.bob_hash
        assert transcript.verdict is Verdict.ACCEPTED
        assert transcript.ad_violations == 0

    def test_end_to_end_outcome_identity(self):
        # O_b = k ^ 1 on every matched detected round, analyzing or not
        rounds = _honest_session(seed=43).rounds
        checked = is_matched(rounds.a_index, rounds.b_index, 2) & (rounds.bob_outcome >= 0)
        assert np.array_equal(rounds.bob_outcome[checked], rounds.k[checked] ^ 1)
        assert np.count_nonzero(checked) > 1000

    def test_integrity_condition_exact(self):
        # per round, over the records read back from the transcript file;
        # phi is phi* on analyzing rounds
        transcript = _honest_session(seed=44, p_analyzing=0.5, transmission=0.5)
        checked = 0
        for rec in transcript_records(transcript):
            if is_matched(rec["a_index"], rec["b_index"], 2) and rec["is_analyzing"]:
                expected = expected_ad_bit(rec["k"], rec["phi"])
                for bit in rec["ad_bits"]:
                    assert bit == expected
                    checked += 1
        assert checked > 100

    def test_analyzing_phi_equals_phi_star(self):
        transcript = _honest_session(seed=45, p_analyzing=0.5)
        analyzing = transcript.rounds.is_analyzing
        phi = transcript.rounds.phi
        assert 0 < np.count_nonzero(analyzing) < len(analyzing)
        assert set(phi[analyzing].tolist()) == {0.0, PI / 2}
        assert np.array_equal(
            transcript.announcement.phi_star_flags, analyzing & (phi == PI / 2)
        )

    @pytest.mark.parametrize("strategy,overrides", [
        ("none", {}),
        ("pns_trojan", dict(mode="pulse", mean_photons=20.0, loss=0.1)),
        ("impersonation", dict(n_screening=300)),
    ])
    def test_integer_columns_are_at_most_four_bytes(self, strategy, overrides):
        params = ProtocolParams(rounds=2000, seed=48, **overrides)
        rounds = run_session(
            params, build_interceptor(AttackConfig(strategy=strategy), params)
        ).rounds
        for field in dataclasses.fields(rounds):
            column = getattr(rounds, field.name)
            if column.dtype.kind in "biu":
                assert column.dtype.itemsize <= 4, field.name

    def test_bob_outcome_present_iff_detected(self):
        rounds = _honest_session(seed=46).rounds
        assert np.array_equal(rounds.bob_outcome >= 0, rounds.bob_received >= 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_matching_probability(self, n):
        rounds = 20_000
        transcript = run_session(
            ProtocolParams(n_screening=n, rounds=rounds, seed=47, mode="single")
        )
        columns = transcript.rounds
        matched = np.count_nonzero(is_matched(columns.a_index, columns.b_index, n))
        p = 1.0 / n
        assert abs(matched / rounds - p) <= 3 * binom_sigma(p, rounds) + 1e-12

    def test_sifted_key_length(self):
        n, rounds, p_a, t = 2, 40_000, 0.2, 0.9
        transcript = run_session(
            ProtocolParams(
                n_screening=n, rounds=rounds, p_analyzing=p_a,
                transmission=t, mode="single", seed=48,
            )
        )
        expected = rounds * (1 / n) * (1 - p_a) * t
        p = (1 / n) * (1 - p_a) * t
        assert abs(len(transcript.alice_key) - expected) <= 3 * math.sqrt(
            rounds * p * (1 - p)
        )

    def test_non_analyzing_ad_outcomes_uncorrelated_with_key(self):
        rounds = _honest_session(seed=49, rounds=30_000, transmission=0.5).rounds
        keep = ~rounds.is_analyzing[rounds.ad_owner]
        bits = rounds.ad_bits[keep].astype(float)
        ks = rounds.k[rounds.ad_owner[keep]].astype(float)
        n = len(bits)
        assert n > 5000
        corr = np.corrcoef(bits, ks)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(n)

    def test_session_deterministic(self):
        params = ProtocolParams(n_screening=2, rounds=2000, seed=50)
        t1 = run_session(params)
        t2 = run_session(params)
        assert t1.rounds == t2.rounds
        assert t1.alice_key == t2.alice_key
        assert t1.alice_hash == t2.alice_hash

    def test_lossy_channel_shrinks_key_but_stays_clean(self):
        rounds, loss, t = 30_000, 0.2, 0.9
        params = ProtocolParams(
            n_screening=2, rounds=rounds, p_analyzing=0.2,
            transmission=t, loss=loss, mode="single", seed=54,
        )
        transcript = run_session(params)
        assert transcript.alice_key == transcript.bob_key
        assert transcript.verdict is Verdict.ACCEPTED
        # the photon must survive three lossy legs and the AD tap
        p_detect = (1 - loss) ** 3 * t
        p_key = 0.5 * 0.8 * p_detect
        assert abs(len(transcript.alice_key) - rounds * p_key) <= 3 * math.sqrt(
            rounds * p_key * (1 - p_key)
        )

    def test_honest_pulse_mode_stays_clean(self):
        # multi-photon pulses agree deterministically on matched rounds,
        # so pulse mode is as error-free as single-photon mode
        params = ProtocolParams(
            n_screening=2, rounds=20_000, p_analyzing=0.3, transmission=0.8,
            mode="pulse", mean_photons=3.0, seed=56,
        )
        transcript = run_session(params)
        assert len(transcript.alice_key) > 5000
        assert transcript.alice_key == transcript.bob_key
        assert transcript.ad_violations == 0 and transcript.ad_checked > 500
        assert transcript.verdict is Verdict.ACCEPTED
        rounds = transcript.rounds
        inconclusive = (rounds.bob_received >= 1) & (rounds.bob_outcome < 0)
        assert not (is_matched(rounds.a_index, rounds.b_index, 2) & inconclusive).any()

    def test_vacuum_source_produces_empty_accepted_session(self):
        params = ProtocolParams(
            n_screening=2, rounds=300, mode="pulse", mean_photons=0.0, seed=55,
        )
        transcript = run_session(params)
        assert transcript.alice_key == b""
        assert transcript.alice_hash == transcript.bob_hash
        assert transcript.verdict is Verdict.ACCEPTED


class TestSiftAndVerify:
    def test_flipped_bob_bit_gives_hash_mismatch(self):
        transcript = _honest_session(seed=51)
        rounds = transcript.rounds
        key = np.flatnonzero(
            is_matched(rounds.a_index, rounds.b_index, 2)
            & ~rounds.is_analyzing
            & (rounds.bob_outcome >= 0)
        )
        bob_outcome = rounds.bob_outcome.copy()
        bob_outcome[key[0]] ^= 1
        rounds = dataclasses.replace(rounds, bob_outcome=bob_outcome)
        tampered = sift_and_verify(
            transcript.params, rounds, Announcement.from_rounds(rounds)
        )
        assert tampered.verdict is Verdict.HASH_MISMATCH
        assert tampered.alice_key != tampered.bob_key

    def test_announcement_length_mismatch_aborts(self):
        transcript = _honest_session(seed=52, rounds=100)
        bad = Announcement(
            a_indices=transcript.announcement.a_indices[:-1],
            b_indices=transcript.announcement.b_indices,
            analyzing_flags=transcript.announcement.analyzing_flags,
            phi_star_flags=transcript.announcement.phi_star_flags,
        )
        with pytest.raises(ConfigError, match="a_indices has length 99"):
            sift_and_verify(transcript.params, transcript.rounds, bad)

    def test_analyzing_rounds_excluded_from_key(self):
        transcript = _honest_session(seed=53, p_analyzing=1.0)
        assert transcript.alice_key == b""
        assert transcript.verdict is Verdict.ACCEPTED


def test_derive_rng_reproducible():
    a = derive_rng(7, 0, 1).random(4)
    b = derive_rng(7, 0, 1).random(4)
    c = derive_rng(7, 0, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_session_hot_path_avoids_remainder_and_isin(monkeypatch):
    # drawn angles are already in [0, pi), so canon skips the reduction,
    # and key bits are checked without isin
    calls = []
    for name in ("remainder", "isin"):
        real = getattr(np, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    run_session(ProtocolParams(rounds=3000, seed=21))
    pulsed = ProtocolParams(
        rounds=3000, seed=22, mode="pulse", mean_photons=2.0, loss=0.1
    )
    attack = build_interceptor(AttackConfig(strategy="pns_trojan"), pulsed)
    run_session(pulsed, attack)
    assert calls == []
    canon(np.array([-1.0]))  # the counters see a reduction that does happen
    assert calls == ["remainder"]


# Peak bytes allocated per round by one session at M = 10^5, and the bound
# on each: below the 150 and 92 B/round that 8-byte screening-index and
# photon-owner columns take, above the 107 and 65 B/round measured with
# the narrow ones.
SESSION_MEMORY = {
    "pns_trojan_lossy": (
        ProtocolParams(rounds=100_000, seed=1, mode="pulse", mean_photons=2.0,
                       p_analyzing=0.5, loss=0.1),
        "pns_trojan", 125,
    ),
    "honest_single": (ProtocolParams(rounds=100_000, seed=1), "none", 78),
}


@pytest.mark.parametrize("case", SESSION_MEMORY)
def test_session_peak_memory_per_round(case):
    params, strategy, bound = SESSION_MEMORY[case]
    # one small session first, so one-off allocations are not counted
    run_session(dataclasses.replace(params, rounds=1000))
    interceptor = build_interceptor(AttackConfig(strategy=strategy), params)
    tracemalloc.start()
    try:
        run_session(params, interceptor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / params.rounds <= bound
