import math

import numpy as np
import pytest

from screenqkd.adversary import (
    STRATEGY_NONE, STRATEGY_TABLE, AttackConfig, PulseBeamSplit, build_interceptor,
)
from screenqkd.analysis import run_experiment, run_trial, score_trial
from screenqkd.channel import Leg
from screenqkd.errors import ConfigError
from screenqkd.photonics import (
    PI, Origin, Pulse, beam_split, canon, make_pulse, measure, single_photon_pulse,
)
from screenqkd.protocol import ProtocolParams, Verdict, run_session, screening_angles

import oracles
from conftest import ThetaOracleTrojan, binom_sigma


# Probe angles far outside [0, pi), where a raw angle loses the rotations
# added to it.
HUGE_ANGLES = (1e20, -1e20, 1e6 * PI + 0.7)


def _params(**overrides) -> ProtocolParams:
    defaults = dict(
        n_screening=2, rounds=20_000, p_analyzing=0.2, transmission=0.9,
        mode="single", mean_photons=1.0, seed=100,
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


# The strategy policy, written out here rather than read from the package:
# the source mode each strategy requires (None: either) and, for each knob,
# the strategies that accept a value other than its default.
REQUIRED_MODE = {
    "impersonation": "single",
    "pulse_beamsplit": "pulse",
    "pns_trojan": "pulse",
    "standard_state": None,
    "simple_trojan": None,
    "passive_pns": None,
}
MODE_NAMES = {"single": "single-photon", "pulse": "pulse"}
KNOB_USERS = {
    "eve_tap_fraction": ("pns_trojan", "standard_state", "simple_trojan"),
    "trojan_angle": ("simple_trojan",),
    "guess_weights": ("impersonation",),
}
NON_DEFAULT_KNOBS = {
    "eve_tap_fraction": 0.3, "trojan_angle": 0.7, "guess_weights": (1.0, 1.0),
}


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            AttackConfig(strategy="bogus")

    def test_fraction_ranges(self):
        with pytest.raises(ConfigError):
            AttackConfig(strategy="standard_state", eve_tap_fraction=1.5)
        with pytest.raises(ConfigError):
            AttackConfig(strategy="standard_state", attack_probability=-0.2)
        for bad in (
            dict(eve_tap_fraction=float("nan")), dict(attack_probability="1"),
            dict(trojan_angle=float("nan")), dict(trojan_angle=float("inf")),
        ):
            with pytest.raises(ConfigError):
                AttackConfig(strategy="standard_state", **bad)

    def test_mode_requirements(self):
        # every strategy in each mode builds, or is refused in so many words
        for strategy, required in REQUIRED_MODE.items():
            for mode in ("single", "pulse"):
                config, params = AttackConfig(strategy=strategy), _params(mode=mode)
                if required in (None, mode):
                    assert build_interceptor(config, params) is not None
                    continue
                with pytest.raises(ConfigError) as refused:
                    build_interceptor(config, params)
                assert str(refused.value) == (
                    f"attack: {strategy} requires {MODE_NAMES[required]} mode, got {mode!r}"
                )

    def test_knobs_apply_only_to_their_strategies(self):
        # settings a strategy would silently ignore are rejected
        for knob, value in NON_DEFAULT_KNOBS.items():
            for strategy in ("none", *REQUIRED_MODE):
                config = {"strategy": strategy, knob: value}
                if strategy in KNOB_USERS[knob]:
                    AttackConfig(**config)  # accepted
                    continue
                with pytest.raises(ConfigError) as refused:
                    AttackConfig(**config)
                assert str(refused.value) == (
                    f"{knob}: applies only to {', '.join(KNOB_USERS[knob])}, "
                    f"got attack {strategy!r}"
                )
        with pytest.raises(ConfigError):
            AttackConfig(strategy="impersonation", guess_weights=())

    def test_none_builds_nothing(self):
        assert build_interceptor(AttackConfig(), _params()) is None


ALL_STRATEGIES = [
    ("impersonation", dict(mode="single", transmission=0.9)),
    ("pulse_beamsplit", dict(mode="pulse", mean_photons=2.0)),
    ("pns_trojan", dict(mode="pulse", mean_photons=2.0)),
    ("standard_state", dict(mode="single")),
    ("simple_trojan", dict(mode="single")),
    ("passive_pns", dict(mode="pulse", mean_photons=2.0)),
]


@pytest.mark.parametrize("strategy,param_overrides", ALL_STRATEGIES)
def test_null_attack_reproduces_honest_transcript(strategy, param_overrides):
    # action probability 0: same seed must give the identical transcript
    params = _params(rounds=2000, **param_overrides)
    honest = run_session(params)
    idle = build_interceptor(
        AttackConfig(strategy=strategy, attack_probability=0.0), params
    )
    attacked = run_session(params, idle)
    assert honest.rounds == attacked.rounds
    assert honest.alice_key == attacked.alice_key
    assert honest.verdict == attacked.verdict
    assert len(idle.produce_guesses()) == 0


class TestImpersonation:
    def test_correct_basis_guess_reads_key_exactly(self):
        # with the right screening angle the readout of (-1)^k pi/4 + alpha_a
        # in (alpha_a + pi/4, alpha_a - pi/4) is deterministic and equals k
        rng = np.random.default_rng(0)
        for alpha_a in screening_angles(4):
            for k in (0, 1):
                photons = np.full(20, (-1) ** k * PI / 4 + alpha_a)
                assert (measure(photons, alpha_a + PI / 4, rng) == k).all()

    def test_single_screening_angle_reads_everything(self):
        # N = 1: the guess is always right, so Eve's accuracy is perfect
        params = _params(n_screening=1, transmission=1.0, rounds=4000, seed=101)
        report, _ = run_experiment(params, AttackConfig(strategy="impersonation"))
        assert report.metrics["eve_accuracy"] == 1.0
        assert report.totals.eve_guesses == 4000

    def test_qber_matches_enumeration_oracle(self):
        params = _params(transmission=1.0, rounds=40_000, seed=102)
        report, _ = run_experiment(params, AttackConfig(strategy="impersonation"))
        oracle = oracles.impersonation_qber(2)
        sigma = binom_sigma(oracle, report.totals.sifted_bits)
        assert report.metrics["qber"] >= 0.5 - 4 * sigma
        assert abs(report.metrics["qber"] - oracle) <= 4 * sigma

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_qber_oracle_at_least_ie_mean(self, n):
        # the enumerated QBER never drops below the error-sum average 1/2
        assert oracles.impersonation_qber(n) >= 0.5 - 1e-12

    def test_ad_violations_with_detector_on(self):
        params = _params(transmission=0.8, p_analyzing=0.4, rounds=40_000, seed=103)
        report, _ = run_experiment(params, AttackConfig(strategy="impersonation"))
        assert report.totals.ad_violations > 0
        oracle = oracles.impersonation_ad_violation(2)
        sigma = binom_sigma(oracle, report.totals.ad_clicks)
        assert abs(report.metrics["ad_violation_rate"] - oracle) <= 4 * sigma

    def test_detected_one_way_or_another(self):
        params = _params(transmission=0.8, p_analyzing=0.4, rounds=20_000, seed=104)
        report, _ = run_experiment(params, AttackConfig(strategy="impersonation"))
        assert report.metrics["qber"] > 0
        assert report.verdicts["accepted"] == 0

    def test_guess_weights_steer_the_basis_choice(self):
        # all weight on the first screening angle: rounds where Alice used
        # it are read perfectly, the rest stay noisy
        params = _params(transmission=1.0, rounds=8000, seed=131)
        attack = build_interceptor(
            AttackConfig(strategy="impersonation", guess_weights=(1.0, 0.0)), params
        )
        transcript = run_session(params, attack)
        guesses = attack.produce_guesses()
        correct = guesses.bits == transcript.rounds.k[guesses.rounds]
        a_index = transcript.rounds.a_index[guesses.rounds]
        first_basis = correct[a_index == 1]
        other_basis = correct[a_index == 2]
        assert len(first_basis) > 1000 and all(first_basis)
        assert not all(other_basis)

    def test_guess_weights_length_validated(self):
        params = _params()
        with pytest.raises(ConfigError):
            build_interceptor(
                AttackConfig(strategy="impersonation", guess_weights=(1.0, 1.0, 1.0)),
                params,
            )
        with pytest.raises(ConfigError):
            AttackConfig(strategy="impersonation", guess_weights=(0.0, 0.0))
        with pytest.raises(ConfigError):
            AttackConfig(strategy="impersonation", guess_weights=(float("nan"), 1.0))
        with pytest.raises(ConfigError):
            # each weight is finite, but the sum overflows to inf
            AttackConfig(strategy="impersonation", guess_weights=(1e308, 1e308))


class TestPulseBeamSplit:
    def test_vacuum_passes_through_without_report(self):
        params = _params(mode="pulse", mean_photons=2.0)
        attack = PulseBeamSplit(AttackConfig(strategy="pulse_beamsplit"), params)
        rng = np.random.default_rng(1)
        for leg in Leg:
            out = attack.intercept(leg, Pulse.vacuum(1), np.arange(1), rng)
        assert out.is_empty
        assert attack.produce_guesses().reported == 0

    def test_conclusive_rate_decreases_with_n(self):
        rates = []
        for n in (2, 3, 5):
            params = _params(
                n_screening=n, mode="pulse", mean_photons=2.0,
                transmission=1.0, p_analyzing=0.0, rounds=30_000, seed=105,
            )
            report, _ = run_experiment(params, AttackConfig(strategy="pulse_beamsplit"))
            rates.append(report.metrics["conclusive_rate"])
        assert rates[0] > rates[1] > rates[2]

    def test_inconclusive_relays_induce_errors(self):
        params = _params(
            mode="pulse", mean_photons=2.0, transmission=1.0,
            p_analyzing=0.0, rounds=20_000, seed=106,
        )
        report, _ = run_experiment(params, AttackConfig(strategy="pulse_beamsplit"))
        assert report.metrics["conclusive_rate"] < 1.0
        assert report.metrics["qber"] > 0

    def test_conclusive_identification_is_sound(self):
        # whenever Eve declares a readout conclusive her guess is correct
        params = _params(
            mode="pulse", mean_photons=4.0, transmission=1.0,
            p_analyzing=0.0, rounds=5000, seed=107,
        )
        counts, _, transcript = run_trial(
            params, AttackConfig(strategy="pulse_beamsplit"), 0, keep_transcript=True
        )
        assert counts.eve_guesses > 50
        assert counts.eve_correct == counts.eve_guesses

    @pytest.mark.parametrize(
        "n, mu, loss, transmission, attack_probability",
        [(2, 10.0, 0.0, 1.0, 1.0), (3, 10.0, 0.1, 0.9, 0.6), (5, 20.0, 0.0, 1.0, 1.0)],
    )
    def test_every_conclusive_guess_is_right(
        self, n, mu, loss, transmission, attack_probability
    ):
        # A readout with one hypothesis left names (alpha_a, k) exactly, so
        # a single wrong guess means the exclusion rule is biased.
        params = _params(
            n_screening=n, mode="pulse", mean_photons=mu, loss=loss,
            transmission=transmission, rounds=3000, seed=11,
        )
        config = AttackConfig(
            strategy="pulse_beamsplit", attack_probability=attack_probability
        )
        counts, _, _ = run_trial(params, config, 0)
        assert counts.eve_guesses > 0
        assert counts.eve_correct == counts.eve_guesses


class TestPnsTrojanComposite:
    def test_captured_probe_reads_key_exactly(self):
        params = _params(
            mode="pulse", mean_photons=2.0, p_analyzing=0.5,
            transmission=0.9, rounds=20_000, seed=108,
        )
        report, _ = run_experiment(
            params, AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0)
        )
        assert report.totals.eve_guesses > 5000
        assert report.metrics["eve_accuracy"] == 1.0

    def test_qber_exactly_zero(self):
        params = _params(
            mode="pulse", mean_photons=2.0, p_analyzing=0.2,
            transmission=0.9, rounds=20_000, seed=109,
        )
        report, _ = run_experiment(
            params, AttackConfig(strategy="pns_trojan", eve_tap_fraction=0.5)
        )
        assert report.totals.sifted_bits > 1000
        assert report.metrics["qber"] == 0.0

    def test_spot_case_violation_probability(self):
        # tapped probe at k=0, phi*=0, alpha_a=pi/6 violates with cos^2(pi/6)
        assert oracles.replayed_photon_violation(0, 0, PI / 6) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_ad_violation_rate_matches_oracles(self):
        params = _params(
            mode="pulse", mean_photons=2.0, p_analyzing=0.5,
            transmission=0.7, rounds=60_000, seed=110,
        )
        report, _ = run_experiment(
            params, AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0)
        )
        injected_oracle = oracles.composite_ad_violation(2)
        sigma = binom_sigma(injected_oracle, report.totals.ad_injected_clicks)
        assert abs(report.metrics["ad_violation_rate_injected"] - injected_oracle) <= 4 * sigma
        pooled_oracle = oracles.composite_pooled_ad_violation(2, 2.0)
        sigma_pooled = binom_sigma(pooled_oracle, report.totals.ad_clicks)
        assert abs(report.metrics["ad_violation_rate"] - pooled_oracle) <= 5 * sigma_pooled

    def test_detector_off_maximal_tap(self):
        # AD off and full recapture: Eve reads every injected round's key bit
        params = _params(
            mode="pulse", mean_photons=2.0, p_analyzing=0.2,
            transmission=1.0, rounds=10_000, seed=111,
        )
        report, _ = run_experiment(
            params, AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0)
        )
        assert report.totals.ad_clicks == 0
        assert report.metrics["eve_accuracy"] == 1.0
        expected_injections = 1 - math.exp(-2.0) * 3.0  # P(Poisson(2) >= 2)
        assert report.totals.eve_guesses / 10_000 == pytest.approx(
            expected_injections, abs=4 * binom_sigma(expected_injections, 10_000)
        )


class TestProbeRecapture:
    @pytest.mark.parametrize("tap", (0.0, 0.4, 1.0))
    def test_recapture_is_the_beam_split_draw(self, tap):
        rng = np.random.default_rng(7)
        legit = make_pulse(rng.random(300) * PI, 2.0, rng)
        probes = single_photon_pulse(rng.random(300) * PI).take(rng.random(300) < 0.5)
        probes = probes.tagged(Origin.TROJAN_INJECTED)
        attack = build_interceptor(
            AttackConfig(strategy="pns_trojan", eve_tap_fraction=tap),
            _params(mode="pulse", mean_photons=2.0),
        )
        eve_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        passed = attack._capture_probe(legit.merged(probes), eve_rng)
        stored = beam_split(probes, tap, reference_rng)[0]

        def columns(pulse):
            return pulse.photons.tolist(), pulse.origin.tolist(), pulse.owner.tolist()

        assert columns(attack.storage) == columns(stored)
        assert columns(passed) == columns(legit)
        # as many draws as the beam splitter's: none at a tap fraction of 0 or 1
        assert eve_rng.random() == reference_rng.random()
        if tap == 0.4:
            assert 0 < stored.count < probes.count


class TestStandardStateProbe:
    def test_accuracy_is_coinflip(self):
        params = _params(p_analyzing=0.2, transmission=0.5, rounds=40_000, seed=112)
        report, _ = run_experiment(
            params, AttackConfig(strategy="standard_state", eve_tap_fraction=1.0)
        )
        oracle = oracles.probe_guess_accuracy(2)
        sigma = binom_sigma(0.5, report.totals.eve_guesses)
        assert abs(report.metrics["eve_accuracy"] - oracle) <= 4 * sigma

    def test_ad_violation_half(self):
        params = _params(p_analyzing=0.5, transmission=0.3, rounds=40_000, seed=113)
        report, _ = run_experiment(
            params, AttackConfig(strategy="standard_state", eve_tap_fraction=1.0)
        )
        oracle = oracles.standard_state_ad_violation(2)
        sigma = binom_sigma(oracle, report.totals.ad_injected_clicks)
        assert abs(report.metrics["ad_violation_rate_injected"] - oracle) <= 4 * sigma
        assert report.metrics["qber"] == 0.0

    def test_theta_oracle_validates_estimator(self):
        params = _params(transmission=0.5, rounds=5000, seed=114)
        config = AttackConfig(strategy="standard_state", eve_tap_fraction=1.0)
        oracle = ThetaOracleTrojan(config, params)
        counts = score_trial(run_session(params, oracle), oracle.produce_guesses())
        assert counts.eve_guesses > 1000
        assert counts.eve_correct == counts.eve_guesses


class TestSimpleTrojan:
    @pytest.mark.parametrize("i", range(8))
    def test_accuracy_flat_over_probe_angles(self, i):
        eta = i * PI / 8
        params = _params(transmission=0.9, rounds=10_000, seed=115 + i)
        report, _ = run_experiment(
            params,
            AttackConfig(strategy="simple_trojan", trojan_angle=eta, eve_tap_fraction=1.0),
        )
        sigma = binom_sigma(0.5, report.totals.eve_guesses)
        assert abs(report.metrics["eve_accuracy"] - 0.5) <= 4 * sigma

    def test_no_tap_no_guesses(self):
        params = _params(rounds=2000, seed=123)
        report, _ = run_experiment(
            params, AttackConfig(strategy="simple_trojan", eve_tap_fraction=0.0)
        )
        assert report.totals.eve_guesses == 0

    def test_probe_never_touches_key(self):
        params = _params(rounds=10_000, seed=124)
        report, _ = run_experiment(
            params, AttackConfig(strategy="simple_trojan", eve_tap_fraction=1.0)
        )
        assert report.metrics["qber"] == 0.0
        assert report.verdicts["hash_mismatch"] == 0

    @pytest.mark.parametrize("eta", HUGE_ANGLES)
    def test_huge_probe_angle_counts_modulo_pi(self, eta):
        # The probe's angle is reduced once, where the probe is made; the
        # raw 1e20 would swallow Alice's rotation, whose size is below its ulp.
        params = _params(mode="pulse", mean_photons=2.0, rounds=3000, seed=127, loss=0.1)
        runs = []
        for angle in (eta, float(canon(eta))):
            attack = AttackConfig(strategy="simple_trojan", trojan_angle=angle)
            interceptor = build_interceptor(attack, params)
            transcript = run_session(params, interceptor)
            runs.append((transcript.rounds, interceptor.produce_guesses()))
        (rounds, guesses), (rounds_canon, guesses_canon) = runs
        assert len(guesses) > 0 and len(rounds.ad_bits) > 0
        assert rounds == rounds_canon
        assert np.array_equal(guesses.rounds, guesses_canon.rounds)
        assert np.array_equal(guesses.bits, guesses_canon.bits)


class TestPassivePns:
    def test_single_photon_mode_never_splits(self):
        params = _params(mode="single", rounds=2000, seed=125)
        report, _ = run_experiment(params, AttackConfig(strategy="passive_pns"))
        assert report.totals.eve_guesses == 0

    def test_non_analyzing_accuracy_is_coinflip(self):
        params = _params(
            mode="pulse", mean_photons=3.0, p_analyzing=0.3,
            rounds=40_000, seed=126,
        )
        report, _ = run_experiment(params, AttackConfig(strategy="passive_pns"))
        guesses = report.totals.eve_guesses - report.totals.eve_analyzing_guesses
        sigma = binom_sigma(0.5, guesses)
        assert abs(report.metrics["eve_accuracy_non_analyzing"] - 0.5) <= 4 * sigma

    def test_analyzing_rounds_with_stored_final_photon_read_key(self):
        # phi = phi* is public there; with a stored final-leg photon the
        # readout is deterministic
        params = _params(
            mode="pulse", mean_photons=3.0, p_analyzing=0.5,
            transmission=0.9, rounds=20_000, seed=127,
        )
        attack = build_interceptor(AttackConfig(strategy="passive_pns"), params)
        transcript = run_session(params, attack)
        stored = np.zeros(params.rounds, bool)
        stored[attack.storage.owner] = True  # read before the guesses use it up
        guesses = attack.produce_guesses()
        assert oracles.passive_pns_analyzing_accuracy(2) == pytest.approx(1.0)
        rounds = guesses.rounds
        checked = transcript.rounds.is_analyzing[rounds] & stored[rounds]
        assert np.all(guesses.bits[checked] == transcript.rounds.k[rounds[checked]])
        assert np.count_nonzero(checked) > 1000

    def test_invisible_to_both_detectors(self):
        params = _params(
            mode="pulse", mean_photons=3.0, p_analyzing=0.3,
            rounds=20_000, seed=128,
        )
        report, _ = run_experiment(params, AttackConfig(strategy="passive_pns"))
        assert report.metrics["qber"] == 0.0
        assert report.totals.ad_violations == 0
        assert report.verdicts["accepted"] == len(report.per_trial)

    def test_key_accuracy_stays_blind(self):
        params = _params(
            mode="pulse", mean_photons=3.0, p_analyzing=0.3,
            rounds=40_000, seed=129,
        )
        report, _ = run_experiment(params, AttackConfig(strategy="passive_pns"))
        sigma = binom_sigma(0.5, report.totals.eve_key_guesses)
        assert report.metrics["eve_key_accuracy"] <= 0.5 + 3 * sigma


def test_relaying_attacks_always_leave_a_trace():
    # every strategy that modifies relayed photons shows up in QBER or AD
    cases = [
        ("impersonation", dict(mode="single", transmission=0.8, p_analyzing=0.3)),
        ("pulse_beamsplit", dict(mode="pulse", mean_photons=2.0, transmission=0.8,
                                 p_analyzing=0.3)),
        ("pns_trojan", dict(mode="pulse", mean_photons=2.0, transmission=0.8,
                            p_analyzing=0.3)),
        ("standard_state", dict(mode="single", transmission=0.8, p_analyzing=0.3)),
    ]
    for strategy, overrides in cases:
        params = _params(rounds=30_000, seed=130, **overrides)
        report, _ = run_experiment(params, AttackConfig(strategy=strategy))
        qber_count = report.totals.qber_errors
        assert qber_count > 0 or report.totals.ad_violations > 0, strategy


def test_verdict_follows_violations_then_hashes():
    # An AD violation rejects a session whatever the keys; otherwise the
    # hashes decide. With no analyzing rounds only the hashes can reject.
    seen, wrong = set(), []
    for p_analyzing in (0.5, 0.0):
        for strategy in (STRATEGY_NONE, *STRATEGY_TABLE):
            required = STRATEGY_TABLE[strategy][1] if strategy in STRATEGY_TABLE else None
            for mode in (required,) if required else ("single", "pulse"):
                params = _params(
                    rounds=2000, seed=3, p_analyzing=p_analyzing, mode=mode,
                    mean_photons=2.0,
                )
                interceptor = build_interceptor(AttackConfig(strategy=strategy), params)
                t = run_session(params, interceptor)
                if t.ad_violations > 0:
                    expected = Verdict.INTEGRITY_VIOLATION
                elif t.alice_hash != t.bob_hash:
                    expected = Verdict.HASH_MISMATCH
                else:
                    expected = Verdict.ACCEPTED
                seen.add(expected)
                if t.verdict is not expected:
                    wrong.append((strategy, mode, p_analyzing, t.verdict, expected))
    assert wrong == []
    assert seen == set(Verdict)
