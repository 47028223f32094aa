import dataclasses
import inspect
import math

import numpy as np
import pytest

from screenqkd import channel
from screenqkd.channel import Interceptor, Leg, transmit
from screenqkd.errors import ConfigError
from screenqkd.photonics import Pulse, beam_split
from screenqkd.protocol import ProtocolParams, run_session

from conftest import binom_sigma

ROUND = np.arange(1)


def _pulse(n: int) -> Pulse:
    """A batch of one round whose pulse holds n photons at 0.3."""
    return Pulse(np.full(n, 0.3), np.zeros(n, np.int8), np.zeros(n, np.intp), 1)


class TestTransmit:
    def test_lossless_identity(self):
        pulse = _pulse(5)
        out = transmit(pulse, Leg.ALICE_TO_BOB_1, ROUND)
        assert np.array_equal(out.photons, pulse.photons)

    def test_loss_free_leg_does_no_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a loss-free leg applied loss")

        monkeypatch.setattr(channel, "attenuated", forbidden)
        monkeypatch.setattr(Pulse, "take", forbidden)
        pulse = _pulse(5)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = transmit(pulse, Leg.BOB_TO_ALICE, ROUND, loss=0.0, rng_channel=rng)
        assert out is pulse
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("loss", [0.3, 1.0])
    @pytest.mark.parametrize("photons", [0, 200])
    def test_survivors_are_beam_splits_passed_output(self, loss, photons):
        # loss gathers only the survivors, from the draw the AD tap makes
        counts = np.random.default_rng(5).poisson(photons / 50, 50)
        owner = np.repeat(np.arange(50), counts)
        pulse = Pulse(
            np.random.default_rng(6).random(len(owner)), np.ones(len(owner), np.int8),
            owner, 50,
        )
        rng_loss, rng_split = np.random.default_rng(7), np.random.default_rng(7)
        out = transmit(pulse, Leg.ALICE_TO_BOB_2, np.arange(50), loss=loss,
                       rng_channel=rng_loss)
        passed = beam_split(pulse, loss, rng_split)[1]
        for column in ("photons", "origin", "owner"):
            assert np.array_equal(getattr(out, column), getattr(passed, column))
        assert out.rounds == passed.rounds == 50
        assert rng_loss.bit_generator.state == rng_split.bit_generator.state

    def test_full_loss(self):
        rng = np.random.default_rng(0)
        out = transmit(_pulse(5), Leg.ALICE_TO_BOB_1, ROUND, loss=1.0, rng_channel=rng)
        assert out.is_empty

    def test_invalid_loss(self):
        with pytest.raises(ConfigError):
            transmit(_pulse(1), Leg.ALICE_TO_BOB_1, ROUND, loss=1.5)

    def test_identity_interceptor_equivalent_to_none(self):
        params = ProtocolParams(n_screening=2, rounds=2000, seed=60)
        honest = run_session(params)
        hooked = run_session(params, Interceptor())
        assert honest.rounds == hooked.rounds
        assert honest.alice_key == hooked.alice_key
        assert honest.verdict == hooked.verdict

    def test_loss_composition(self):
        # loss a then b behaves like loss 1 - (1-a)(1-b)
        rng1 = np.random.default_rng(61)
        rng2 = np.random.default_rng(62)
        a, b = 0.2, 0.3
        combined = 1 - (1 - a) * (1 - b)
        n = 40_000
        pulse = _pulse(n)
        mid = transmit(pulse, Leg.ALICE_TO_BOB_1, ROUND, loss=a, rng_channel=rng1)
        two_step = transmit(mid, Leg.BOB_TO_ALICE, ROUND, loss=b, rng_channel=rng1).count
        one_step = transmit(
            pulse, Leg.ALICE_TO_BOB_1, ROUND, loss=combined, rng_channel=rng2
        ).count
        survive = 1 - combined
        tol = 4 * math.sqrt(2) * binom_sigma(survive, n) * n
        assert abs(two_step - one_step) <= tol


class _RecordingInterceptor(Interceptor):
    def __init__(self):
        self.calls = []
        self.announcements = []

    def intercept(self, leg, pulse, round_ids, rng):
        self.calls.append((leg, pulse, round_ids, rng))
        return pulse

    def observe_announcement(self, announcement):
        self.announcements.append(announcement)


class TestInformationFirewall:
    def test_hook_receives_only_channel_visible_data(self):
        recorder = _RecordingInterceptor()
        params = ProtocolParams(n_screening=2, rounds=50, seed=63)
        transcript = run_session(params, recorder)
        assert len(recorder.calls) == 3  # one batch of all rounds per leg
        for i, (leg, pulse, round_ids, rng) in enumerate(recorder.calls):
            # legs occur in order 1, 2, 3, each carrying every round
            assert leg is list(Leg)[i]
            assert round_ids.tolist() == list(range(50))
        for leg, pulse, round_ids, rng in recorder.calls:
            assert isinstance(leg, Leg)
            assert isinstance(pulse, Pulse)
            assert pulse.rounds == 50
            assert isinstance(rng, np.random.Generator)
            # a batch holds its photon columns, nothing else
            fields = {f.name for f in dataclasses.fields(pulse)}
            assert fields == {"photons", "origin", "owner", "rounds"}
        # the observer runs exactly once, with the published announcement
        assert len(recorder.announcements) == 1
        assert recorder.announcements[0] is transcript.announcement

    def test_base_interceptor_api_surface(self):
        # API review: the interceptor contract has no transcript access
        methods = {
            name
            for name, _ in inspect.getmembers(Interceptor, inspect.isfunction)
            if not name.startswith("_")
        }
        assert methods == {
            "intercept", "observe_announcement", "produce_guesses", "metrics",
        }

    def test_announcement_matches_true_choices(self):
        recorder = _RecordingInterceptor()
        params = ProtocolParams(n_screening=3, rounds=200, seed=64)
        transcript = run_session(params, recorder)
        ann = recorder.announcements[0]
        assert np.array_equal(ann.a_indices, transcript.rounds.a_index)
        assert np.array_equal(ann.b_indices, transcript.rounds.b_index)
