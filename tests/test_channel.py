import inspect
import math

import numpy as np
import pytest

from screenqkd.channel import Interceptor, Leg, transmit
from screenqkd.errors import ConfigError
from screenqkd.photonics import Photon, Pulse
from screenqkd.protocol import ProtocolParams, run_session

from conftest import binom_sigma


def _pulse(n: int) -> Pulse:
    return Pulse(tuple(Photon(0.3) for _ in range(n)))


class TestTransmit:
    def test_lossless_identity(self):
        pulse = _pulse(5)
        out = transmit(pulse, Leg.ALICE_TO_BOB_1, 1)
        assert out.photons == pulse.photons

    def test_full_loss(self):
        rng = np.random.default_rng(0)
        out = transmit(_pulse(5), Leg.ALICE_TO_BOB_1, 1, loss=1.0, rng_channel=rng)
        assert out.is_empty

    def test_invalid_loss(self):
        with pytest.raises(ConfigError):
            transmit(_pulse(1), Leg.ALICE_TO_BOB_1, 1, loss=1.5)

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
        two_step = 0
        one_step = 0
        for i in range(n // 100):
            pulse = _pulse(100)
            mid = transmit(pulse, Leg.ALICE_TO_BOB_1, i, loss=a, rng_channel=rng1)
            out = transmit(mid, Leg.BOB_TO_ALICE, i, loss=b, rng_channel=rng1)
            two_step += out.count
            out2 = transmit(
                pulse, Leg.ALICE_TO_BOB_1, i, loss=combined, rng_channel=rng2
            )
            one_step += out2.count
        survive = 1 - combined
        tol = 4 * math.sqrt(2) * binom_sigma(survive, n) * n
        assert abs(two_step - one_step) <= tol


class _RecordingInterceptor(Interceptor):
    def __init__(self):
        self.calls = []
        self.announcements = []

    def intercept(self, leg, pulse, round_id, rng):
        self.calls.append((leg, pulse, round_id, rng))
        return pulse

    def observe_announcement(self, announcement):
        self.announcements.append(announcement)


class TestInformationFirewall:
    def test_hook_receives_only_channel_visible_data(self):
        recorder = _RecordingInterceptor()
        params = ProtocolParams(n_screening=2, rounds=50, seed=63)
        transcript = run_session(params, recorder)
        assert len(recorder.calls) == 150  # three legs per round
        for i, (leg, pulse, round_id, rng) in enumerate(recorder.calls):
            # legs occur in order 1, 2, 3 within each round
            assert leg is list(Leg)[i % 3]
            assert round_id == i // 3
        for leg, pulse, round_id, rng in recorder.calls:
            assert isinstance(leg, Leg)
            assert isinstance(pulse, Pulse)
            assert isinstance(round_id, int)
            assert isinstance(rng, np.random.Generator)
            # a pulse exposes its photons, nothing else
            public = [f for f in dir(pulse) if not f.startswith("_")]
            assert set(public) == {"photons", "count", "is_empty", "rotated"}
        # the observer runs exactly once, with the published announcement
        assert len(recorder.announcements) == 1
        assert recorder.announcements[0] == transcript.announcement

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
        assert ann.a_indices == tuple(r.a_index for r in transcript.rounds)
        assert ann.b_indices == tuple(r.b_index for r in transcript.rounds)
