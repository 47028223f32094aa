import dataclasses
import inspect
import math

import numpy as np
import pytest

from screenqkd.channel import Interceptor, Leg, transmit
from screenqkd.errors import ConfigError
from screenqkd.photonics import PI, Origin, Pulse, attenuated, beam_split
from screenqkd.protocol import MODE_SINGLE, ProtocolParams, Verdict, derive_rng, run_session

from conftest import binom_sigma


def _pulse(n: int) -> Pulse:
    """A batch of one round whose pulse holds n photons at 0.3."""
    angles = (np.full(1, 0.3), None)
    return Pulse(np.zeros(n, np.int32), np.zeros(n, np.int8), angles, 1)


class TestTransmit:
    def test_lossless_identity(self):
        pulse = _pulse(5)
        out = transmit(pulse, Leg.ALICE_TO_BOB_1)
        assert np.array_equal(out.photons, pulse.photons)

    def test_loss_free_leg_does_no_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a loss-free leg applied loss")

        monkeypatch.setattr(Pulse, "take", forbidden)
        pulse = _pulse(5)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = transmit(pulse, Leg.BOB_TO_ALICE, loss=0.0, rng_channel=rng)
        assert out is pulse
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("photons", [0, 200])
    def test_survivors_are_beam_splits_passed_output(self, loss, photons):
        # loss gathers only the survivors, from the draw the AD tap makes
        counts = np.random.default_rng(5).poisson(photons / 50, 50)
        owner = np.repeat(np.arange(50, dtype=np.int32), counts)
        pulse = Pulse(
            owner, np.ones(len(owner), np.int8),
            (None, np.random.default_rng(6).random(50)), 50,
        )
        rng_loss, rng_split = np.random.default_rng(7), np.random.default_rng(7)
        out = transmit(pulse, Leg.ALICE_TO_BOB_2, loss=loss, rng_channel=rng_loss)
        passed = beam_split(pulse, loss, rng_split)[1]
        for column in ("photons", "origin", "owner"):
            assert np.array_equal(getattr(out, column), getattr(passed, column))
        assert out.rounds == passed.rounds == 50
        assert rng_loss.bit_generator.state == rng_split.bit_generator.state

    def test_full_loss(self):
        rng = np.random.default_rng(0)
        out = transmit(_pulse(5), Leg.ALICE_TO_BOB_1, loss=1.0, rng_channel=rng)
        assert out.is_empty

    def test_invalid_loss(self):
        # worded as ProtocolParams words them
        with pytest.raises(ConfigError, match=r"^loss: must be a finite number in \[0, 1\]"):
            transmit(_pulse(1), Leg.ALICE_TO_BOB_1, loss=1.5)
        with pytest.raises(ConfigError, match=r"^loss: must be a finite number in \[0, 1\]"):
            attenuated(_pulse(1), 1.5, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=r"^tap_fraction: must be a finite number in"):
            beam_split(_pulse(1), -0.5, np.random.default_rng(0))
        # unchecked, True would drop every photon
        with pytest.raises(ConfigError, match="^loss: must be a number, got True"):
            attenuated(_pulse(1), True, np.random.default_rng(0))

    def test_identity_interceptor_equivalent_to_none(self):
        params = ProtocolParams(n_screening=2, rounds=2000, seed=60)
        honest = run_session(params)
        hooked = run_session(params, Interceptor())
        assert honest.rounds == hooked.rounds
        assert np.array_equal(honest.alice_key, hooked.alice_key)
        assert honest.verdict == hooked.verdict

    def test_loss_composition(self):
        # loss a then b behaves like loss 1 - (1-a)(1-b)
        rng1 = np.random.default_rng(61)
        rng2 = np.random.default_rng(62)
        a, b = 0.2, 0.3
        combined = 1 - (1 - a) * (1 - b)
        n = 40_000
        pulse = _pulse(n)
        mid = transmit(pulse, Leg.ALICE_TO_BOB_1, loss=a, rng_channel=rng1)
        two_step = transmit(mid, Leg.BOB_TO_ALICE, loss=b, rng_channel=rng1).count
        one_step = transmit(
            pulse, Leg.ALICE_TO_BOB_1, loss=combined, rng_channel=rng2
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

    def observe_announcement(self, announcement, rng):
        self.announcements.append((announcement, rng))


class TestInformationFirewall:
    def test_hook_receives_only_channel_visible_data(self):
        recorder = _RecordingInterceptor()
        params = ProtocolParams(n_screening=2, rounds=50, seed=63)
        transcript = run_session(params, recorder)
        assert len(recorder.calls) == 3  # one batch of all rounds per leg
        for i, (leg, pulse, round_ids, rng) in enumerate(recorder.calls):
            # legs occur in order 1, 2, 3, each carrying every round
            assert leg is list(Leg)[i]
            # pulse j of each batch is round j: no round ids are handed over
            assert round_ids is None
        for leg, pulse, round_ids, rng in recorder.calls:
            assert isinstance(leg, Leg)
            assert isinstance(pulse, Pulse)
            assert pulse.rounds == 50
            assert isinstance(rng, np.random.Generator)
            # a batch holds its photon rows and angle tables, nothing else
            fields = {f.name for f in dataclasses.fields(pulse)}
            assert fields == {"owner", "origin", "angles", "rounds"}
        # the observer runs exactly once, with the published announcement
        # and the generator every leg was handed
        [(announcement, rng)] = recorder.announcements
        assert announcement is transcript.announcement
        assert all(call[3] is rng for call in recorder.calls)

    def test_base_interceptor_api_surface(self):
        # API review: the interceptor contract has no transcript access
        methods = {
            name
            for name, _ in inspect.getmembers(Interceptor, inspect.isfunction)
            if not name.startswith("_")
        }
        assert methods == {"intercept", "observe_announcement", "produce_guesses"}

    def test_announcement_matches_true_choices(self):
        recorder = _RecordingInterceptor()
        params = ProtocolParams(n_screening=3, rounds=200, seed=64)
        run_session(params, recorder)
        [(ann, _)] = recorder.announcements
        choices = _drawn_choices(params)
        assert ann.a_indices.tolist() == choices["a_index"].tolist()
        assert ann.b_indices.tolist() == choices["b_index"].tolist()
        assert ann.analyzing_flags.tolist() == choices["is_analyzing"].tolist()
        analyzing = choices["is_analyzing"]
        assert ann.phi_star_flags.dtype == bool
        phi_star_flags = analyzing & (choices["phi"] == PI / 2)
        assert ann.phi_star_flags.tolist() == phi_star_flags.tolist()

    def test_leg1_write_cannot_rewrite_alices_theta(self):
        # In single-photon mode the leg-1 table is the prepared angles;
        # a write into it must not reach Alice's record.
        params = ProtocolParams(n_screening=2, rounds=2000, seed=3, mode=MODE_SINGLE)
        scribbler = _Scribbler("angles")
        transcript = run_session(params, scribbler)
        assert transcript.rounds.theta.tolist() == _drawn_choices(params)["theta"].tolist()
        assert scribbler.refused == 1

    def test_announcement_write_cannot_rewrite_sifting(self):
        params = ProtocolParams(n_screening=2, rounds=1000, seed=3)
        scribbler = _Scribbler("b_indices")
        transcript = run_session(params, scribbler)
        honest = run_session(params)
        assert transcript.rounds == honest.rounds
        assert transcript.announcement.b_indices.tolist() == honest.rounds.b_index.tolist()
        assert np.array_equal(transcript.alice_key, honest.alice_key)
        assert transcript.verdict is honest.verdict is Verdict.ACCEPTED
        assert scribbler.refused == 1


def _drawn_choices(params: ProtocolParams, trial: int = 0) -> dict[str, np.ndarray]:
    """Alice's and Bob's choices drawn anew from their own generators, in
    the order a session draws them."""
    m, n = params.rounds, params.n_screening
    alice = derive_rng(params.seed, trial, 0)
    theta = alice.random(m) * PI
    k = alice.integers(0, 2, m, dtype=np.int8)
    a_index = alice.integers(1, n + 1, m)
    bob = derive_rng(params.seed, trial, 1)
    is_analyzing = bob.random(m) < params.p_analyzing
    phi = bob.random(m) * PI
    phi[is_analyzing] = bob.integers(0, 2, np.count_nonzero(is_analyzing)) * (PI / 2)
    b_index = bob.integers(1, n + 1, m)
    return dict(theta=theta, k=k, a_index=a_index, is_analyzing=is_analyzing, phi=phi,
                b_index=b_index)


class _Scribbler(Interceptor):
    """Writes into what it is handed: 0.5 into the leg-1 table of legitimate
    angles (``target="angles"``) or 1 into every announced b index
    (``target="b_indices"``); counts the writes that are refused."""

    def __init__(self, target: str):
        self.target = target
        self.refused = 0

    def _write(self, values: np.ndarray, value) -> None:
        try:
            values[:] = value
        except ValueError:
            self.refused += 1

    def intercept(self, leg, pulse, round_ids, rng):
        if leg is Leg.ALICE_TO_BOB_1 and self.target == "angles":
            self._write(pulse.angles[Origin.LEGITIMATE], 0.5)
        return pulse

    def observe_announcement(self, announcement, rng):
        if self.target == "b_indices":
            self._write(announcement.b_indices, 1)
