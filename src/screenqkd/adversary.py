"""Eavesdropping strategies, each as a channel interceptor.

Eve is deliberately idealized (lossless taps, nondemolition photon
counting, perfect quantum storage measured only after the announcement)
so that the detection claims are tested against the strongest modeled
adversary. Probe capture on the final leg targets her own injected photon
only; legitimate photons are never altered by the probe-based strategies.

Strategies:

* ``impersonation`` - full three-leg intercept-resend, single-photon mode.
* ``pulse_beamsplit`` - same storyline in pulse mode; the returning pulse
  is split into N sub-pulses measured against the N candidate screening
  bases, and Eve relays a corrected pulse only on conclusive readouts.
* ``pns_trojan`` - removes one photon from multi-photon pulses, re-injects
  it on the return leg so Alice's unitary imprints k and alpha_a on it,
  then recaptures it.
* ``standard_state`` - injects a fixed-angle probe instead of the removed photon.
* ``simple_trojan`` - injects an independent probe at a chosen angle.
* ``passive_pns`` - silently stores one photon per leg from multi-photon
  pulses and estimates key bits after the announcement.

Every strategy honors ``attack_probability``: at 0 it never touches a
pulse, reproducing honest statistics exactly for the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import Interceptor, Leg
from .errors import ConfigError, check_real
from .photonics import PI, Origin, Photon, Pulse, measure
from .protocol import Announcement, ProtocolParams, MODE_PULSE, MODE_SINGLE

STRATEGY_NONE = "none"
STRATEGY_IMPERSONATION = "impersonation"
STRATEGY_PULSE_BEAMSPLIT = "pulse_beamsplit"
STRATEGY_PNS_TROJAN = "pns_trojan"
STRATEGY_STANDARD_STATE = "standard_state"
STRATEGY_SIMPLE_TROJAN = "simple_trojan"
STRATEGY_PASSIVE_PNS = "passive_pns"

# The strategies that inject a probe photon and try to recapture it.
_PROBE_CAPTURE = (STRATEGY_PNS_TROJAN, STRATEGY_STANDARD_STATE, STRATEGY_SIMPLE_TROJAN)

STRATEGIES = (
    STRATEGY_NONE,
    STRATEGY_IMPERSONATION,
    STRATEGY_PULSE_BEAMSPLIT,
    STRATEGY_PNS_TROJAN,
    STRATEGY_STANDARD_STATE,
    STRATEGY_SIMPLE_TROJAN,
    STRATEGY_PASSIVE_PNS,
)


@dataclass(frozen=True)
class AttackConfig:
    """Strategy selector plus its knobs.

    ``eve_tap_fraction`` is the per-round probability that Eve recovers
    her own probe photon on the final leg; ``trojan_angle`` is the probe
    polarization for the simple Trojan; ``theta_oracle`` enables the
    counterfactual estimator validation mode of the standard-state strategy, in
    which the harness feeds Eve the true theta values after the fact. A knob
    other than its default is accepted only by the strategies that use it:
    ``eve_tap_fraction`` by the probe-capture strategies, ``trojan_angle``
    by ``simple_trojan``, ``theta_oracle`` by ``standard_state`` and
    ``guess_weights`` by ``impersonation``.
    """

    strategy: str = STRATEGY_NONE
    eve_tap_fraction: float = 1.0
    trojan_angle: float = 0.0
    attack_probability: float = 1.0
    theta_oracle: bool = False
    # Impersonation basis-guess distribution over the screening set;
    # None means uniform. Length must equal the screening-set size.
    guess_weights: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"attack: unknown strategy {self.strategy!r}")
        check_real("eve_tap_fraction", self.eve_tap_fraction, 0, 1)
        check_real("trojan_angle", self.trojan_angle)
        check_real("attack_probability", self.attack_probability, 0, 1)
        if not isinstance(self.theta_oracle, bool):
            raise ConfigError(
                f"theta_oracle: must be true or false, got {self.theta_oracle!r}"
            )
        for name, used, strategies in (
            ("eve_tap_fraction", self.eve_tap_fraction != 1, _PROBE_CAPTURE),
            ("trojan_angle", self.trojan_angle != 0, (STRATEGY_SIMPLE_TROJAN,)),
            ("theta_oracle", self.theta_oracle, (STRATEGY_STANDARD_STATE,)),
            ("guess_weights", self.guess_weights is not None, (STRATEGY_IMPERSONATION,)),
        ):
            if used and self.strategy not in strategies:
                raise ConfigError(
                    f"{name}: applies only to {', '.join(strategies)}, "
                    f"got attack {self.strategy!r}"
                )
        if self.guess_weights is not None:
            if not isinstance(self.guess_weights, (list, tuple)):
                raise ConfigError(
                    f"guess_weights: must be a list of numbers, got {self.guess_weights!r}"
                )
            object.__setattr__(self, "guess_weights", tuple(self.guess_weights))
            for weight in self.guess_weights:
                check_real("guess_weights", weight, 0)
            total = sum(self.guess_weights)
            if total <= 0:
                raise ConfigError(
                    f"guess_weights: need nonnegative weights with a positive sum, "
                    f"got {self.guess_weights}"
                )
            if not math.isfinite(total):
                raise ConfigError(
                    f"guess_weights: the sum overflows, got {self.guess_weights}"
                )


def _normalized_guess_probs(
    config: AttackConfig, params: ProtocolParams
) -> Optional[tuple[float, ...]]:
    """Validate and normalize a basis-guess distribution (None = uniform)."""
    if config.guess_weights is None:
        return None
    if len(config.guess_weights) != params.n_screening:
        raise ConfigError(
            f"guess_weights: expected {params.n_screening} weights, "
            f"got {len(config.guess_weights)}"
        )
    total = sum(config.guess_weights)
    return tuple(w / total for w in config.guess_weights)


def _draw_guess_index(
    probs: Optional[tuple[float, ...]], n: int, rng: np.random.Generator
) -> int:
    if probs is None:
        return int(rng.integers(0, n))
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return n - 1


class _BaseAttack(Interceptor):
    """Shared plumbing: per-round activation, quantum storage, guesses.

    The channel runs the three legs of one round back to back, so state
    needed only within a round is held for the current round alone. What
    is kept across rounds is keyed by round id: the photons measured after
    the announcement (``storage``, popped when measured, so each is
    measured at most once) and the guesses.
    """

    def __init__(self, config: AttackConfig, params: ProtocolParams) -> None:
        self.config = config
        self.params = params
        self.storage: dict[int, Photon] = {}
        self.guesses: dict[int, int] = {}
        self.announcement: Optional[Announcement] = None
        self._round: Optional[int] = None
        self._active = False
        self._rng: Optional[np.random.Generator] = None

    def intercept(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        self._rng = rng
        if round_id != self._round:
            # Activation is drawn once per round, on its first leg; the
            # p = 0 and p = 1 cases draw nothing.
            self._round = round_id
            p = self.config.attack_probability
            self._active = p == 1.0 or (p > 0.0 and rng.random() < p)
        if not self._active:
            return pulse
        return self._act(leg, pulse, round_id, rng)

    def _act(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        raise NotImplementedError

    def observe_announcement(self, announcement: Announcement) -> None:
        self.announcement = announcement

    def produce_guesses(self) -> dict[int, int]:
        return dict(self.guesses)


class _ImpersonationBase(_BaseAttack):
    """Common first two legs of the intercept-resend storyline.

    Leg 1: keep Alice's pulse, substitute one at a random theta'.
    Leg 2: compensate theta' on Bob's reply and keep it; return Alice's
    original so she encodes onto her own photons. What happens on the
    final leg distinguishes the variants.
    """

    # The current round's theta', Alice's pulse and Bob's compensated reply.
    _theta_prime = 0.0
    _original = _reply = Pulse()

    def _act(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            self._original = pulse
            self._theta_prime = rng.random() * PI
            substitute = Photon(self._theta_prime, Origin.EVE_REPLAYED)
            return Pulse((substitute,) * pulse.count)
        if leg is Leg.BOB_TO_ALICE:
            self._reply = pulse.rotated(-self._theta_prime)
            return self._original
        return self._act_final_leg(pulse, round_id, rng)

    def _act_final_leg(
        self, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        raise NotImplementedError


class ImpersonationSinglePhoton(_ImpersonationBase):
    """Intercept-resend against all three legs, single-photon mode.

    On the final leg the returning state is (-1)^k pi/4 + alpha_a (theta
    cancelled): Eve guesses a screening angle, measures in the guessed
    basis (alpha_g +/- pi/4), and re-encodes the readout onto the stored
    reply with the same sign convention Alice uses for k.
    """

    def __init__(self, config: AttackConfig, params: ProtocolParams) -> None:
        super().__init__(config, params)
        self._guess_probs = _normalized_guess_probs(config, params)

    def _act_final_leg(
        self, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if pulse.is_empty:
            return pulse
        guess_index = _draw_guess_index(self._guess_probs, self.params.n_screening, rng)
        axis = self.params.angles[guess_index] + PI / 4
        readout = measure(pulse.photons[0], axis, rng)
        self.guesses[round_id] = readout
        sign = 1.0 if readout == 0 else -1.0
        return self._reply.rotated(sign * PI / 4)


class PulseBeamSplit(_ImpersonationBase):
    """Pulse-mode impersonation with an N-way measurement on the final leg.

    The returning pulse is split into N equal sub-pulses and sub-pulse i
    is measured in the basis (alpha_i + pi/4, alpha_i - pi/4). A readout
    is conclusive iff exactly one hypothesis (alpha_a, k) assigns nonzero
    probability to every observed outcome; only then does Eve know how to
    re-encode her stored reply exactly, otherwise she relays it untouched
    and unavoidably injects errors.
    """

    def __init__(self, config: AttackConfig, params: ProtocolParams) -> None:
        super().__init__(config, params)
        self.reported_rounds = 0
        self.conclusive_rounds = 0

    def _act_final_leg(
        self, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if pulse.is_empty:
            return pulse
        self.reported_rounds += 1
        angles = self.params.angles
        n = len(angles)
        consistent = {(i, k) for i in range(n) for k in (0, 1)}
        for photon in pulse.photons:
            i = int(rng.integers(0, n))
            bit = measure(photon, angles[i] + PI / 4, rng)
            # Outcome bit b in basis i has zero Born probability only under
            # the hypothesis (alpha_i, 1 - b), which it therefore excludes.
            consistent.discard((i, 1 - bit))
        if len(consistent) == 1:
            self.conclusive_rounds += 1
            a_i, k_hat = next(iter(consistent))
            self.guesses[round_id] = k_hat
            sign = 1.0 if k_hat == 0 else -1.0
            return self._reply.rotated(sign * PI / 4 + angles[a_i])
        return self._reply

    def metrics(self) -> dict[str, int]:
        return {
            "reported_rounds": self.reported_rounds,
            "conclusive_rounds": self.conclusive_rounds,
        }


class _ProbeCaptureAttack(_BaseAttack):
    """Shared final-leg recapture: Eve pulls back her own probe photon.

    The probe is identified by its injection tag (the idealized stand-in
    for physical marking) and always separated out of the pulse, so it
    never reaches Bob's detectors; with probability ``eve_tap_fraction``
    Eve recovers it into storage, otherwise it is lost. Legitimate
    photons pass untouched either way, which keeps these strategies
    exactly invisible in QBER.
    """

    def __init__(self, config: AttackConfig, params: ProtocolParams) -> None:
        super().__init__(config, params)
        self.captured_rounds = 0

    def _capture_probe(
        self, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        for idx, photon in enumerate(pulse.photons):
            if photon.origin is Origin.TROJAN_INJECTED:
                remaining = pulse.photons[:idx] + pulse.photons[idx + 1 :]
                recovered = (
                    self.config.eve_tap_fraction == 1.0
                    or (
                        self.config.eve_tap_fraction > 0.0
                        and rng.random() < self.config.eve_tap_fraction
                    )
                )
                if recovered:
                    self.storage[round_id] = photon
                    self.captured_rounds += 1
                return Pulse(remaining)
        return pulse

    def produce_guesses(self) -> dict[int, int]:
        """Measure each recaptured probe in (alpha_a + pi/4, alpha_a - pi/4)."""
        if self.announcement is None:
            return {}
        for round_id in sorted(self.storage):
            probe = self.storage.pop(round_id)
            alpha_a = self.params.angles[self.announcement.a_indices[round_id] - 1]
            self.guesses[round_id] = measure(probe, alpha_a + PI / 4, self._rng)
        return dict(self.guesses)

    def metrics(self) -> dict[str, int]:
        return {"captured_rounds": self.captured_rounds}


class PnsTrojanComposite(_ProbeCaptureAttack):
    """Photon-number splitting combined with a Trojan re-injection.

    Leg 1: nondemolition count; if the pulse has two or more photons, one
    is split off and held (state theta).
    Leg 2: the held photon is attached to Bob's reply, so Alice's
    unitary cancels theta on it and leaves (-1)^k pi/4 + alpha_a.
    Leg 3: the probe is recaptured; once alpha_a is announced, measuring
    it in (alpha_a + pi/4, alpha_a - pi/4) reads k without error.
    """

    _split: Optional[Photon] = None  # split off in the current round

    def _act(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            self._split = None
            if pulse.count >= 2:
                self._split = pulse.photons[0]
                return Pulse(pulse.photons[1:])
            return pulse
        if leg is Leg.BOB_TO_ALICE:
            if self._split is not None:
                probe = Photon(self._split.polarization, Origin.TROJAN_INJECTED)
                return Pulse(pulse.photons + (probe,))
            return pulse
        return self._capture_probe(pulse, round_id, rng)


class SimpleTrojan(_ProbeCaptureAttack):
    """Independent Trojan probe at a fixed angle eta.

    Alice's theta compensation leaves the recaptured probe at
    eta - theta + (-1)^k pi/4 + alpha_a, uniformly random for uniform
    theta, so the probe carries zero information for every eta.
    """

    def _probe_angle(self) -> float:
        return self.config.trojan_angle

    def _act(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if leg is Leg.BOB_TO_ALICE:
            probe = Photon(self._probe_angle(), Origin.TROJAN_INJECTED)
            return Pulse(pulse.photons + (probe,))
        if leg is Leg.ALICE_TO_BOB_2:
            return self._capture_probe(pulse, round_id, rng)
        return pulse


class StandardStateProbe(SimpleTrojan):
    """Trojan variant injecting a fixed standard state instead of a split photon.

    The probe enters at angle 0 on the return leg, so Alice's unitary
    leaves it at -theta + (-1)^k pi/4 + alpha_a: the unknown theta
    randomizes it completely and the post-announcement estimate of k is a
    coin flip. With ``theta_oracle`` the harness hands Eve the true theta
    values afterwards, which degenerates the estimator to a perfect one
    and validates its implementation.
    """

    def _probe_angle(self) -> float:
        return 0.0

    def set_counterfactual_thetas(self, thetas: list[float]) -> None:
        """Counterfactual validation hook; only used when theta_oracle is set.

        Shifts each stored probe by its round's true theta, which cancels
        the -theta that Alice's unitary imprinted on it.
        """
        for round_id, probe in self.storage.items():
            self.storage[round_id] = probe.rotated(thetas[round_id])


class PassivePns(_BaseAttack):
    """Pure photon-number splitting: store one photon per leg, never relay.

    Quantum storage is read only after the announcement. On analyzing
    rounds phi equals the published phi*, so a stored final-leg photon can
    be measured in a basis where its state depends only on k; on all other
    rounds theta and phi stay uniform and the estimate is a coin flip.
    """

    def __init__(self, config: AttackConfig, params: ProtocolParams) -> None:
        super().__init__(config, params)
        # Rounds that lost a photon on each leg. Only the final-leg photon
        # is ever measured, so it alone is kept (in storage).
        self._split_rounds: dict[Leg, set[int]] = {leg: set() for leg in Leg}
        # Which legs each guessed round had a stored photon on, kept for
        # offline reporting after the storage itself has been consumed.
        self.guess_sources: dict[int, frozenset[Leg]] = {}

    def _act(
        self, leg: Leg, pulse: Pulse, round_id: int, rng: np.random.Generator
    ) -> Pulse:
        if pulse.count >= 2:
            self._split_rounds[leg].add(round_id)
            if leg is Leg.ALICE_TO_BOB_2:
                self.storage[round_id] = pulse.photons[0]
            return Pulse(pulse.photons[1:])
        return pulse

    def produce_guesses(self) -> dict[int, int]:
        if self.announcement is None:
            return {}
        ann = self.announcement
        for round_id in sorted(set().union(*self._split_rounds.values())):
            self.guess_sources[round_id] = frozenset(
                leg for leg, rounds in self._split_rounds.items() if round_id in rounds
            )
            final = self.storage.pop(round_id, None)
            alpha_sum = (
                self.params.angles[ann.a_indices[round_id] - 1]
                + self.params.angles[ann.b_indices[round_id] - 1]
            )
            if final is None:
                bit = int(self._rng.integers(0, 2))
            elif ann.analyzing_flags[round_id]:
                # State phi* + (-1)^k pi/4 + alpha_a + alpha_b with every
                # term except k public: the readout is deterministic in k.
                axis = ann.phi_star_values[round_id] + alpha_sum + PI / 4
                bit = measure(final, axis, self._rng)
            else:
                bit = measure(final, alpha_sum + PI / 4, self._rng)
            self.guesses[round_id] = bit
        return dict(self.guesses)

    def metrics(self) -> dict[str, int]:
        return {
            "stored_leg1": len(self._split_rounds[Leg.ALICE_TO_BOB_1]),
            "stored_leg2": len(self._split_rounds[Leg.BOB_TO_ALICE]),
        }


# passive_pns is not listed pulse-only: in single-photon mode it simply
# never finds a multi-photon pulse to split and emits zero guesses.
_SINGLE_ONLY = {STRATEGY_IMPERSONATION}
_PULSE_ONLY = {STRATEGY_PULSE_BEAMSPLIT, STRATEGY_PNS_TROJAN}

_CLASSES = {
    STRATEGY_IMPERSONATION: ImpersonationSinglePhoton,
    STRATEGY_PULSE_BEAMSPLIT: PulseBeamSplit,
    STRATEGY_PNS_TROJAN: PnsTrojanComposite,
    STRATEGY_STANDARD_STATE: StandardStateProbe,
    STRATEGY_SIMPLE_TROJAN: SimpleTrojan,
    STRATEGY_PASSIVE_PNS: PassivePns,
}


def build_interceptor(
    config: AttackConfig, params: ProtocolParams
) -> Optional[Interceptor]:
    """Instantiate the configured strategy, validating mode compatibility."""
    if config.strategy == STRATEGY_NONE:
        return None
    if config.strategy in _SINGLE_ONLY and params.mode != MODE_SINGLE:
        raise ConfigError(
            f"attack: {config.strategy} requires single-photon mode, got {params.mode!r}"
        )
    if config.strategy in _PULSE_ONLY and params.mode != MODE_PULSE:
        raise ConfigError(
            f"attack: {config.strategy} requires pulse mode, got {params.mode!r}"
        )
    return _CLASSES[config.strategy](config, params)
