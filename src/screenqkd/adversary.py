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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import Guesses, Interceptor, Leg
from .errors import ConfigError, check_real
from .photonics import PI, Origin, Pulse, blocks, measure, single_photon_pulse, uniform_mask
from .protocol import Announcement, ProtocolParams, MODE_PULSE, MODE_SINGLE

STRATEGY_NONE = "none"


@dataclass(frozen=True)
class AttackConfig:
    """Strategy selector plus its knobs.

    ``trojan_angle`` is the probe polarization for the simple Trojan. A
    knob other than its default is accepted only by the strategies whose
    row of :data:`STRATEGY_TABLE` lists it.
    """

    strategy: str = STRATEGY_NONE
    trojan_angle: float = 0.0
    attack_probability: float = 1.0
    # Impersonation basis-guess distribution over the screening set;
    # None means uniform. Length must equal the screening-set size.
    guess_weights: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"attack: unknown strategy {self.strategy!r}")
        check_real("trojan_angle", self.trojan_angle)
        check_real("attack_probability", self.attack_probability, 0, 1)
        for name, used in (
            ("trojan_angle", self.trojan_angle != 0),
            ("guess_weights", self.guess_weights is not None),
        ):
            strategies = [s for s, (_, _, knobs) in STRATEGY_TABLE.items() if name in knobs]
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


class _BaseAttack(Interceptor):
    """Shared plumbing: per-round activation, quantum storage, guesses.

    Each leg arrives as one batch over every round of the session, legs in
    order. What a strategy carries from one leg to the next is held as
    columns over the batch's rounds, starting with ``_active``, the rounds
    it acts on; a strategy that needs the photons of those rounds asks
    :meth:`_acting` for them. What it measures after the announcement is
    ``storage``, a batch of photons measured once, when the announcement
    arrives. Of the session it holds only the public screening set ``angles``.
    """

    def __init__(self, config: AttackConfig, angles: np.ndarray) -> None:
        self.config = config
        self.angles = angles
        self.storage: Optional[Pulse] = None
        self._active = np.zeros(0, bool)

    def intercept(
        self, leg: Leg, pulse: Pulse, round_ids: None, rng: np.random.Generator
    ) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            # Activation is drawn once per round, on its first leg.
            self._active = uniform_mask(rng, pulse.rounds, self.config.attack_probability)
        if not self._active.any():
            return pulse
        return self._act(leg, pulse, rng)

    def _act(self, leg: Leg, pulse: Pulse, rng: np.random.Generator) -> Pulse:
        """Transform the batch, acting on the rounds in ``_active``."""
        raise NotImplementedError

    def _acting(self, pulse: Pulse) -> np.ndarray:
        """Mask of the photons of the active rounds."""
        return self._active[pulse.owner]

    def _split_off(self, pulse: Pulse) -> tuple[Pulse, Pulse]:
        """(the first photon of each active multi-photon pulse, the rest):
        a split-off photon leads its pulse and has a successor in its round."""
        same = pulse.owner[1:] == pulse.owner[:-1]
        split = np.zeros(pulse.count, bool)
        split[:-1] = same  # the successor is in the same round
        split[1:] &= ~same  # the predecessor is not
        return pulse.split(np.logical_and(split, self._acting(pulse), out=split))

    def observe_announcement(
        self, announcement: Announcement, rng: np.random.Generator
    ) -> None:
        if self.storage is not None:
            self.guesses = self._read_storage(announcement, rng)
            self.storage = None  # used up

    def _read_storage(self, announcement: Announcement, rng: np.random.Generator) -> Guesses:
        """Measure the stored photons once the announcement is public."""
        raise NotImplementedError


class Impersonation(_BaseAttack):
    """Intercept-resend against all three legs, single-photon mode.

    Leg 1: keep Alice's pulse, substitute one at a random theta'.
    Leg 2: compensate theta' on Bob's reply and keep it; return Alice's
    original so she encodes onto her own photons.
    Leg 3: read Alice's returning pulse and re-encode the readout onto the
    stored reply. The returning state is (-1)^k pi/4 + alpha_a (theta
    cancelled): Eve guesses a screening angle, measures in the guessed
    basis (alpha_g +/- pi/4), and re-encodes with the same sign convention
    Alice uses for k. :class:`PulseBeamSplit` reads this leg its own way.
    """

    def __init__(self, config: AttackConfig, angles: np.ndarray) -> None:
        super().__init__(config, angles)
        weights = config.guess_weights
        self._guess_probs = None  # a uniform basis guess
        if weights is not None:
            if len(weights) != len(angles):
                raise ConfigError(
                    f"guess_weights: expected {len(angles)} weights, "
                    f"got {len(weights)}"
                )
            total = sum(weights)
            self._guess_probs = tuple(w / total for w in weights)

    def _act(self, leg: Leg, pulse: Pulse, rng: np.random.Generator) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            self._original, rest = pulse.split(self._acting(pulse))
            self._theta_prime = rng.random(pulse.rounds) * PI
            substitutes = replace(self._original, angles=(self._theta_prime, None))
            return rest.merged(substitutes.tagged(Origin.EVE))
        if leg is Leg.BOB_TO_ALICE:
            reply, rest = pulse.split(self._acting(pulse))
            self._reply = reply.rotated(-self._theta_prime)
            original = self._original
            self._original = self._theta_prime = None  # used up
            return rest.merged(original)
        # Eve relays her stored reply in each active round whose final-leg
        # pulse arrives; one that arrives empty stays empty.
        active, rest = pulse.split(self._acting(pulse))
        relayed = np.zeros(pulse.rounds, bool)
        relayed[active.owner] = True
        delta = self._read_final_leg(active, rng)
        reply = self._reply.take(relayed[self._reply.owner]).rotated(delta)
        self._reply = None  # used up
        return rest.merged(reply)

    def _read_final_leg(self, active: Pulse, rng: np.random.Generator) -> np.ndarray:
        """Measure the active rounds' final-leg photons and record guesses.
        Returns the rotation that re-encodes each round's stored reply.
        `active` is read as handed: in single-photon mode Eve hands Alice
        back only her own leg-1 photon and injects none, so a round's
        final-leg pulse holds at most that one photon."""
        rounds = active.owner
        guess = rng.choice(len(self.angles), len(rounds), p=self._guess_probs)
        readout = measure(active, self.angles[guess] + PI / 4, rng)
        self.guesses = Guesses(rounds, readout)
        delta = np.zeros(active.rounds)
        delta[rounds] = (1 - 2 * readout) * (PI / 4)
        return delta


class PulseBeamSplit(Impersonation):
    """Pulse-mode impersonation with an N-way measurement on the final leg.

    The returning pulse is split into N equal sub-pulses and sub-pulse i
    is measured in the basis (alpha_i + pi/4, alpha_i - pi/4). A readout
    is conclusive iff exactly one hypothesis (alpha_a, k) assigns nonzero
    probability to every observed outcome; only then does Eve know how to
    re-encode her stored reply exactly, otherwise she relays it untouched
    and unavoidably injects errors.
    """

    def _read_final_leg(self, active: Pulse, rng: np.random.Generator) -> np.ndarray:
        """Measure `active`; report its nonempty rounds, guess its conclusive ones."""
        n = len(self.angles)
        counts, owner = active.counts, active.owner
        basis = rng.integers(0, n, len(owner))
        bits = measure(active, self.angles[basis] + PI / 4, rng)
        # Hypothesis (alpha_i, k) is number 2i + k. Outcome bit b in basis i
        # has zero Born probability only under (alpha_i, 1 - b), which it
        # therefore excludes; ruling out all but one of the 2N hypotheses
        # takes at least 2N - 1 photons, so only such pulses get a row.
        candidates = np.flatnonzero(counts >= 2 * n - 1)
        row = np.full(active.rounds, -1)
        row[candidates] = np.arange(len(candidates))
        excluded = np.zeros((len(candidates), 2 * n), bool)
        # blocked: whole indices lift pulse_beamsplit's peak (mu 50) from 1729 to 2514 B/round
        for block in blocks(len(owner)):
            rows = row[owner[block]]
            on_row = rows >= 0
            excluded[rows[on_row], (2 * basis[block] + 1 - bits[block])[on_row]] = True
        conclusive = np.count_nonzero(excluded, axis=1) == 2 * n - 1
        hypothesis = np.argmin(excluded[conclusive], axis=1)
        rounds = candidates[conclusive]
        k_hat = hypothesis % 2
        self.guesses = Guesses(rounds, k_hat, reported=int(np.count_nonzero(counts)))
        delta = np.zeros(active.rounds)
        delta[rounds] = (1 - 2 * k_hat) * (PI / 4) + self.angles[hypothesis // 2]
        return delta


class _ProbeCaptureAttack(_BaseAttack):
    """Shared final-leg recapture: Eve pulls back her own probe photon.

    The probe is identified by its injection tag (the idealized stand-in
    for physical marking) and separated out of the pulse into storage, so
    it never reaches Bob's detectors. Legitimate photons pass untouched,
    which keeps these strategies exactly invisible in QBER.
    """

    def _capture_probe(self, pulse: Pulse) -> Pulse:
        self.storage, rest = pulse.split(pulse.origin == Origin.EVE)
        return rest

    def _read_storage(self, announcement: Announcement, rng: np.random.Generator) -> Guesses:
        """Measure each recaptured probe in (alpha_a + pi/4, alpha_a - pi/4)."""
        rounds = self.storage.owner
        alpha_a = self.angles[announcement.a_indices[rounds] - 1]
        return Guesses(rounds, measure(self.storage, alpha_a + PI / 4, rng))


class PnsTrojanComposite(_ProbeCaptureAttack):
    """Photon-number splitting combined with a Trojan re-injection.

    Leg 1: nondemolition count; if the pulse has two or more photons, one
    is split off and held (state theta).
    Leg 2: the held photon is attached to Bob's reply, so Alice's
    unitary cancels theta on it and leaves (-1)^k pi/4 + alpha_a.
    Leg 3: the probe is recaptured; once alpha_a is announced, measuring
    it in (alpha_a + pi/4, alpha_a - pi/4) reads k without error.
    """

    def _act(self, leg: Leg, pulse: Pulse, rng: np.random.Generator) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            self._split, rest = self._split_off(pulse)
            return rest
        if leg is Leg.BOB_TO_ALICE:
            split, self._split = self._split, None  # used up
            return pulse.merged(split.tagged(Origin.EVE))
        return self._capture_probe(pulse)


class SimpleTrojan(_ProbeCaptureAttack):
    """Independent Trojan probe at a fixed angle eta; also ``standard_state``.

    The probe enters on the return leg, and Alice's theta compensation
    leaves the recaptured probe at eta - theta + (-1)^k pi/4 + alpha_a,
    uniformly random for uniform theta, so the probe carries zero
    information for every eta. ``standard_state`` is the case eta = 0
    (`AttackConfig` holds ``trojan_angle`` at 0 for it): a fixed standard
    state instead of a split photon, whose post-announcement estimate of
    k is a coin flip.
    """

    def _act(self, leg: Leg, pulse: Pulse, rng: np.random.Generator) -> Pulse:
        if leg is Leg.ALICE_TO_BOB_1:
            return pulse
        if leg is Leg.BOB_TO_ALICE:
            probes = single_photon_pulse(np.full(pulse.rounds, self.config.trojan_angle))
            return pulse.merged(probes.take(self._active).tagged(Origin.EVE))
        return self._capture_probe(pulse)


class PassivePns(_BaseAttack):
    """Pure photon-number splitting: store one photon per leg, never relay.

    Quantum storage is read only after the announcement. On analyzing
    rounds phi equals the published phi*, so a stored final-leg photon can
    be measured in a basis where its state depends only on k; on all other
    rounds theta and phi stay uniform and the estimate is a coin flip.
    """

    def _act(self, leg: Leg, pulse: Pulse, rng: np.random.Generator) -> Pulse:
        split, rest = self._split_off(pulse)
        if leg is Leg.ALICE_TO_BOB_1:
            # The rounds that lost a photon on any leg. Only the final-leg
            # photon is ever measured, so it alone is kept (in storage).
            self._removed = np.zeros(pulse.rounds, bool)
        self._removed[split.owner] = True
        if leg is Leg.ALICE_TO_BOB_2:
            self.storage = split
        return rest

    def _read_storage(self, announcement: Announcement, rng: np.random.Generator) -> Guesses:
        rounds = np.flatnonzero(self._removed)
        # A coin flip for rounds without a stored final-leg photon.
        bits = rng.integers(0, 2, len(rounds), dtype=np.int8)
        stored = self.storage.owner
        alpha_sum = (
            self.angles[announcement.a_indices[stored] - 1]
            + self.angles[announcement.b_indices[stored] - 1]
        )
        # On analyzing rounds the state phi* + (-1)^k pi/4 + alpha_a + alpha_b
        # has every term except k public: the readout is deterministic in k.
        phi_star = np.where(announcement.phi_star_flags[stored], PI / 2, 0.0)
        final = np.searchsorted(rounds, stored)  # each stored photon's place in rounds
        bits[final] = measure(self.storage, phi_star + alpha_sum + PI / 4, rng)
        return Guesses(rounds, bits)


# Every strategy: its interceptor class, the one source mode it requires
# (None: either) and the knobs it accepts besides attack_probability.
# passive_pns runs in either mode: with single photons it never finds a
# multi-photon pulse to split and emits no guesses.
STRATEGY_TABLE = {
    "impersonation": (Impersonation, MODE_SINGLE, ("guess_weights",)),
    "pulse_beamsplit": (PulseBeamSplit, MODE_PULSE, ()),
    "pns_trojan": (PnsTrojanComposite, MODE_PULSE, ()),
    "standard_state": (SimpleTrojan, None, ()),
    "simple_trojan": (SimpleTrojan, None, ("trojan_angle",)),
    "passive_pns": (PassivePns, None, ()),
}
STRATEGIES = (STRATEGY_NONE, *STRATEGY_TABLE)


def build_interceptor(config: AttackConfig, params: ProtocolParams) -> Interceptor:
    """Instantiate the configured strategy on the screening set, validating
    mode compatibility; a new identity :class:`Interceptor` for ``none``."""
    if config.strategy == STRATEGY_NONE:
        return Interceptor()
    cls, mode, _ = STRATEGY_TABLE[config.strategy]
    if mode is not None and params.mode != mode:
        name = "single-photon" if mode == MODE_SINGLE else mode
        raise ConfigError(
            f"attack: {config.strategy} requires {name} mode, got {params.mode!r}"
        )
    return cls(config, params.angles)
