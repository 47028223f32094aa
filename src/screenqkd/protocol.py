"""The honest six-step protocol: preparation, double transformation, sifting.

One round walks a pulse through three channel legs:

1. Alice prepares a pulse polarized at a uniformly random angle theta.
2. Bob rotates it by phi + alpha_b, where phi is either uniformly random
   or, with probability ``p_analyzing``, an analyzing angle phi* in
   {0, pi/2}, and alpha_b is one of N public screening angles.
3. Alice rotates by -theta + (-1)^k * pi/4 + alpha_a (k is her key bit),
   taps a fraction (1 - t) of the photons into her analyzing detector
   (AD), and returns the rest.
4. Bob undoes phi and measures in the diagonal (+pi/4, -pi/4) basis.

After M rounds the screening indices and analyzing angles are published.
Rounds whose screening angles sum to pi/2 (index sum N + 1) are matched;
matched non-analyzing rounds with a detection yield key bits, and matched
analyzing rounds feed the AD integrity check: every AD outcome there must
equal k XOR (2*phi*/pi) XOR 1.

Detector bit convention (both AD and Bob): outcome 1 means collapse onto
the -pi/4 axis, 0 onto +pi/4. This is the unique convention, up to a
global flip, under which the AD integrity relation and Bob's key relation
O_b = k XOR 1 hold simultaneously.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import Interceptor, Leg, transmit
from .errors import ConfigError, ProtocolError, check_int, check_real
from .photonics import (
    DIAGONAL,
    MAX_MEAN_PHOTONS,
    PI,
    Origin,
    Pulse,
    beam_split,
    make_pulse,
    measure,
    single_photon_pulse,
)

MODE_SINGLE = "single"
MODE_PULSE = "pulse"


def screening_angles(n: int) -> list[float]:
    """The public screening set: alpha_i = i * pi / (2 * (N + 1)), i = 1..N.

    All N angles are distinct and lie strictly inside (0, pi/2); the pair
    (alpha_i, alpha_{N+1-i}) always sums to pi/2.
    """
    if n < 1:
        raise ConfigError(f"screening set size must be >= 1, got {n}")
    return [i * PI / (2 * (n + 1)) for i in range(1, n + 1)]


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters.

    ``p_analyzing`` and ``transmission`` have no canonical values; the
    defaults 0.2 and 0.9 are arbitrary and only pin the test workloads.
    """

    n_screening: int = 2
    rounds: int = 100_000
    p_analyzing: float = 0.2
    transmission: float = 0.9
    mode: str = MODE_SINGLE
    mean_photons: float = 1.0
    seed: int = 1
    digest: str = "sha256"

    def __post_init__(self) -> None:
        check_int("n_screening (N)", self.n_screening, 1)
        check_int("rounds", self.rounds, 1)
        check_real("p_analyzing", self.p_analyzing, 0, 1)
        check_real("transmission", self.transmission, 0, 1)
        if self.mode not in (MODE_SINGLE, MODE_PULSE):
            raise ConfigError(f"mode must be 'single' or 'pulse', got {self.mode!r}")
        check_real("mean_photons", self.mean_photons, 0, MAX_MEAN_PHOTONS)
        check_int("seed", self.seed)
        try:
            digest_size = hashlib.new(self.digest).digest_size
        except (ValueError, TypeError):
            raise ConfigError(f"unknown digest algorithm {self.digest!r}") from None
        if digest_size == 0:
            # shake_* digests take a length argument that key_digest never passes
            raise ConfigError(
                f"digest: {self.digest!r} has no fixed length; choose e.g. 'sha256'"
            )

    @functools.cached_property
    def angles(self) -> tuple[float, ...]:
        """The screening set, computed once per parameter set."""
        return tuple(screening_angles(self.n_screening))


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Full per-round transcript entry.

    ``ad_origins`` mirrors ``ad_outcomes`` with the diagnostic provenance
    of each tapped photon; it exists for offline analysis only and is
    never visible to the in-simulation parties. ``bob_outcome`` is present
    iff at least one photon arrived and all photon outcomes agreed
    (disagreeing multi-photon rounds are marked inconclusive and dropped
    from the key).
    """

    round_id: int
    theta: float
    phi: float
    is_analyzing: bool
    phi_star: Optional[float]
    a_index: int
    b_index: int
    k: int
    ad_outcomes: tuple[int, ...]
    ad_origins: tuple[Origin, ...]
    bob_outcome: Optional[int]
    bob_conclusive: bool
    bob_received_photons: int

    def to_dict(self) -> dict:
        return {
            "round_id": self.round_id,
            "theta": self.theta,
            "phi": self.phi,
            "is_analyzing": self.is_analyzing,
            "phi_star": self.phi_star,
            "a_index": self.a_index,
            "b_index": self.b_index,
            "k": self.k,
            "ad_outcomes": list(self.ad_outcomes),
            "ad_origins": [o.value for o in self.ad_origins],
            "bob_outcome": self.bob_outcome,
            "bob_conclusive": self.bob_conclusive,
            "bob_received_photons": self.bob_received_photons,
        }


@dataclass(frozen=True)
class Announcement:
    """The public end-of-session disclosure; readable by the adversary."""

    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    analyzing_flags: tuple[bool, ...]
    phi_star_values: tuple[Optional[float], ...]

    @classmethod
    def from_rounds(cls, rounds: Sequence[RoundRecord]) -> Announcement:
        return cls(
            a_indices=tuple(r.a_index for r in rounds),
            b_indices=tuple(r.b_index for r in rounds),
            analyzing_flags=tuple(r.is_analyzing for r in rounds),
            phi_star_values=tuple(r.phi_star for r in rounds),
        )


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    HASH_MISMATCH = "hash_mismatch"
    INTEGRITY_VIOLATION = "integrity_violation"


@dataclass(frozen=True)
class SessionTranscript:
    params: ProtocolParams
    rounds: tuple[RoundRecord, ...]
    announcement: Announcement
    alice_key: tuple[int, ...]
    bob_key: tuple[int, ...]
    alice_hash: bytes
    bob_hash: bytes
    verdict: Verdict
    ad_checked: int = 0
    ad_violations: int = 0


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator derived from (seed, stream ids)."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *stream])


def expected_ad_bit(k: int, phi_star: float) -> int:
    """AD integrity condition on matched analyzing rounds: k ^ (2 phi*/pi) ^ 1."""
    return k ^ (1 if phi_star > PI / 4 else 0) ^ 1


def is_matched(a_index: int, b_index: int, n: int) -> bool:
    """Matching condition alpha_a + alpha_b = pi/2, as an exact index test."""
    return a_index + b_index == n + 1


def alice_prepare(
    params: ProtocolParams, rng: np.random.Generator
) -> tuple[float, Pulse]:
    """Draw theta uniformly on [0, pi) and prepare a pulse polarized at it."""
    theta = rng.random() * PI
    if params.mode == MODE_SINGLE:
        pulse = single_photon_pulse(theta)
    else:
        pulse = make_pulse(theta, params.mean_photons, rng)
    return theta, pulse


def bob_transform(
    pulse: Pulse, params: ProtocolParams, rng: np.random.Generator
) -> tuple[Pulse, float, int, bool, Optional[float]]:
    """Bob's rotation step: pick phi (or phi*) and a screening angle.

    Returns (rotated pulse, phi, b_index, is_analyzing, phi_star).
    """
    is_analyzing = rng.random() < params.p_analyzing
    if is_analyzing:
        phi_star: Optional[float] = 0.0 if rng.integers(0, 2) == 0 else PI / 2
        phi = phi_star
    else:
        phi_star = None
        phi = rng.random() * PI
    b_index = int(rng.integers(1, params.n_screening + 1))
    alpha_b = params.angles[b_index - 1]
    return pulse.rotated(phi + alpha_b), phi, b_index, is_analyzing, phi_star


def alice_encode(
    pulse: Pulse,
    theta: float,
    k: int,
    a_index: int,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> tuple[Pulse, tuple[int, ...], tuple[Origin, ...]]:
    """Alice's encode step: rotation, AD tap, AD measurement.

    Every photon in the received pulse (including any adversary-injected
    one) is rotated by -theta + (-1)^k * pi/4 + alpha_a. A fraction
    (1 - transmission) is then tapped into the AD and measured in the
    diagonal basis; the remainder continues to Bob.

    Returns (pulse to Bob, AD outcome bits, AD outcome origins).
    """
    if k not in (0, 1):
        raise ConfigError(f"key bit must be 0 or 1, got {k}")
    if not 1 <= a_index <= params.n_screening:
        raise ConfigError(f"a_index must be in [1, {params.n_screening}], got {a_index}")
    alpha_a = params.angles[a_index - 1]
    sign = 1.0 if k == 0 else -1.0
    rotated = pulse.rotated(-theta + sign * PI / 4 + alpha_a)
    tapped, to_bob = beam_split(rotated, 1.0 - params.transmission, rng)
    ad_outcomes = tuple(measure(p, DIAGONAL, rng) for p in tapped.photons)
    ad_origins = tuple(p.origin for p in tapped.photons)
    return to_bob, ad_outcomes, ad_origins


def bob_decode(
    pulse: Pulse, phi: float, rng: np.random.Generator
) -> tuple[Optional[int], bool, int]:
    """Bob's decode step: undo phi, measure every photon diagonally.

    Returns (outcome bit or None, conclusive flag, photons received).
    A vacuum pulse gives (None, False, 0). If the per-photon outcomes
    disagree the round is inconclusive (double click) and the outcome is
    absent; on honest matched rounds the state is exactly aligned with an
    analyzer axis, so all photons agree deterministically.
    """
    if pulse.is_empty:
        return None, False, 0
    undone = pulse.rotated(-phi)
    bits = [measure(p, DIAGONAL, rng) for p in undone.photons]
    first = bits[0]
    if all(b == first for b in bits):
        return first, True, len(bits)
    return None, False, len(bits)


def pack_key_bits(bits: Sequence[int]) -> bytes:
    """Pack a bit string big-endian (first bit = MSB), zero-padding the tail."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def key_digest(bits: Sequence[int], algorithm: str = "sha256") -> bytes:
    return hashlib.new(algorithm, pack_key_bits(bits)).digest()


def sift_and_verify(
    params: ProtocolParams,
    rounds: Sequence[RoundRecord],
    announcement: Announcement,
) -> SessionTranscript:
    """Sifting and verification over a completed session.

    Matched rounds have screening index sum N + 1. Key bits come from
    matched non-analyzing rounds with a conclusive detection: Alice
    contributes k, Bob contributes O_b XOR 1. Every AD outcome on a
    matched analyzing round is checked against the integrity condition.
    The session is accepted iff the key digests agree and there were no
    integrity violations.
    """
    m = len(rounds)
    for name, values in (
        ("a_indices", announcement.a_indices),
        ("b_indices", announcement.b_indices),
        ("analyzing_flags", announcement.analyzing_flags),
        ("phi_star_values", announcement.phi_star_values),
    ):
        if len(values) != m:
            raise ProtocolError(
                f"announcement field {name} has length {len(values)}, expected {m}"
            )
    alice_bits: list[int] = []
    bob_bits: list[int] = []
    ad_checked = 0
    ad_violations = 0
    for rec in rounds:
        if not is_matched(rec.a_index, rec.b_index, params.n_screening):
            continue
        if rec.is_analyzing:
            expected = expected_ad_bit(rec.k, rec.phi_star)
            for bit in rec.ad_outcomes:
                ad_checked += 1
                if bit != expected:
                    ad_violations += 1
        elif rec.bob_outcome is not None:
            alice_bits.append(rec.k)
            bob_bits.append(rec.bob_outcome ^ 1)
    alice_hash = key_digest(alice_bits, params.digest)
    bob_hash = key_digest(bob_bits, params.digest)
    if ad_violations > 0:
        verdict = Verdict.INTEGRITY_VIOLATION
    elif alice_hash != bob_hash:
        verdict = Verdict.HASH_MISMATCH
    else:
        verdict = Verdict.ACCEPTED
    return SessionTranscript(
        params=params,
        rounds=tuple(rounds),
        announcement=announcement,
        alice_key=tuple(alice_bits),
        bob_key=tuple(bob_bits),
        alice_hash=alice_hash,
        bob_hash=bob_hash,
        verdict=verdict,
        ad_checked=ad_checked,
        ad_violations=ad_violations,
    )


def run_session(
    params: ProtocolParams,
    interceptor: Optional[Interceptor] = None,
    *,
    channel_loss: float = 0.0,
    trial: int = 0,
) -> SessionTranscript:
    """Execute a full session of M rounds plus announcement and sifting.

    Each actor owns a generator derived from (seed, trial, actor), so a
    run is bit-reproducible and an adversary that draws from its own
    stream never perturbs the honest parties' randomness.
    """
    rng_alice = derive_rng(params.seed, trial, 0)
    rng_bob = derive_rng(params.seed, trial, 1)
    rng_channel = derive_rng(params.seed, trial, 2)
    rng_eve = derive_rng(params.seed, trial, 3)

    rounds: list[RoundRecord] = []
    for round_id in range(params.rounds):
        theta, pulse = alice_prepare(params, rng_alice)
        pulse = transmit(
            pulse, Leg.ALICE_TO_BOB_1, round_id, interceptor,
            channel_loss, rng_channel, rng_eve,
        )
        pulse, phi, b_index, is_analyzing, phi_star = bob_transform(pulse, params, rng_bob)
        pulse = transmit(
            pulse, Leg.BOB_TO_ALICE, round_id, interceptor,
            channel_loss, rng_channel, rng_eve,
        )
        k = int(rng_alice.integers(0, 2))
        a_index = int(rng_alice.integers(1, params.n_screening + 1))
        to_bob, ad_outcomes, ad_origins = alice_encode(
            pulse, theta, k, a_index, params, rng_alice
        )
        pulse = transmit(
            to_bob, Leg.ALICE_TO_BOB_2, round_id, interceptor,
            channel_loss, rng_channel, rng_eve,
        )
        outcome, conclusive, received = bob_decode(pulse, phi, rng_bob)
        rounds.append(
            RoundRecord(
                round_id=round_id,
                theta=theta,
                phi=phi,
                is_analyzing=is_analyzing,
                phi_star=phi_star,
                a_index=a_index,
                b_index=b_index,
                k=k,
                ad_outcomes=ad_outcomes,
                ad_origins=ad_origins,
                bob_outcome=outcome,
                bob_conclusive=conclusive,
                bob_received_photons=received,
            )
        )

    announcement = Announcement.from_rounds(rounds)
    if interceptor is not None:
        interceptor.observe_announcement(announcement)
    return sift_and_verify(params, rounds, announcement)
