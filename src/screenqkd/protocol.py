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

Rounds are independent, so a session runs leg-major: each step acts on
one batch holding every round's pulse, and the transcript is kept as
columns with one entry per round.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass, fields

import numpy as np

from .channel import Interceptor, Leg, transmit
from .errors import ConfigError, check_int, check_real
from .photonics import (
    BLOCK,
    DIAGONAL,
    MAX_MEAN_PHOTONS,
    MAX_ROUNDS,
    PI,
    Pulse,
    _read_only,
    beam_split,
    blocks,
    make_pulse,
    measure,
    single_photon_pulse,
    uniform_mask,
)

MODE_SINGLE = "single"
MODE_PULSE = "pulse"

# Largest accepted screening set: its angles are built as an array before
# the first round, so an unbounded N would exhaust memory instead of
# failing as invalid input.
MAX_SCREENING = 2**20


def screening_angles(n: int) -> np.ndarray:
    """The public screening set: alpha_i = i * pi / (2 * (N + 1)), i = 1..N.

    All N angles are distinct and lie strictly inside (0, pi/2); the pair
    (alpha_i, alpha_{N+1-i}) always sums to pi/2. Each is the scalar
    formula's own IEEE multiply and divide, so the bits match it.
    """
    check_int("screening set size N", n, 1, MAX_SCREENING)
    return _alpha(np.arange(1, n + 1), n)


def _alpha(index: np.ndarray, n: int, out=None) -> np.ndarray:
    """alpha_i for each screening index i of `index`, written into the
    float64 array `out` when one is given: the IEEE multiply and divide of
    `screening_angles`, computed from the index instead of gathered."""
    alpha = np.multiply(index, PI, out=out, dtype=np.float64)
    alpha /= 2 * (n + 1)
    return alpha


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters.

    ``p_analyzing`` and ``transmission`` have no canonical values; the
    defaults 0.2 and 0.9 are arbitrary and only pin the test workloads.
    ``loss`` is the per-photon drop probability on each of the three legs.
    """

    n_screening: int = 2
    rounds: int = 100_000
    p_analyzing: float = 0.2
    transmission: float = 0.9
    loss: float = 0.0
    mode: str = MODE_SINGLE
    mean_photons: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        check_int("n_screening (N)", self.n_screening, 1, MAX_SCREENING)
        check_int("rounds", self.rounds, 1, MAX_ROUNDS)
        check_real("p_analyzing", self.p_analyzing, 0, 1)
        check_real("transmission", self.transmission, 0, 1)
        check_real("loss", self.loss, 0, 1)
        if self.mode not in (MODE_SINGLE, MODE_PULSE):
            raise ConfigError(f"mode must be 'single' or 'pulse', got {self.mode!r}")
        check_real("mean_photons", self.mean_photons, 0, MAX_MEAN_PHOTONS)
        check_int("seed", self.seed, 0, 2**64 - 1)

    @functools.cached_property
    def angles(self) -> np.ndarray:
        """The screening set (read-only), computed once per parameter set."""
        return _read_only(screening_angles(self.n_screening))


@dataclass(frozen=True, eq=False)
class Rounds:
    """A session's transcript as columns with one entry per round.

    The AD outcomes are photon columns sorted by round: outcome bit
    ``ad_bits[i]`` came from a photon with origin code ``ad_origin[i]`` in
    round ``ad_owner[i]``. ``phi`` equals phi* on analyzing rounds.
    ``bob_outcome`` is -1 where Bob has no outcome (vacuum or an
    inconclusive multi-photon round). The screening indices are held in
    the smallest unsigned type that holds 2N, so their sum cannot
    overflow; ``bob_received`` in the smallest one that holds its largest
    count, so no integer column is wider than 4 bytes. In a session's
    record the parties' choices (``theta``, ``phi``, ``is_analyzing``,
    ``a_index``, ``b_index``, ``k``) are read-only.
    """

    theta: np.ndarray
    phi: np.ndarray
    is_analyzing: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    k: np.ndarray
    ad_bits: np.ndarray
    ad_origin: np.ndarray
    ad_owner: np.ndarray
    bob_outcome: np.ndarray
    bob_received: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rounds) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class Announcement:
    """The public end-of-session disclosure; readable by the adversary.

    One entry per round; ``phi_star_flags`` is set where the round was
    analyzing and phi* = pi/2. Every array is a read-only view, so the
    adversary reads the announcement but cannot forge it, and the
    caller's arrays stay as they were.
    """

    a_indices: np.ndarray
    b_indices: np.ndarray
    analyzing_flags: np.ndarray
    phi_star_flags: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(getattr(self, f.name)))

    @classmethod
    def from_rounds(cls, rounds: Rounds) -> Announcement:
        return cls(
            a_indices=rounds.a_index,
            b_indices=rounds.b_index,
            analyzing_flags=rounds.is_analyzing,
            phi_star_flags=rounds.is_analyzing & (rounds.phi > PI / 4),
        )


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    HASH_MISMATCH = "hash_mismatch"
    INTEGRITY_VIOLATION = "integrity_violation"


@dataclass(frozen=True, eq=False)
class SessionTranscript:
    """A sifted session. ``alice_key`` and ``bob_key`` are int8 columns
    with one entry, 0 or 1, per sifted key bit.

    The masks sifting computed are kept for scoring: ``matched`` and
    ``sifted`` have one entry per round (``sifted`` marks the rounds that
    yield a key bit), ``ad_checked_mask`` and ``ad_violation_mask`` one per
    AD outcome (the integrity condition applies to it; it violates it).
    """

    params: ProtocolParams
    rounds: Rounds
    announcement: Announcement
    alice_key: np.ndarray
    bob_key: np.ndarray
    alice_hash: bytes
    bob_hash: bytes
    verdict: Verdict
    matched: np.ndarray
    sifted: np.ndarray
    ad_checked_mask: np.ndarray
    ad_violation_mask: np.ndarray

    @property
    def ad_checked(self) -> int:
        """AD outcomes on matched analyzing rounds."""
        return int(np.count_nonzero(self.ad_checked_mask))

    @property
    def ad_violations(self) -> int:
        """AD outcomes that violate the integrity condition."""
        return int(np.count_nonzero(self.ad_violation_mask))


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator derived from (seed, stream ids)."""
    return np.random.default_rng([seed, *stream])


def expected_ad_bit(k, phi_star_flag):
    """AD integrity condition on matched analyzing rounds: k ^ (2 phi*/pi) ^ 1."""
    return k ^ phi_star_flag ^ 1


def is_matched(a_index, b_index, n: int):
    """Matching condition alpha_a + alpha_b = pi/2, as an exact index test."""
    return a_index + b_index == n + 1


def _screening_indices(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``rng.integers(1, n + 1, size)`` in the smallest unsigned type that
    holds 2N, so is_matched's sum fits."""
    return rng.integers(1, n + 1, size).astype(np.min_scalar_type(2 * n))


def alice_prepare(
    theta: np.ndarray, params: ProtocolParams, rng: np.random.Generator
) -> Pulse:
    """Prepare each round's pulse polarized at its theta."""
    if params.mode == MODE_SINGLE:
        return single_photon_pulse(theta)
    return make_pulse(theta, params.mean_photons, rng)


def bob_transform(
    pulse: Pulse, phi: np.ndarray, b_index: np.ndarray, params: ProtocolParams
) -> Pulse:
    """Bob's rotation step: rotate each round's pulse by phi + alpha_b."""
    delta = _alpha(b_index, params.n_screening)
    delta += phi  # the IEEE sum phi + alpha_b
    return pulse.rotated(delta)  # `delta` becomes the rotated table


def alice_encode(
    pulse: Pulse,
    theta: np.ndarray,
    k: np.ndarray,
    a_index: np.ndarray,
    params: ProtocolParams,
    rng: np.random.Generator,
) -> tuple[Pulse, np.ndarray, np.ndarray, np.ndarray]:
    """Alice's encode step: rotation, AD tap, AD measurement.

    Every photon in round j's received pulse (including any
    adversary-injected one) is rotated by
    -theta[j] + (-1)^k[j] * pi/4 + alpha_a[j]. A fraction
    (1 - transmission) is then tapped into the AD and measured in the
    diagonal basis; the remainder continues to Bob.

    Returns (pulses to Bob, AD outcome bits, and each AD photon's round
    and origin code): the AD columns of `Rounds`.
    """
    if not ((k == 0) | (k == 1)).all():
        raise ConfigError(f"key bits must be 0 or 1, got {np.unique(k)}")
    if len(a_index) and not (1 <= a_index.min() and a_index.max() <= params.n_screening):
        raise ConfigError(
            f"a_index must be in [1, {params.n_screening}], got {np.unique(a_index)}"
        )
    # (-1)^k pi/4 = (1/2 - k) pi/2, exact for any integer or bool k (1 - 2k
    # wraps for unsigned k); the explicit dtype keeps numpy 1.x from
    # narrowing 1/2 - k to float16. The sum runs in place.
    delta, alpha = np.empty(len(k)), np.empty(min(len(k), BLOCK))
    # blocked: a whole-array sum lifts honest's peak from 44 to 58 B/round
    for block in blocks(len(k)):
        step = np.subtract(0.5, k[block], out=delta[block], dtype=np.float64)
        step *= PI / 2
        step -= theta[block]
        step += _alpha(a_index[block], params.n_screening, out=alpha[: len(step)])
    # `delta` becomes the rotated table; rebinding `pulse` frees the received
    # table when the caller holds no other reference to the batch.
    pulse = pulse.rotated(delta)
    tapped, pulse = beam_split(pulse, 1.0 - params.transmission, rng)
    return pulse, measure(tapped, DIAGONAL, rng), tapped.owner, tapped.origin


def bob_decode(
    pulse: Pulse, phi: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's decode step: undo phi, measure every photon diagonally.

    Returns (outcome bit per round, photons received per round). The
    outcome is -1 for a vacuum pulse, and for an inconclusive one whose
    photon outcomes disagree (double click); on honest matched rounds the
    state is exactly aligned with an analyzer axis, so all photons agree
    deterministically. The counts are held in the smallest unsigned type
    that holds the largest of them.
    """
    # phi is undone as the photons are gathered from Alice's table, so no
    # rotated table is built.
    phi = np.asarray(phi, np.float64)
    bits = measure(pulse, DIAGONAL, rng, less=phi).view(bool)
    outcome = np.empty(pulse.rounds, np.int8)
    received = np.zeros(pulse.rounds, np.min_scalar_type(0))
    # blocked: a whole bincount key lifts honest's peak from 44 to 63 B/round
    for rounds, photons in pulse.round_blocks():
        # one count per (round, outcome bit): 0 outcomes at 2j, 1s at 2j + 1
        key = pulse.owner[photons] - rounds.start
        key *= 2
        key += bits[photons]
        counts = np.bincount(key, minlength=2 * (rounds.stop - rounds.start))
        zeros, ones = counts[0::2], counts[1::2]
        # Conclusive iff exactly one outcome bit occurs (vacuum has none);
        # the outcome is then 1 iff no 0 occurs.
        all_ones = zeros == 0
        conclusive = (ones == 0) != all_ones
        outcome[rounds] = np.where(conclusive, all_ones.view(np.int8), np.int8(-1))
        counts = np.add(zeros, ones, out=zeros)
        # widened as needed, so it ends in the type of the largest count
        most = counts.max(initial=0)
        if most > np.iinfo(received.dtype).max:
            received = received.astype(np.min_scalar_type(most))
        received[rounds] = counts
    return outcome, received


def pack_key_bits(bits) -> np.ndarray:
    """Pack a bit string big-endian (first bit = MSB) into uint8,
    zero-padding the tail. `bits` is a sequence or array of 0/1 values."""
    return np.packbits(np.asarray(bits, dtype=bool))


def key_digest(bits) -> bytes:
    """The SHA-256 digest of the packed key bits."""
    return hashlib.sha256(pack_key_bits(bits)).digest()


def sift_and_verify(
    params: ProtocolParams,
    rounds: Rounds,
    announcement: Announcement,
) -> SessionTranscript:
    """Sifting and verification over a completed session.

    The parties sift on what they announced: matched rounds have announced
    screening index sum N + 1. Key bits come from matched rounds announced
    non-analyzing with a conclusive detection: Alice contributes k, Bob
    contributes O_b XOR 1, each an int8 column. Every AD outcome on a
    matched round announced analyzing is checked against the announced
    phi*. Of `rounds` only the private columns are read: k, Bob's outcomes
    and the AD columns. The session is accepted iff the key digests agree
    and there were no integrity violations.
    """
    m = len(rounds)
    for f in fields(announcement):
        values = getattr(announcement, f.name)
        if len(values) != m:
            raise ConfigError(
                f"announcement field {f.name} has length {len(values)}, expected {m}"
            )
    matched = is_matched(announcement.a_indices, announcement.b_indices, params.n_screening)
    key = matched & ~announcement.analyzing_flags & (rounds.bob_outcome >= 0)
    key_rounds = np.flatnonzero(key)
    alice_key = rounds.k.take(key_rounds)
    bob_key = rounds.bob_outcome.take(key_rounds) ^ 1
    owner = rounds.ad_owner
    checked = (matched & announcement.analyzing_flags)[owner]
    expected = expected_ad_bit(rounds.k[owner], announcement.phi_star_flags[owner])
    violated = checked & (rounds.ad_bits != expected)
    alice_hash = key_digest(alice_key)
    bob_hash = key_digest(bob_key)
    if violated.any():
        verdict = Verdict.INTEGRITY_VIOLATION
    elif alice_hash != bob_hash:
        verdict = Verdict.HASH_MISMATCH
    else:
        verdict = Verdict.ACCEPTED
    return SessionTranscript(
        params=params,
        rounds=rounds,
        announcement=announcement,
        alice_key=alice_key,
        bob_key=bob_key,
        alice_hash=alice_hash,
        bob_hash=bob_hash,
        verdict=verdict,
        matched=matched,
        sifted=key,
        ad_checked_mask=checked,
        ad_violation_mask=violated,
    )


def run_session(
    params: ProtocolParams,
    interceptor: Interceptor = Interceptor(),
    *,
    trial: int = 0,
) -> SessionTranscript:
    """Execute a full session of M rounds plus announcement and sifting.

    Every step runs once over all M rounds: Alice's choices are drawn as
    arrays, then all rounds take leg 1; Bob draws his choices when he
    first acts, then all rounds take his transform, leg 2, Alice's encode
    and AD tap, leg 3 and Bob's decode in turn. Each actor owns a
    generator derived from (seed, trial, actor), so a run is
    bit-reproducible, when an actor draws does not change what it draws,
    and an adversary that draws from its own stream never perturbs the
    honest parties' randomness. An interceptor sees each leg as one
    batch, and pulse j of it is session round j; the default, the
    identity :class:`Interceptor`, makes an honest session.
    """
    rng_alice = derive_rng(params.seed, trial, 0)
    rng_bob = derive_rng(params.seed, trial, 1)
    rng_channel = derive_rng(params.seed, trial, 2)
    rng_eve = derive_rng(params.seed, trial, 3)
    m, n = params.rounds, params.n_screening
    channel = (interceptor, params.loss, rng_channel, rng_eve)

    # Alice: theta uniform on [0, pi), key bit k, screening index a.
    # Each party's choices are read-only once final: no later step, and no
    # interceptor handed a view of them, may write into them.
    theta = rng_alice.random(m)
    theta *= PI
    theta = _read_only(theta)
    k = _read_only(rng_alice.integers(0, 2, m, dtype=np.int8))
    a_index = _read_only(_screening_indices(rng_alice, n, m))

    pulse = alice_prepare(theta, params, rng_alice)
    pulse = transmit(pulse, Leg.ALICE_TO_BOB_1, *channel)

    # Bob: phi uniform on [0, pi), or with probability p_analyzing an
    # analyzing angle phi* in {0, pi/2}; screening index b.
    is_analyzing = _read_only(uniform_mask(rng_bob, m, params.p_analyzing))
    phi = rng_bob.random(m)
    phi *= PI
    phi.put(
        np.flatnonzero(is_analyzing),
        rng_bob.integers(0, 2, np.count_nonzero(is_analyzing)) * (PI / 2),
    )
    phi = _read_only(phi)
    b_index = _read_only(_screening_indices(rng_bob, n, m))

    # Alice's encode takes its batch out of a one-item list, so no name
    # here holds it while it runs: it rebinds its pulse to the rotated one,
    # which frees the batch it was handed and that batch's angle table.
    # Bob's decode builds no table; it reads Alice's.
    to_alice = [
        transmit(bob_transform(pulse, phi, b_index, params), Leg.BOB_TO_ALICE, *channel)
    ]
    del pulse
    pulse, ad_bits, ad_owner, ad_origin = alice_encode(
        to_alice.pop(), theta, k, a_index, params, rng_alice
    )
    pulse = transmit(pulse, Leg.ALICE_TO_BOB_2, *channel)
    bob_outcome, received = bob_decode(pulse, phi, rng_bob)
    del pulse

    rounds = Rounds(
        theta=theta,
        phi=phi,
        is_analyzing=is_analyzing,
        a_index=a_index,
        b_index=b_index,
        k=k,
        ad_bits=ad_bits,
        ad_origin=ad_origin,
        ad_owner=ad_owner,
        bob_outcome=bob_outcome,
        bob_received=received,
    )
    announcement = Announcement.from_rounds(rounds)
    interceptor.observe_announcement(announcement, rng_eve)
    return sift_and_verify(params, rounds, announcement)
