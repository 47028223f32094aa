"""Quantum channel legs and the interception hook.

A round crosses the channel three times (Alice -> Bob -> Alice -> Bob).
A session runs leg-major: each leg carries one batch holding the pulse of
every round. An adversary is modeled as an :class:`Interceptor` that may
transform the batch on each leg. It is built from the public screening
set and receives only physically available data: the pulses, their leg,
its own generator and (after the session) the public announcement.
Round ids are batch-local: pulse j of a batch belongs to round j, which
is also entry j of every announcement column. Round secrets (theta, phi,
k, screening indices) and the seed behind them are never handed to it.

The classical channel is public and authentic: the adversary can read the
announcement but cannot forge it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError
from .photonics import Pulse, attenuated

if TYPE_CHECKING:
    from .protocol import Announcement


class Leg(enum.Enum):
    ALICE_TO_BOB_1 = 1
    BOB_TO_ALICE = 2
    ALICE_TO_BOB_2 = 3


class Guesses:
    """Eve's key-bit guesses as two columns: ``bits[i]`` is her guess for
    round ``rounds[i]``, with the round ids ascending.

    ``reported`` counts the final-leg pulses read by a strategy that guesses
    only on conclusive readouts (``pulse_beamsplit``); it is 0 for the others.
    """

    def __init__(self, rounds=(), bits=(), reported: int = 0) -> None:
        self.rounds = np.asarray(rounds, dtype=np.intp)
        self.bits = np.asarray(bits, dtype=np.int8)
        self.reported = reported

    def __len__(self) -> int:
        return len(self.rounds)


class Interceptor:
    """The identity adversary, which honest sessions run through: it passes
    every batch through untouched and guesses nothing.

    Subclasses override :meth:`intercept`, which sees each leg once with
    the pulses of all rounds: pulse j of the batch belongs to round j, and
    the legs arrive in order. ``round_ids`` is always None; the slot stays
    because perfbench's tracer wraps this signature. They may observe the
    public announcement once the session is over and set ``guesses``, the
    per-round key-bit guesses that are all it reports. ``rng`` is the
    adversary's own generator, handed in on every call, the announcement's
    included; it is never shared with the parties.
    """

    guesses = Guesses()  # empty until a strategy sets its own

    def intercept(
        self, leg: Leg, pulse: Pulse, round_ids: None, rng: np.random.Generator
    ) -> Pulse:
        return pulse

    def observe_announcement(
        self, announcement: Announcement, rng: np.random.Generator
    ) -> None:
        pass

    def produce_guesses(self) -> Guesses:
        """Per-round key-bit guesses."""
        return self.guesses


def transmit(
    pulse: Pulse,
    leg: Leg,
    interceptor: Interceptor = Interceptor(),
    loss: float = 0.0,
    rng_channel: Optional[np.random.Generator] = None,
    rng_eve: Optional[np.random.Generator] = None,
) -> Pulse:
    """Carry a batch of pulses across one leg: interception hook first, then loss.

    Each photon is dropped independently with probability `loss`: loss is
    a beam splitter whose tapped output is discarded, so only the
    survivors are gathered. A loss-free leg returns the batch it was
    handed and draws nothing.
    """
    if not 0.0 <= loss <= 1.0:
        raise ConfigError(f"loss must be in [0, 1], got {loss}")
    pulse = interceptor.intercept(leg, pulse, None, rng_eve)
    if loss == 0.0:
        return pulse
    return attenuated(pulse, loss, rng_channel)
