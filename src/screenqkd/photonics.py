"""Linear-polarization photon model.

Polarization states are axis-like: an angle and the same angle plus pi
describe the same state, so every angle is kept canonical in [0, pi).
Measurement follows the Born rule for a two-outcome polarization analyzer:
a photon at angle s measured against an axis a collapses onto the axis
with probability cos^2(s - a) (outcome bit 0) and onto the orthogonal
axis a + pi/2 otherwise (outcome bit 1).

Multi-photon pulses are products of identical independent photons; photon
number is Poissonian with configurable mean. All values here are immutable
after construction and safe to share across threads. Random number
generators are single-owner and must be passed in explicitly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PI = math.pi

# Absolute tolerance for angle comparisons after canonicalization.
ANGLE_TOL = 1e-9

# Largest accepted Poisson mean. A pulse then holds about 100 +/- 10
# photons, enough for a conclusive N-way beam-split readout up to N ~ 50;
# numpy's sampler itself fails above about 9.2e18.
MAX_MEAN_PHOTONS = 100


def canon(radians: float) -> float:
    """Canonicalize a polarization angle into [0, pi)."""
    # For tiny negative inputs the remainder rounds up to exactly pi.
    r = radians % PI
    return 0.0 if r == PI else r


def angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """Compare two angles modulo pi (handles wrap-around at 0/pi)."""
    d = canon(a - b)
    return d < tol or PI - d < tol


class Origin(enum.Enum):
    """Diagnostic provenance tag for a photon.

    Bookkeeping only: it must never influence a measurement probability or
    a routing decision made by Alice or Bob.
    """

    LEGITIMATE = "legitimate"
    TROJAN_INJECTED = "trojan_injected"
    EVE_REPLAYED = "eve_replayed"


@dataclass(frozen=True, slots=True)
class Photon:
    polarization: float
    origin: Origin = Origin.LEGITIMATE

    def __post_init__(self) -> None:
        object.__setattr__(self, "polarization", canon(self.polarization))

    def rotated(self, delta: float) -> Photon:
        return Photon(self.polarization + delta, self.origin)


@dataclass(frozen=True, slots=True)
class Pulse:
    """A multiset of photons transmitted as one unit on the quantum channel.

    An empty pulse models loss/vacuum.
    """

    photons: tuple[Photon, ...] = ()

    @property
    def count(self) -> int:
        return len(self.photons)

    @property
    def is_empty(self) -> bool:
        return not self.photons

    def rotated(self, delta: float) -> Pulse:
        return Pulse(tuple(p.rotated(delta) for p in self.photons))


# Axis of the (+pi/4, -pi/4) analyzer used by Bob's detector pair and Alice's AD.
DIAGONAL = PI / 4


def born_probability(state: float, axis: float) -> float:
    """Probability of collapsing onto `axis` (outcome bit 0)."""
    return math.cos(state - axis) ** 2


def measure(photon: Photon, axis: float, rng: np.random.Generator) -> int:
    """Projectively measure one photon on the analyzer with outcome axes
    `axis` and `axis + pi/2`; returns the outcome bit.

    Bit 0 means collapse onto `axis`, bit 1 onto the orthogonal axis.
    `axis` is taken modulo pi. The input photon is consumed: callers must
    not measure it again.
    """
    p0 = born_probability(photon.polarization, canon(axis))
    return 0 if rng.random() < p0 else 1


def make_pulse(
    polarization: float, mean_photons: float, rng: np.random.Generator
) -> Pulse:
    """Prepare a pulse with Poissonian photon number, all at one polarization."""
    if not 0 <= mean_photons <= MAX_MEAN_PHOTONS:
        raise ConfigError(
            f"mean_photons must be in [0, {MAX_MEAN_PHOTONS}], got {mean_photons}"
        )
    n = int(rng.poisson(mean_photons))
    return Pulse(tuple(Photon(polarization) for _ in range(n)))


def single_photon_pulse(polarization: float) -> Pulse:
    """Prepare a pulse containing exactly one photon."""
    return Pulse((Photon(polarization),))


def beam_split(
    pulse: Pulse, tap_fraction: float, rng: np.random.Generator
) -> tuple[Pulse, Pulse]:
    """Split a pulse on a beam splitter; returns (tapped, passed).

    Each photon independently moves to the tapped output with probability
    `tap_fraction`. Polarizations and origins are untouched and the two
    outputs partition the input.
    """
    if not 0.0 <= tap_fraction <= 1.0:
        raise ConfigError(f"tap_fraction must be in [0, 1], got {tap_fraction}")
    if tap_fraction == 0.0 or pulse.is_empty:
        return Pulse(), pulse
    if tap_fraction == 1.0:
        return pulse, Pulse()
    tapped: list[Photon] = []
    passed: list[Photon] = []
    for photon in pulse.photons:
        (tapped if rng.random() < tap_fraction else passed).append(photon)
    return Pulse(tuple(tapped)), Pulse(tuple(passed))
