"""Linear-polarization photon model over batches of pulses.

Polarization states are axis-like: an angle and the same angle plus pi
describe the same state. A pulse's constructor reduces each input angle
into [0, pi) once (see :func:`canon`); after that a rotation is one plain
add and is never reduced again. Every later rotation is a sum of a few
angles in [0, pi) or +/-pi/4, so a photon's angle stays within a few pi of
its canonical entry value, and the Born rule, being pi-periodic, needs no
reduced form. Reducing at entry keeps a huge input angle (say 1e20) from
swallowing the small rotations added to it later.

Measurement follows the Born rule for a two-outcome polarization analyzer:
a photon at angle s measured against an axis a collapses onto the axis
with probability cos^2(s - a) (outcome bit 0) and onto the orthogonal
axis a + pi/2 otherwise (outcome bit 1).

A :class:`Pulse` holds one pulse per round for a batch of rounds, as flat
photon rows (round and origin). Multi-photon pulses are products of
identical independent photons; photon number is Poissonian with
configurable mean. A photon is Alice's or Eve's (its :class:`Origin`).
Rotations act per round, and Eve's photons enter a round as one group,
so all photons of one origin in one round share one angle. A batch
stores that angle once, in a per-round table for the origin, and holds a
table exactly for the origins it has photons of: a rotation is one add
per round and origin, and moving photons moves 5 bytes each.
Batches are never modified after construction. Random number generators
are single-owner and must be passed in explicitly.

A kernel runs over consecutive blocks of at most `BLOCK` rounds or
photons only where a full-length temporary would raise a session's memory
peak: :func:`uniform_mask`, :meth:`Pulse.take`, :meth:`Pulse.merged`,
:func:`measure`, in `protocol` Alice's encode delta and Bob's decode, and
in `adversary` the beam-split final-leg readout; each loop names the peak
it bounds. Every other kernel works on whole arrays. Consecutive calls on
one generator continue one stream, so a blocked draw takes exactly the
values, and leaves the generator in exactly the state, of one whole call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import check_real

PI = math.pi

# Largest accepted Poisson mean. A pulse then holds about 100 +/- 10
# photons, enough for a conclusive N-way beam-split readout up to N ~ 50;
# numpy's sampler itself fails above about 9.2e18.
MAX_MEAN_PHOTONS = 100

# Largest accepted batch: a photon's round, `Pulse.owner`, is an int32.
MAX_ROUNDS = 2**31 - 1

# Rounds or photons per block of a blocked kernel (see the module
# docstring): a float64 block is 128 KiB, glibc's initial mmap threshold.
BLOCK = 2**14


def blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most `BLOCK` items that cover ``range(size)``."""
    return (slice(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK))


def uniform_mask(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """``rng.random(size) < p``, drawn a block at a time: the same uniforms,
    without a full-length float64 array."""
    mask = np.empty(size, bool)
    u = np.empty(min(size, BLOCK))
    # blocked: a whole draw lifts passive_pns's peak (mu 10) from 154 to 188 B/round
    for block in blocks(size):
        np.less(rng.random(out=u[: block.stop - block.start]), p, out=mask[block])
    return mask


def canon(radians):
    """Canonicalize polarization angles (a number or an array) into [0, pi).

    A float64 array whose values all lie strictly inside (0, pi) is
    returned as it is, the same bits the reduction would give; drawn
    angles take this path. Zero, which may be -0.0, is left to the
    reduction, which maps it to +0.0.
    """
    if isinstance(radians, np.ndarray) and radians.dtype == np.float64 and radians.size:
        if radians.min() > 0.0 and radians.max() < PI:
            return radians
    r = np.remainder(radians, PI)
    # For tiny negative inputs the remainder rounds up to exactly pi.
    return np.where(r == PI, 0.0, r)


class Origin(enum.IntEnum):
    """Diagnostic provenance code of a photon (the values of `Pulse.origin`):
    Alice's own photon, or one that Eve put on the channel (a probe or a
    substitute). The analyzing detector notices Eve by this distinction.

    Bookkeeping only: it must never influence a measurement probability or
    a routing decision made by Alice or Bob.
    """

    LEGITIMATE = 0
    EVE = 1


def _read_only(table: np.ndarray) -> np.ndarray:
    """`table`, or a read-only view of it when it is writeable."""
    if table.flags.writeable:
        table = table.view()
        table.setflags(write=False)
    return table


# Not slotted: a frozen slotted dataclass answers an assignment to the
# `photons` property with a TypeError instead of an AttributeError.
@dataclass(frozen=True, eq=False)
class Pulse:
    """One pulse per round for `rounds` rounds, as flat photon rows.

    Photon i belongs to round ``owner[i]`` (int32, so a batch holds at most
    `MAX_ROUNDS` rounds) and has the origin code ``origin[i]`` (int8, see
    :class:`Origin`). Photons are sorted by round, so each pulse is a
    contiguous run that keeps its order through every operation here. A
    round without photons is vacuum (or lost).

    The photons of one round and one origin are identical copies, so their
    polarization is stored once: ``angles`` holds, per `Origin` code, None
    or a read-only float64 array over the rounds (a raw angle, meaningful
    modulo pi: see the module docstring), and photon i is at
    ``angles[origin[i]][owner[i]]``. A table's entries for rounds without
    photons of its origin mean nothing. A batch holds a table exactly for
    the origins it has photons of: the constructor drops the others, so a
    table no photon needs is not kept alive. :meth:`merged` and
    :meth:`tagged` refuse input that would put two angles under one
    (round, origin). The constructor raises ValueError for a table whose
    length is not `rounds`; checking that each owner is a round would take
    a pass over the photons, so it leaves them unchecked.
    """

    owner: np.ndarray
    origin: np.ndarray
    angles: tuple[np.ndarray | None, np.ndarray | None]
    rounds: int

    def __post_init__(self) -> None:
        for table in self.angles:
            if table is not None and len(table) != self.rounds:
                raise ValueError(f"Pulse: {len(table)} table entries for {self.rounds} rounds")
        legitimate, eve = self.angles
        if self.is_empty:
            object.__setattr__(self, "angles", (None, None))
        elif legitimate is not None and eve is not None:
            injected = self.origin.view(bool)  # the codes are 0 and 1
            object.__setattr__(self, "angles", (
                None if injected.all() else legitimate, eve if injected.any() else None
            ))

    @classmethod
    def vacuum(cls, rounds: int) -> Pulse:
        return cls(np.empty(0, np.int32), np.empty(0, np.int8), (None, None), rounds)

    @property
    def count(self) -> int:
        """Photons in the batch."""
        return len(self.owner)

    @property
    def is_empty(self) -> bool:
        return not len(self.owner)

    @property
    def counts(self) -> np.ndarray:
        """Photon number of each round's pulse."""
        return np.bincount(self.owner, minlength=self.rounds)

    def round_blocks(self) -> Iterator[tuple[slice, slice]]:
        """(rounds, photons): each block of rounds of :func:`blocks` and the
        run of photons that belong to it."""
        for rounds in blocks(self.rounds):
            # int32 bounds: other keys would make searchsorted copy `owner`
            bounds = np.array((rounds.start, rounds.stop), np.int32)
            yield rounds, slice(*self.owner.searchsorted(bounds).tolist())

    @property
    def photons(self) -> np.ndarray:
        """Each photon's polarization, gathered from its origin's table."""
        if self.is_empty:
            return np.empty(0)
        return self.gather(slice(None), np.empty(self.count))

    def gather(self, photons: slice, out: np.ndarray, less=None) -> np.ndarray:
        """The polarizations of the photons in the slice `photons`, written
        into `out` (as long as the slice) and returned: what :func:`measure`
        reads a block at a time. With a per-round array `less`, each is
        less its round's entry: IEEE ``a - b`` is exactly ``a + (-b)``, so
        these are the polarizations of ``self.rotated(-less)``, without the
        table that rotation would build. Every owner is a round of the
        batch, and the tables and `less` have an entry per round, so "clip"
        clips nothing and spares the copy of `out` that "raise" makes."""
        owner = self.owner[photons]
        codes = self._codes()
        np.take(self.angles[codes[0]], owner, out=out, mode="clip")
        for code in codes[1:]:
            index = np.flatnonzero(self.origin[photons] == code)
            out[index] = self.angles[code][owner.take(index)]
        if less is not None:
            np.subtract(out, less.take(owner, mode="clip"), out=out)
        return out

    def _codes(self) -> list[int]:
        """The codes of the origins that have photons here: those of its tables."""
        return [code for code, table in enumerate(self.angles) if table is not None]

    def take(self, mask: np.ndarray) -> Pulse:
        """The photons selected by a mask, in order."""
        kept = int(np.count_nonzero(mask))
        owner, origin = np.empty(kept, np.int32), np.empty(kept, np.int8)
        start = 0
        # blocked: whole intp indices lift passive_pns's peak from 154 to 213 B/round
        for block in blocks(len(mask)):
            rows = np.flatnonzero(mask[block])
            out = slice(start, start + len(rows))
            start = out.stop
            # rows index the block, so "clip" clips nothing (see `gather`)
            np.take(self.owner[block], rows, out=owner[out], mode="clip")
            np.take(self.origin[block], rows, out=origin[out], mode="clip")
        return Pulse(owner, origin, self.angles, self.rounds)

    def split(self, mask: np.ndarray) -> tuple[Pulse, Pulse]:
        """(the photons selected by `mask`, the rest), both as :meth:`take`
        gives them."""
        return self.take(mask), self.take(np.logical_not(mask))

    def tagged(self, origin: Origin) -> Pulse:
        """The same photons, all with origin code `origin`; they must share
        one origin, so that each round keeps one angle."""
        codes = self._codes()
        if len(codes) > 1:
            raise ValueError(f"tagged: photons of several origins {codes}")
        angles = [None, None]
        if codes:
            angles[origin] = _read_only(self.angles[codes[0]])
        origins = np.full(self.count, origin, dtype=np.int8)
        return Pulse(self.owner, origins, tuple(angles), self.rounds)

    def merged(self, other: Pulse) -> Pulse:
        """Both batches' photons; within a round this batch's come first.

        Both are sorted by round, so the result is filled a block of rounds
        at a time, each block's photons stably sorted into place: no sort
        order or concatenated copy as long as the result is made. Where
        both hold a table for one origin, their photons of that origin must
        lie in disjoint rounds: the result's table is this batch's with the
        other's entries for its rounds scattered in."""
        count = self.count + other.count
        owner, origin = np.empty(count, np.int32), np.empty(count, np.int8)
        # blocked: a whole sort order lifts pns_trojan_lossy's peak from 61 to 72 B/round
        for (_, mine), (_, theirs) in zip(self.round_blocks(), other.round_blocks()):
            out = slice(mine.start + theirs.start, mine.stop + theirs.stop)
            block = np.concatenate((self.owner[mine], other.owner[theirs]))
            order = np.argsort(block, kind="stable")
            # order indexes the block, so "clip" clips nothing (see `gather`)
            np.take(block, order, out=owner[out], mode="clip")
            block = np.concatenate((self.origin[mine], other.origin[theirs]))
            np.take(block, order, out=origin[out], mode="clip")
        angles = tuple(self._merged_table(other, code) for code in Origin)
        return Pulse(owner, origin, angles, self.rounds)

    def _merged_table(self, other: Pulse, code: int) -> np.ndarray | None:
        mine, theirs = self.angles[code], other.angles[code]
        if mine is None or theirs is None:
            return theirs if mine is None else mine
        rounds = other.owner[other.origin == code]
        taken = np.zeros(self.rounds, bool)
        taken[self.owner[self.origin == code]] = True
        if taken[rounds].any():
            raise ValueError(
                f"merged: both batches hold photons of origin {code} in one round"
            )
        table = mine.copy()
        table[rounds] = theirs[rounds]
        return _read_only(table)

    def rotated(self, delta) -> Pulse:
        """Rotate round j's pulse by ``delta[j]``, or every photon by a number
        (made a 0-d array, which has no entry per round: never handed over).

        One add into each table, not reduced modulo pi (see the module
        docstring); every photon of a table has seen the same adds in the
        same order, so the sums are those of a per-photon add.

        An array `delta` is handed over: when it is a writeable float64
        array with one entry per round that shares no memory with a table,
        the last rotated table is summed into it in place (``delta +
        table`` is the IEEE sum ``table + delta``) and becomes that table.
        A caller that still needs its `delta` passes a copy. A session
        builds two such tables, in Bob's transform and Alice's encode; Bob's
        decode measures its batch less `phi` instead (see :meth:`gather`)."""
        delta = np.asarray(delta, dtype=np.float64)
        codes = self._codes()
        angles = [None, None]
        for code in codes:
            table = self.angles[code]
            out = None
            if (
                code == codes[-1] and delta.flags.writeable and delta.shape == table.shape
                and not any(np.may_share_memory(delta, self.angles[c]) for c in codes)
            ):
                out = delta
            angles[code] = _read_only(np.add(table, delta, out=out))
        return replace(self, angles=tuple(angles))


# Axis of the (+pi/4, -pi/4) analyzer used by Bob's detector pair and Alice's AD.
DIAGONAL = PI / 4


def born_probability(state: np.ndarray, axis) -> np.ndarray:
    """Probability of collapsing onto `axis` (outcome bit 0), for a float64
    array of polarizations and one axis or one per polarization."""
    p = np.subtract(state, axis)
    np.cos(p, out=p)
    return np.square(p, out=p)


def _largest(x) -> float:
    """max |x| over a number or a nonempty array (NaN if x holds NaN)."""
    if not np.ndim(x):
        return abs(x)
    return max(x.max(), -x.min())


def measure(pulse: Pulse, axis, rng: np.random.Generator, less=None) -> np.ndarray:
    """Projectively measure the photons of `pulse` on the analyzer with
    outcome axes `axis` and `axis + pi/2` (one axis for all, or one per
    photon); returns one int8 outcome bit per photon.

    The polarizations are gathered from the tables a block at a time, each
    less its round's entry of a per-round array `less` when one is given
    (Bob's decode: see :meth:`Pulse.gather`); a `less` whose length is not
    ``pulse.rounds`` raises ValueError. Bit 0 means collapse onto `axis`,
    bit 1 onto the orthogonal axis. `axis` counts modulo pi. Measured
    photons are consumed: callers must not measure them again.

    Photon i gives bit 1 iff ``u[i] >= born_probability(photons, axis)[i]``
    for one uniform draw ``u[i]`` each, drawn a block at a time (the
    uniforms of one whole draw). The Born probability is screened in
    float32, whose cosine is vectorised (numpy's float64 one is not
    everywhere), and only the photons whose `u` lies within `margin` of the
    float32 value are decided again in float64, so every bit equals the
    float64 rule's. Rounding the photons, the axes and their difference to
    float32 moves the angle by at most ``(|photons| + |axis|) * 2^-23``,
    and so p by as much, since |d cos^2(x) / dx| <= 1; the float32 cosine,
    square and ``u - p`` add a few units of 2^-24. `margin` is four times
    that, over the photons of one block. A margin of 1/4 or more (huge or
    NaN angles) screens nothing, so such a block takes the float64 rule
    whole.
    """
    if less is not None and len(less) != pulse.rounds:
        raise ValueError(f"measure: less has {len(less)} entries for {pulse.rounds} rounds")
    bits = np.empty(pulse.count, bool)
    u, angles = np.empty(min(pulse.count, BLOCK)), np.empty(min(pulse.count, BLOCK))
    # blocked: whole uniforms and angles lift honest's peak from 44 to 55 B/round
    for block in blocks(pulse.count):
        size = block.stop - block.start
        bits[block] = _decide(
            pulse.gather(block, angles[:size], less),
            axis[block] if np.ndim(axis) else axis,
            rng.random(out=u[:size]),
        )
    return bits.view(np.int8)


def _decide(photons: np.ndarray, axis, u: np.ndarray) -> np.ndarray:
    """``u >= born_probability(photons, axis)`` for a nonempty block,
    screened in float32 (see :func:`measure`)."""
    margin = (_largest(photons) + _largest(axis)) * 2.0**-21 + 2.0**-19
    if not margin < 0.25:
        return u >= born_probability(photons, axis)
    p = np.subtract(photons, axis, dtype=np.float32)
    np.cos(p, out=p)
    np.square(p, out=p)
    np.subtract(u, p, out=p, dtype=np.float32)
    bits = p >= 0.0
    close = np.flatnonzero(np.abs(p, out=p) < margin)
    if close.size:
        near = axis[close] if np.ndim(axis) else axis
        bits[close] = u[close] >= born_probability(photons[close], near)
    return bits


def make_pulse(
    polarization: np.ndarray, mean_photons: float, rng: np.random.Generator
) -> Pulse:
    """One pulse per entry of `polarization`, all of its photons at that
    angle, with a Poissonian photon number whose mean, `mean_photons`, is
    checked as `ProtocolParams` checks it (a real number, not a bool)."""
    check_real("mean_photons", mean_photons, 0, MAX_MEAN_PHOTONS)
    rounds = len(polarization)
    counts = rng.poisson(mean_photons, rounds)
    return _legitimate(polarization, np.repeat(np.arange(rounds, dtype=np.int32), counts))


def single_photon_pulse(polarization: np.ndarray) -> Pulse:
    """One single-photon pulse per entry of `polarization`."""
    return _legitimate(polarization, np.arange(len(polarization), dtype=np.int32))


def _legitimate(polarization: np.ndarray, owner: np.ndarray) -> Pulse:
    """Legitimate photons of the rounds `owner`, each round's at its entry
    of `polarization`, which is reduced once and becomes their table."""
    angles = (_read_only(canon(polarization)), None)  # Origin.LEGITIMATE's
    return Pulse(owner, np.zeros(len(owner), np.int8), angles, len(polarization))


def _split_trivially(pulse: Pulse, fraction: float, name: str):
    """Check the tap fraction `name` as `ProtocolParams` checks one (a real
    number in [0, 1], not a bool). False (True): no (every) photon is
    tapped, so nothing is drawn; None: each photon needs one uniform draw."""
    check_real(name, fraction, 0, 1)
    if fraction == 0.0 or pulse.is_empty:
        return False
    if fraction == 1.0:
        return True
    return None


def beam_split(
    pulse: Pulse, tap_fraction: float, rng: np.random.Generator
) -> tuple[Pulse, Pulse]:
    """Split every pulse on a beam splitter; returns (tapped, passed).

    Each photon independently moves to the tapped output with probability
    `tap_fraction`. Polarizations and origins are untouched and the two
    outputs partition the input.
    """
    trivial = _split_trivially(pulse, tap_fraction, "tap_fraction")
    if trivial is False:
        return Pulse.vacuum(pulse.rounds), pulse
    if trivial is True:
        return pulse, Pulse.vacuum(pulse.rounds)
    return pulse.split(uniform_mask(rng, pulse.count, tap_fraction))


def attenuated(pulse: Pulse, loss: float, rng: np.random.Generator) -> Pulse:
    """The photons that survive a loss of `loss`: ``beam_split(pulse, loss,
    rng)[1]`` from the same draw, without gathering the lost photons."""
    trivial = _split_trivially(pulse, loss, "loss")
    if trivial is False:
        return pulse
    if trivial is True:
        return Pulse.vacuum(pulse.rounds)
    kept = uniform_mask(rng, pulse.count, loss)
    return pulse.take(np.logical_not(kept, out=kept))  # u >= loss
