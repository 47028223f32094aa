"""Invariants checked on generated parameters rather than hand-picked ones.

An honest session is clean for any valid parameters, and a strategy that
never acts (``attack_probability = 0``) leaves the session bit-identical
to the honest one. Every report passes its own consistency check, its
totals do not depend on the order of the trials, and any JSON config
either loads or is rejected with a ``ConfigError``. The pulse kernels
(``take``, ``split``, ``merged``, ``tagged``, ``rotated``, ``attenuated``,
``leading`` and the adversary's split-off partition), ``canon``, the float32-screened
``measure``, Bob's decode and Alice's encode equal a plain reference on
generated input. The examples are derandomized, so every run checks the
same inputs.
"""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screenqkd import analysis, cli, protocol
from screenqkd.adversary import STRATEGIES, AttackConfig, build_interceptor
from screenqkd.analysis import ExperimentReport, TrialCounts, run_experiment
from screenqkd.errors import ConfigError
from screenqkd.photonics import (
    DIAGONAL,
    PI,
    Origin,
    Pulse,
    attenuated,
    born_probability,
    canon,
    measure,
    single_photon_pulse,
)
from screenqkd.protocol import (
    MODE_PULSE,
    MODE_SINGLE,
    ProtocolParams,
    Verdict,
    alice_encode,
    bob_decode,
    run_session,
)

STRATEGIES_BY_MODE = {
    MODE_SINGLE: ("impersonation", "standard_state", "simple_trojan", "passive_pns"),
    MODE_PULSE: (
        "pulse_beamsplit", "pns_trojan", "standard_state", "simple_trojan", "passive_pns",
    ),
}

GENERATED = settings(max_examples=100, derandomize=True, deadline=None, database=None)

unit = st.floats(min_value=0.0, max_value=1.0)
params = st.builds(
    ProtocolParams,
    n_screening=st.integers(1, 6),
    rounds=st.integers(1, 200),
    p_analyzing=unit,
    transmission=unit,
    loss=unit,
    mode=st.sampled_from((MODE_SINGLE, MODE_PULSE)),
    mean_photons=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(0, 2**64 - 1),
)


@GENERATED
@given(params=params)
def test_honest_session_is_clean(params):
    transcript = run_session(params)
    assert transcript.alice_key == transcript.bob_key
    assert transcript.ad_violations == 0
    assert transcript.verdict is Verdict.ACCEPTED


@GENERATED
@given(params=params)
def test_idle_strategies_reproduce_honest_session(params):
    honest = run_session(params)
    for strategy in STRATEGIES_BY_MODE[params.mode]:
        idle = build_interceptor(
            AttackConfig(strategy=strategy, attack_probability=0.0), params
        )
        attacked = run_session(params, idle)
        assert attacked.rounds == honest.rounds, strategy
        assert len(idle.produce_guesses()) == 0, strategy


@GENERATED
@given(params=params, p=unit, trials=st.integers(1, 3), data=st.data())
def test_every_report_validates(params, p, trials, data):
    strategy = data.draw(st.sampled_from(("none", *STRATEGIES_BY_MODE[params.mode])))
    attack = AttackConfig(strategy=strategy, attack_probability=p)
    report, _ = run_experiment(params, attack, trials)
    report.validate()


counters = st.builds(
    TrialCounts,
    **{name: st.integers(0, 10**6) for name in vars(TrialCounts()) if name != "verdict"},
    verdict=st.sampled_from([v.value for v in Verdict]),
)


@GENERATED
@given(per_trial=st.lists(counters, min_size=1, max_size=8), data=st.data())
def test_totals_do_not_depend_on_trial_order(per_trial, data):
    report = ExperimentReport(ProtocolParams(), per_trial, [])
    shuffled = ExperimentReport(
        ProtocolParams(), data.draw(st.permutations(per_trial)), []
    )
    assert shuffled.totals == report.totals
    assert shuffled.verdicts == report.verdicts


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and +-inf included
    | st.text(max_size=6)
)
json_values = (
    json_scalars
    | st.lists(json_scalars, max_size=4)
    | st.dictionaries(st.text(max_size=3), json_scalars, max_size=2)
)
# A plausible value per config key, so that fuzzed configs also reach the
# checks behind the first field's.
TYPICAL = {
    "n": st.integers(1, 6),
    "sweep_n": st.lists(st.integers(1, 6), unique=True).map(sorted),
    "rounds": st.integers(1, 200),
    "p_analyzing": unit,
    "transmission": unit,
    "mode": st.sampled_from((MODE_SINGLE, MODE_PULSE)),
    "mean_photons": st.floats(0.0, 4.0),
    "loss": unit,
    "trials": st.integers(1, 3),
    "seed": st.integers(),
    "attack": st.sampled_from(STRATEGIES),
    "eve_tap_fraction": unit,
    "trojan_angle": st.floats(-4.0, 4.0),
    "attack_probability": unit,
    "guess_weights": st.lists(st.floats(0.0, 2.0), max_size=6),
    "outdir": st.text(max_size=6),
    "emit_transcript": st.booleans(),
}
CONFIG_KEYS = {**cli.PARAM_KEYS, **cli.ATTACK_KEYS, **cli.RUN_KEYS}
config_docs = st.fixed_dictionaries(
    {},
    optional={
        # mostly plausible, so that the other keys' checks are reached too
        # (`|` would flatten json_values' branches and dilute TYPICAL)
        key: st.sampled_from((TYPICAL[key],) * 3 + (json_values,)).flatmap(lambda s: s)
        for key in CONFIG_KEYS
    },
)


def _forbidden(*args, **kwargs):
    raise AssertionError("load_config must not run a session or compute angles")


@settings(GENERATED, max_examples=300)
@given(doc=config_docs)
def test_any_json_config_loads_or_raises_config_error(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(doc))
    args = cli.build_parser().parse_args(["--config", str(path)])
    with mock.patch.object(protocol, "screening_angles", _forbidden), \
            mock.patch.object(analysis, "run_session", _forbidden):
        try:
            config = cli.load_config(args)
        except ConfigError:
            return
    assert isinstance(config, cli.ExperimentConfig)


@st.composite
def pulses(draw, rounds: int, taken=frozenset()) -> Pulse:
    """A batch over `rounds` rounds with 0-3 photons each, so vacuum rounds
    and photon-free batches occur; owners come out sorted. One angle is
    drawn per (origin, round), which all photons of that pair share; a
    (round, origin) pair in `taken` gets no photon, and an origin without
    photons may still carry a table. Its arrays are read-only, so a kernel
    that writes into its input raises."""
    counts = draw(st.lists(st.integers(0, 3), min_size=rounds, max_size=rounds))
    owner = [j for j, c in enumerate(counts) for _ in range(c)]
    n = len(owner)
    origin = draw(st.lists(st.sampled_from(list(Origin)), min_size=n, max_size=n))
    kept = [(j, int(o)) for j, o in zip(owner, origin) if (j, o) not in taken]
    present = {o for _, o in kept}
    angles = []
    for code in Origin:
        table = draw(st.lists(st.floats(-10.0, 10.0), min_size=rounds, max_size=rounds))
        spare = draw(st.booleans())
        used = code in present or spare
        angles.append(_read_only(np.array(table, float)) if used else None)
    return Pulse(
        _read_only(np.array([j for j, _ in kept], np.int32)),
        _read_only(np.array([o for _, o in kept], np.int8)), tuple(angles), rounds,
    )


def _cells(pulse: Pulse) -> frozenset:
    """The (round, origin) pairs that hold photons."""
    return frozenset(zip(pulse.owner.tolist(), pulse.origin.tolist()))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _rows(pulse: Pulse) -> list[tuple]:
    """The batch as (polarization, origin, round) per photon, in order."""
    return list(zip(pulse.photons.tolist(), pulse.origin.tolist(), pulse.owner.tolist()))


@GENERATED
@given(data=st.data(), rounds=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pulse_kernels_match_reference(data, rounds, seed):
    pulse = data.draw(pulses(rounds))
    # Either a batch clear of the first one's (round, origin) pairs, which
    # `merged` accepts, or one drawn freely, which it refuses on a clash.
    clash = data.draw(st.booleans())
    other = data.draw(pulses(rounds, taken=frozenset() if clash else _cells(pulse)))
    rows = _rows(pulse)
    mask = _read_only(np.array(
        data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))), bool
    ))

    # Each kernel returns int32 owners; the read-only inputs show it
    # writes into none of them.
    def checked(out: Pulse) -> list[tuple]:
        assert out.owner.dtype == np.int32
        return _rows(out)

    kept = [r for r, m in zip(rows, mask) if m]
    rest = [r for r, m in zip(rows, mask) if not m]
    assert checked(pulse.take(mask)) == kept
    assert checked(pulse.take(_read_only(np.flatnonzero(mask)))) == kept
    assert [checked(half) for half in pulse.split(mask)] == [kept, rest]

    other_rows = _rows(other)
    if _cells(pulse) & _cells(other):
        with pytest.raises(ValueError):
            pulse.merged(other)
    else:
        assert checked(pulse.merged(other)) == [
            r
            for j in range(rounds)
            for r in [r for r in rows if r[2] == j] + [r for r in other_rows if r[2] == j]
        ]

    code = data.draw(st.sampled_from(list(Origin)))
    if len({o for _, o, _ in rows}) > 1:
        with pytest.raises(ValueError):
            pulse.tagged(code)
    else:
        assert checked(pulse.tagged(code)) == [(p, code, j) for p, _, j in rows]

    delta = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=rounds, max_size=rounds))
    assert checked(pulse.rotated(_read_only(np.array(delta)))) == [
        (p + delta[j], o, j) for p, o, j in rows
    ]
    assert checked(pulse.rotated(delta[0])) == [(p + delta[0], o, j) for p, o, j in rows]

    # the same draw: one uniform per photon, kept where it is >= the loss
    loss = data.draw(st.floats(0.0, 1.0))
    if loss in (0.0, 1.0):  # nothing to draw
        survivors = rows if loss == 0.0 else []
    else:
        uniforms = np.random.default_rng(seed).random(len(rows))
        survivors = [r for r, u in zip(rows, uniforms) if u >= loss]
    assert checked(attenuated(pulse, loss, np.random.default_rng(seed))) == survivors

    owners = [r[2] for r in rows]
    leading = [i == 0 or owners[i] != owners[i - 1] for i in range(len(owners))]
    assert pulse.leading().tolist() == leading

    counts = Counter(owners)
    active = data.draw(st.lists(st.booleans(), min_size=rounds, max_size=rounds))
    attack = build_interceptor(
        AttackConfig(strategy="pns_trojan"), ProtocolParams(mode=MODE_PULSE)
    )
    attack._active = _read_only(np.array(active, bool))
    split_off = [
        leading[i] and active[owners[i]] and counts[owners[i]] >= 2
        for i in range(len(owners))
    ]
    assert [checked(half) for half in attack._split_off(pulse)] == [
        [r for r, s in zip(rows, split_off) if s],
        [r for r, s in zip(rows, split_off) if not s],
    ]


# Angles at the edges of canon's fast path, and far outside [0, pi).
EDGE_ANGLES = (0.0, -0.0, -5e-324, 5e-324, np.nextafter(PI, 0.0), PI, 1e20, -1e20)


@st.composite
def angle_batches(draw) -> list[float]:
    """Mostly in-range angles, with up to two edge or far-out values mixed in."""
    inside = draw(st.lists(st.floats(0.0, PI, exclude_max=True), max_size=6))
    edges = draw(st.lists(st.sampled_from(EDGE_ANGLES) | st.floats(-1e3, 1e3), max_size=2))
    return draw(st.permutations(inside + edges))


@GENERATED
@example(values=[])
@example(values=[-0.0])
@example(values=[1.0, -0.0, np.nextafter(PI, 0.0)])
@example(values=[5e-324, 0.0])
@given(values=angle_batches())
def test_canon_is_bitwise_remainder(values):
    radians = np.array(values, dtype=float)
    reference = np.remainder(radians, PI)
    reference = np.where(reference == PI, 0.0, reference)
    reduced = canon(radians)
    assert reduced.dtype == np.float64 and reduced.shape == radians.shape
    # the bit patterns, so a -0.0 that leaks through differs from +0.0
    assert reduced.view(np.uint64).tolist() == reference.view(np.uint64).tolist()


class _Uniforms:
    """A generator stand-in whose ``random`` returns chosen uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, shape) -> np.ndarray:
        assert shape == self.u.shape
        return self.u.copy()


screen_angles = st.one_of(
    st.sampled_from((0.0, -0.0, PI / 4, PI / 2, 3 * PI / 4)),
    st.floats(-4 * PI, 4 * PI),
)


@GENERATED
@given(data=st.data(), size=st.integers(0, 40), per_photon=st.booleans(),
       huge=st.sampled_from((None, 1e6, -1e6)), seed=st.integers(0, 2**32 - 1))
def test_measure_decides_like_the_float64_born_rule(data, size, per_photon, huge, seed):
    photons = np.array(data.draw(st.lists(screen_angles, min_size=size, max_size=size)))
    if huge is not None and size:
        photons[data.draw(st.integers(0, size - 1))] = huge  # the float64 path
    if per_photon:
        axis = np.array(data.draw(st.lists(screen_angles, min_size=size, max_size=size)))
    else:
        axis = data.draw(screen_angles)
    p64 = born_probability(photons, axis)
    # u on the float64 probability, one step either side of it, at the ends
    # of [0, 1) or uniform: the first three are where a screen could err
    choices = np.stack((
        p64, np.nextafter(p64, 0.0), np.nextafter(p64, 1.0),
        np.zeros(size), np.full(size, 1 - 2.0**-53),
        np.random.default_rng(seed).random(size),
    ))
    pick = data.draw(st.lists(st.integers(0, len(choices) - 1), min_size=size, max_size=size))
    u = np.minimum(choices[pick, np.arange(size)], 1 - 2.0**-53)
    bits = measure(photons, axis, _Uniforms(u))
    assert bits.dtype == np.int8
    assert bits.tolist() == (u >= p64).astype(np.int8).tolist()


@GENERATED
@given(data=st.data(), rounds=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_bob_decode_matches_per_round_reference(data, rounds, seed):
    pulse = data.draw(pulses(rounds))
    phi = np.array(data.draw(st.lists(st.floats(0.0, PI), min_size=rounds,
                                      max_size=rounds)))
    outcome, received = bob_decode(pulse, phi, np.random.default_rng(seed))
    # the same draws: one uniform per photon, at the photon's angle minus phi
    bits = measure(
        pulse.photons - phi[pulse.owner], DIAGONAL, np.random.default_rng(seed)
    ).tolist()
    owners = pulse.owner.tolist()
    per_round = [[b for b, o in zip(bits, owners) if o == j] for j in range(rounds)]
    assert received.tolist() == [len(b) for b in per_round]
    # one outcome when every photon agrees; none for vacuum or a double click
    assert outcome.tolist() == [b[0] if len(set(b)) == 1 else -1 for b in per_round]


@GENERATED
@given(data=st.data(), n=st.integers(1, 4), size=st.integers(0, 5))
def test_alice_encode_rejects_exactly_invalid_input(data, n, size):
    k = data.draw(st.lists(st.sampled_from((0, 1, 0.5, 2)), min_size=size, max_size=size))
    a_index = data.draw(st.lists(st.integers(0, n + 1), min_size=size, max_size=size))
    theta = np.array(data.draw(st.lists(st.floats(0.0, PI, exclude_max=True),
                                        min_size=size, max_size=size)))
    params = ProtocolParams(n_screening=n, transmission=1.0)
    bad_k = any(b not in (0, 1) for b in k)
    invalid = bad_k or any(not 1 <= a <= n for a in a_index)
    # valid key bits as the engine's int8 and as every other dtype a caller may pass
    dtype = None if bad_k else data.draw(st.sampled_from((None, np.int8, np.uint8, bool)))
    k, a_index = np.array(k, dtype=dtype), np.array(a_index, dtype=np.intp)
    pulse = single_photon_pulse(theta)
    try:
        to_bob, ad_bits, _, _ = alice_encode(
            pulse, theta, k, a_index, params, np.random.default_rng(0)
        )
    except ConfigError:
        assert invalid
        return
    assert not invalid
    # no tap at t = 1; each photon turns by the documented sum, bit for bit
    delta = -theta + (1 - 2 * k.astype(float)) * PI / 4 + params.angles[a_index - 1]
    assert len(ad_bits) == 0
    assert to_bob.photons.tolist() == (pulse.photons + delta).tolist()
