"""Invariants checked on generated parameters rather than hand-picked ones.

An honest session is clean for any valid parameters, and a strategy that
never acts (``attack_probability = 0``) leaves the session bit-identical
to the honest one. The examples are derandomized, so every run checks the
same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from screenqkd.adversary import AttackConfig, build_interceptor
from screenqkd.protocol import MODE_PULSE, MODE_SINGLE, ProtocolParams, Verdict, run_session

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
    mode=st.sampled_from((MODE_SINGLE, MODE_PULSE)),
    mean_photons=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(0, 2**64 - 1),
)


@GENERATED
@given(params=params, loss=unit)
def test_honest_session_is_clean(params, loss):
    transcript = run_session(params, channel_loss=loss)
    assert transcript.alice_key == transcript.bob_key
    assert transcript.ad_violations == 0
    assert transcript.verdict is Verdict.ACCEPTED


@GENERATED
@given(params=params, loss=unit)
def test_idle_strategies_reproduce_honest_session(params, loss):
    honest = run_session(params, channel_loss=loss)
    for strategy in STRATEGIES_BY_MODE[params.mode]:
        idle = build_interceptor(
            AttackConfig(strategy=strategy, attack_probability=0.0), params
        )
        attacked = run_session(params, idle, channel_loss=loss)
        assert attacked.rounds == honest.rounds, strategy
        assert idle.produce_guesses() == {}, strategy
