"""Simulator for a three-pass polarization QKD protocol with screening
angles and an analyzing detector, plus the eavesdropping strategies it is
designed to expose."""

from .adversary import AttackConfig, build_interceptor
from .analysis import (
    ExperimentReport,
    SessionSummary,
    emit_report,
    ie_sum,
    run_experiment,
    run_trial,
    security_curve,
)
from .channel import Guesses, Interceptor, Leg, transmit
from .errors import ConfigError
from .photonics import (
    DIAGONAL,
    Origin,
    Pulse,
    beam_split,
    born_probability,
    canon,
    make_pulse,
    measure,
    single_photon_pulse,
)
from .protocol import (
    Announcement,
    ProtocolParams,
    Rounds,
    SessionTranscript,
    Verdict,
    alice_encode,
    alice_prepare,
    bob_decode,
    bob_transform,
    expected_ad_bit,
    run_session,
    screening_angles,
    sift_and_verify,
)

__version__ = "0.1.0"
