"""Span recording for the traced benchmark run.

The simulator is traced from the outside: :func:`install` rebinds the
module attributes and class methods through which each layer is called,
so the package under ``src/`` carries no tracing code. Every wrapped call
is a span on one stack; when a span closes, its duration minus the time
covered by the spans it caused is added to its self time. Self times of
all spans under one root therefore add up to the root's duration, with no
nested interval counted twice.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

ROOT = "cli.main"


class Tracer:
    """In-memory span stack with per-name self time, inclusive time and calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # One entry per open span: the time its closed children covered.
        self._children: list[float] = []

    def enter(self) -> float:
        self._children.append(0.0)
        return self.clock()

    def exit(self, name: str, start: float) -> None:
        duration = self.clock() - start
        covered = self._children.pop()
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._children:
            self._children[-1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name, start)

        return traced


def _wrap_interceptor(tracer: Tracer, interceptor) -> None:
    """Shadow one strategy instance's hooks with traced versions."""
    from screenqkd.channel import Leg

    intercept = interceptor.intercept
    names = {leg: f"adversary.intercept.leg{leg.value}" for leg in Leg}

    def traced_intercept(leg, pulse, round_id, rng):
        name = names[leg]
        start = tracer.enter()
        try:
            return intercept(leg, pulse, round_id, rng)
        finally:
            tracer.exit(name, start)

    produce_guesses = interceptor.produce_guesses

    def traced_produce_guesses():
        guesses = tracer.wrap("adversary.produce_guesses", produce_guesses)()
        tracer.counts["adversary.guesses"] += len(guesses)
        return guesses

    interceptor.intercept = traced_intercept
    interceptor.produce_guesses = traced_produce_guesses


def install(tracer: Tracer) -> None:
    """Rebind every layer entry point the benchmark traces.

    Each name is rebound in the namespace its caller looks it up in, so
    a function imported by name into another module is rebound there.
    """
    from screenqkd import adversary, analysis, cli, protocol
    from screenqkd.channel import Leg
    from screenqkd.photonics import Pulse

    wrap = tracer.wrap

    cli.run_experiment = wrap("analysis.run_experiment", cli.run_experiment)
    cli.emit_report = wrap("analysis.emit_report", cli.emit_report)
    analysis.run_trial = wrap("analysis.run_trial", analysis.run_trial)
    analysis.run_session = wrap("protocol.run_session", analysis.run_session)
    analysis.score_trial = wrap("analysis.score_trial", analysis.score_trial)

    build_interceptor = wrap("adversary.build_interceptor", analysis.build_interceptor)

    def traced_build_interceptor(config, params):
        interceptor = build_interceptor(config, params)
        if interceptor is not None:
            _wrap_interceptor(tracer, interceptor)
        return interceptor

    analysis.build_interceptor = traced_build_interceptor

    for name in ("alice_prepare", "bob_transform", "alice_encode", "bob_decode"):
        setattr(protocol, name, wrap(f"protocol.{name}", getattr(protocol, name)))

    sift_and_verify = wrap("protocol.sift_and_verify", protocol.sift_and_verify)

    def traced_sift_and_verify(params, rounds, announcement):
        transcript = sift_and_verify(params, rounds, announcement)
        tracer.counts["protocol.key_bits"] += len(transcript.alice_key)
        tracer.counts["protocol.ad_checked"] += transcript.ad_checked
        return transcript

    protocol.sift_and_verify = traced_sift_and_verify

    transmit = protocol.transmit
    leg_names = {
        leg: tuple(
            f"channel.{part}.leg{leg.value}"
            for part in ("transmit", "photons_in", "photons_out")
        )
        for leg in Leg
    }

    def traced_transmit(pulse, leg, *args, **kwargs):
        names = leg_names[leg]
        tracer.counts[names[1]] += len(pulse.photons)
        start = tracer.enter()
        try:
            out = transmit(pulse, leg, *args, **kwargs)
        finally:
            tracer.exit(names[0], start)
        tracer.counts[names[2]] += len(out.photons)
        return out

    protocol.transmit = traced_transmit

    measure = wrap("photonics.measure", protocol.measure)
    protocol.measure = measure
    adversary.measure = measure
    protocol.beam_split = wrap("photonics.beam_split", protocol.beam_split)
    # The source layer: Poissonian pulses in pulse mode, single photons otherwise.
    protocol.make_pulse = wrap("photonics.make_pulse", protocol.make_pulse)
    protocol.single_photon_pulse = wrap("photonics.make_pulse", protocol.single_photon_pulse)
    Pulse.rotated = wrap("photonics.rotated", Pulse.rotated)

    analysis.SessionSummary.from_transcript = classmethod(
        wrap("analysis.session_summary", analysis.SessionSummary.from_transcript.__func__)
    )
    analysis.ExperimentReport.to_dict = wrap(
        "analysis.to_dict", analysis.ExperimentReport.to_dict
    )
