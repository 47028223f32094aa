"""Experiment harness: run trials, aggregate metrics, emit reports.

Aggregation is a pure fold over per-trial counters, so the result is
independent of trial completion order. Reports are fully deterministic:
identical (config, seed) produce byte-identical output files, which is
why they carry no timestamps.

``report.json`` describes the experiment. Each session's per-round and
per-bit data (the public announcement and the sifted keys) goes to its
own binary audit file beside it, ``audit_N{n}_{trial:03d}.npz``; the
report names each file with its byte length and SHA-256, so the report's
bytes pin every audit byte. On request each session's transcript, its
`Rounds` columns, goes to ``transcript_{trial:03d}.npz``; the report does
not describe transcripts.

Two AD violation rates are reported. ``ad_violation_rate`` is the
statistic the parties themselves can compute: violating outcomes over all
AD outcomes on matched analyzing rounds. ``ad_violation_rate_injected``
restricts the denominator to outcomes caused by adversary-injected
photons (known from the diagnostic origin tags); it is the quantity the
closed-form per-probe predictions refer to, undiluted by the legitimate
photons that satisfy the integrity condition deterministically.

Similarly, ``eve_accuracy`` scores every guess Eve emits against the true
key bit of that round, while ``eve_key_accuracy`` restricts scoring to
rounds that actually contributed key bits; the latter is the measure of
information leaked about the key.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import re
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .adversary import AttackConfig, build_interceptor
from .channel import Guesses
from .errors import ConfigError, check_int
from .photonics import PI, Origin
from .protocol import (
    ProtocolParams,
    SessionTranscript,
    Verdict,
    pack_key_bits,
    run_session,
    screening_angles,
)

SCHEMA_VERSION = "7"

# The names of the files a run writes only sometimes: a sweep's curve, the
# audits, the transcripts and the line-delimited transcripts that earlier
# versions wrote. A run removes those of them it does not write.
STALE_FILE = re.compile(r"curve\.csv|audit_N\d+_\d{3,}\.npz|transcript_\d{3,}\.(npz|jsonl)")

# The rates of a report's "metrics" block, in its order: each is
# part/whole of two TrialCounts counters, or None when the whole is 0.
RATES = {
    "sift_rate": ("matched", "rounds"),
    "qber": ("qber_errors", "sifted_bits"),
    "ad_violation_rate": ("ad_violations", "ad_clicks"),
    "ad_violation_rate_injected": ("ad_injected_violations", "ad_injected_clicks"),
    "eve_accuracy": ("eve_correct", "eve_guesses"),
    "eve_key_accuracy": ("eve_key_correct", "eve_key_guesses"),
    "eve_accuracy_analyzing": ("eve_analyzing_correct", "eve_analyzing_guesses"),
    "eve_accuracy_non_analyzing": ("eve_non_analyzing_correct", "eve_non_analyzing_guesses"),
    "conclusive_rate": ("beamsplit_conclusive", "beamsplit_reported"),
}

# (part, whole): TrialCounts counters where every counted event of the part
# is also one of the whole. Every rate is such a pair.
PART_OF = (
    ("sifted_bits", "matched"),
    ("ad_injected_clicks", "ad_clicks"),
    ("ad_injected_violations", "ad_violations"),
    ("eve_key_guesses", "eve_guesses"),
    ("eve_key_correct", "eve_correct"),
    ("eve_analyzing_guesses", "eve_guesses"),
    ("eve_analyzing_correct", "eve_correct"),
    *RATES.values(),
)


def ie_sum(n: int) -> float:
    """Lower-bound impersonation error sum over the screening set.

    Sum of sin^2(alpha_i - pi/2) for i = 1..N; equals N/2 identically
    because paired screening angles sum to pi/2.
    """
    return math.fsum(np.sin(screening_angles(n) - PI / 2) ** 2)


@dataclass
class TrialCounts:
    """Order-independent integer counters extracted from one session
    transcript.

    The two ``eve_non_analyzing_*`` counters are derived from the fields,
    so ``asdict`` leaves them out of the report.
    """

    rounds: int = 0
    matched: int = 0
    sifted_bits: int = 0
    qber_errors: int = 0
    ad_clicks: int = 0
    ad_violations: int = 0
    ad_injected_clicks: int = 0
    ad_injected_violations: int = 0
    eve_guesses: int = 0
    eve_correct: int = 0
    eve_key_guesses: int = 0
    eve_key_correct: int = 0
    eve_analyzing_guesses: int = 0
    eve_analyzing_correct: int = 0
    beamsplit_reported: int = 0
    beamsplit_conclusive: int = 0

    @property
    def eve_non_analyzing_guesses(self) -> int:
        return self.eve_guesses - self.eve_analyzing_guesses

    @property
    def eve_non_analyzing_correct(self) -> int:
        return self.eve_correct - self.eve_analyzing_correct


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def rates(counts: TrialCounts) -> dict[str, Optional[float]]:
    """Each rate of `RATES` over `counts`, in its order."""
    return {
        name: _ratio(getattr(counts, part), getattr(counts, whole))
        for name, (part, whole) in RATES.items()
    }


def _packed(bits) -> np.ndarray:
    return np.frombuffer(pack_key_bits(bits), np.uint8)


def npz_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """`arrays` as the bytes of an uncompressed ``.npz``, each under its key."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


@dataclass(frozen=True, eq=False)
class SessionSummary:
    """One session's record: its counters, its verdict, its key digests,
    ``audit_arrays``, the arrays of its audit file, and ``transcript``,
    kept only on request.

    The audit file is an uncompressed ``.npz`` of six arrays.
    ``a_indices`` and ``b_indices`` hold one screening index per round in
    the engine's index dtype. ``analyzing_flags``, ``phi_star_flags``,
    ``alice_key`` and ``bob_key`` are bit strings packed MSB-first into
    uint8, the tail zero-padded; ``phi_star_flags`` has a set bit where
    the round was analyzing and phi* = pi/2. Its bytes, ``audit``, are
    built the first time a report hashes or writes them.
    """

    counts: TrialCounts
    verdict: str
    alice_hash: str
    bob_hash: str
    audit_arrays: Mapping[str, np.ndarray]
    transcript: Optional[SessionTranscript] = None

    @functools.cached_property
    def audit(self) -> bytes:
        """The bytes of the audit file."""
        return npz_bytes(self.audit_arrays)

    @classmethod
    def from_transcript(
        cls, transcript: SessionTranscript, counts: TrialCounts
    ) -> "SessionSummary":
        ann = transcript.announcement
        return cls(
            counts=counts,
            verdict=transcript.verdict.value,
            alice_hash=transcript.alice_hash.hex(),
            bob_hash=transcript.bob_hash.hex(),
            audit_arrays={
                "a_indices": ann.a_indices,
                "b_indices": ann.b_indices,
                "analyzing_flags": _packed(ann.analyzing_flags),
                "phi_star_flags": _packed(ann.phi_star_flags),
                "alice_key": _packed(transcript.alice_key),
                "bob_key": _packed(transcript.bob_key),
            },
        )


def score_trial(transcript: SessionTranscript, guesses: Guesses) -> TrialCounts:
    """Reduce one transcript plus Eve's guesses to aggregate counters.

    The matched, sifted and AD integrity masks come from sifting; the rest
    is what the parties cannot see: injected-photon AD outcomes and Eve's
    guess scores. A beam-split guess exists exactly on a conclusive readout.
    """
    rounds = transcript.rounds
    injected = rounds.ad_origin == Origin.EVE
    correct = guesses.bits == rounds.k[guesses.rounds]
    analyzing = rounds.is_analyzing[guesses.rounds]
    on_key = transcript.sifted[guesses.rounds]
    key_errors = np.frombuffer(transcript.alice_key, np.uint8) != np.frombuffer(
        transcript.bob_key, np.uint8
    )
    return TrialCounts(
        rounds=len(rounds),
        matched=_count(transcript.matched),
        sifted_bits=len(transcript.alice_key),
        qber_errors=_count(key_errors),
        ad_clicks=transcript.ad_checked,
        ad_violations=transcript.ad_violations,
        ad_injected_clicks=_count(transcript.ad_checked_mask & injected),
        ad_injected_violations=_count(transcript.ad_violation_mask & injected),
        eve_guesses=len(guesses),
        eve_correct=_count(correct),
        eve_key_guesses=_count(on_key),
        eve_key_correct=_count(correct & on_key),
        eve_analyzing_guesses=_count(analyzing),
        eve_analyzing_correct=_count(correct & analyzing),
        beamsplit_reported=guesses.reported,
        beamsplit_conclusive=len(guesses) if guesses.reported else 0,
    )


@dataclass
class ExperimentReport:
    """Aggregated result of one session per trial at one parameter point.

    Holds only what it cannot derive; the totals, the verdict histogram
    and the theory block follow from `params` and `sessions`.
    """

    params: ProtocolParams
    sessions: list[SessionSummary]

    @property
    def audits(self) -> dict[str, bytes]:
        """Each session's audit file name, in trial order, and its bytes,
        built on first use and then kept by the session."""
        n = self.params.n_screening
        return {
            f"audit_N{n}_{trial:03d}.npz": s.audit for trial, s in enumerate(self.sessions)
        }

    @functools.cached_property
    def totals(self) -> TrialCounts:
        """Field-wise sum of the sessions' counters, folded once."""
        return TrialCounts(**{
            f.name: sum(getattr(s.counts, f.name) for s in self.sessions)
            for f in fields(TrialCounts)
        })

    @property
    def verdicts(self) -> dict[str, int]:
        return {v.value: sum(s.verdict == v.value for s in self.sessions) for v in Verdict}

    @property
    def metrics(self) -> dict[str, Optional[float]]:
        """The rates of `RATES` over the totals."""
        return rates(self.totals)

    def validate(self) -> None:
        """Check every part <= whole count of `PART_OF`, which bounds every
        rate to [0, 1]."""
        t = self.totals
        for part, whole in PART_OF:
            num, den = getattr(t, part), getattr(t, whole)
            if not 0 <= num <= den:
                raise ValueError(
                    f"inconsistent counts: 0 <= {part} <= {whole} fails for {num}, {den}"
                )

    def to_dict(self, config: dict) -> dict:
        """The report document; `config` is the echo of the run's settings."""
        n = self.params.n_screening
        ie_total = ie_sum(n)
        return {
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "seed": self.params.seed,
            "trials": len(self.sessions),
            "rounds_per_trial": self.params.rounds,
            "totals": asdict(self.totals),
            "sessions": [
                {**asdict(s.counts), "verdict": s.verdict, "alice_hash": s.alice_hash,
                 "bob_hash": s.bob_hash, "audit": {
                    "file": name,
                    "bytes": len(s.audit),
                    "sha256": hashlib.sha256(s.audit).hexdigest(),
                }}
                for name, s in zip(self.audits, self.sessions)
            ],
            "verdicts": self.verdicts,
            "theory": {
                "matching_prob": 1.0 / n, "ie_sum": ie_total, "ie_mean": ie_total / n
            },
            "metrics": self.metrics,
        }


def run_trial(
    params: ProtocolParams,
    attack: AttackConfig,
    trial: int,
    keep_transcript: bool = False,
) -> SessionSummary:
    """Run one session and reduce it to its record."""
    interceptor = build_interceptor(attack, params)
    transcript = run_session(params, interceptor, trial=trial)
    counts = score_trial(transcript, interceptor.produce_guesses())
    summary = SessionSummary.from_transcript(transcript, counts)
    return replace(summary, transcript=transcript) if keep_transcript else summary


def run_experiment(
    params: ProtocolParams,
    attack: AttackConfig,
    trials: int = 1,
    keep_transcripts: bool = False,
) -> ExperimentReport:
    """Run `trials` independent sessions and aggregate them into a report."""
    check_int("trials", trials, 1)
    report = ExperimentReport(
        params, [run_trial(params, attack, trial, keep_transcripts) for trial in range(trials)]
    )
    report.validate()
    return report


def security_curve(
    base_params: ProtocolParams,
    attack: AttackConfig,
    n_values: Sequence[int],
    trials: int = 1,
) -> dict[int, ExperimentReport]:
    """Run the experiment for each screening-set size N; the report for
    each N, in order. Every N's parameters and strategy are built first,
    then the list is checked to be nonempty and strictly increasing, so an
    invalid point or list raises ConfigError before any session runs."""
    for n in n_values:
        build_interceptor(attack, replace(base_params, n_screening=n))
    if not n_values or sorted(set(n_values)) != list(n_values):
        raise ConfigError(f"n_values must be nonempty and strictly increasing, got {n_values}")
    reports: dict[int, ExperimentReport] = {}
    for n in n_values:
        reports[n] = run_experiment(replace(base_params, n_screening=n), attack, trials)
    return reports


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def flat_rows(report: ExperimentReport, attack: str) -> list[dict]:
    """One ``trials.csv`` row per trial: its point, its counters and
    verdict, and the rates of `RATES` over that trial alone; the keys, in
    order, are the table's columns."""
    p = report.params
    return [
        {"trial": i, "N": p.n_screening, "mode": p.mode, "attack": attack,
         **asdict(s.counts), "verdict": s.verdict, **rates(s.counts)}
        for i, s in enumerate(report.sessions)
    ]


def report_json(doc: dict) -> Iterator[bytes]:
    """`doc` as ``report.json``: indented JSON under sorted keys, one newline."""
    yield (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def csv_table(rows: Sequence[dict]) -> Iterator[bytes]:
    """`rows` as CSV under a header of the first row's keys; an absent
    value (None) is an empty cell. No rows make an empty file."""
    if not rows:
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = list(rows[0])
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in columns])
    yield buffer.getvalue().encode()


def transcript_npz(transcript: SessionTranscript) -> Iterator[bytes]:
    """A session's `Rounds` columns as an uncompressed ``.npz``, each under
    its field name and in its engine dtype."""
    rounds = transcript.rounds
    yield npz_bytes({f.name: getattr(rounds, f.name) for f in fields(rounds)})


def output_files(
    config: dict, reports: Mapping[int, ExperimentReport]
) -> dict[str, Iterable[bytes]]:
    """Each file of a run for `emit_report`, in writing order: ``report.json``,
    the audits, ``trials.csv``, then a sweep's ``curve.csv`` or a single
    point's kept transcripts. `reports` maps each N to its report, and
    `config` is the run's echo: its ``"attack"`` names the strategy, a
    ``"sweep_n"`` other than None makes the run a sweep, and each sweep
    point overrides its ``"n"``."""
    if config["sweep_n"] is not None:
        doc = {"schema_version": SCHEMA_VERSION, "config": config, "sweep": {
            str(n): r.to_dict({**config, "n": n}) for n, r in reports.items()
        }}
        tail = {"curve.csv": csv_table([{"N": n, **r.metrics} for n, r in reports.items()])}
    else:
        (report,) = reports.values()
        doc = report.to_dict(config)
        tail = {f"transcript_{i:03d}.npz": transcript_npz(s.transcript)
                for i, s in enumerate(report.sessions) if s.transcript is not None}
    return {
        "report.json": report_json(doc),
        **{name: [audit] for r in reports.values() for name, audit in r.audits.items()},
        "trials.csv": csv_table(
            [x for r in reports.values() for x in flat_rows(r, config["attack"])]
        ),
        **tail,
    }


def emit_report(outdir: Path, files: Mapping[str, Iterable[bytes]]) -> None:
    """Write each file of `files` (name -> its bytes, in chunks) under
    `outdir`, in order; the one writer of a run's output files.

    The chunks may come from a generator (`report_json`, `csv_table`,
    `transcript_npz`), which is then formatted as it is written.
    Output is byte-identical for identical (config, seed).

    A directory reused from an earlier run may hold files of the program
    (`STALE_FILE`) that `files` does not name; they are removed first, so
    the directory never mixes two runs' outputs.
    """
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for path in outdir.iterdir():
            if path.name not in files and STALE_FILE.fullmatch(path.name):
                path.unlink()
        for name, chunks in files.items():
            with open(outdir / name, "wb") as handle:
                handle.writelines(chunks)
    except OSError as exc:
        raise OSError(f"failed writing report under {outdir}: {exc}") from exc
