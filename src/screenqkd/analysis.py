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
from .errors import ConfigError
from .photonics import PI, Origin
from .protocol import (
    ProtocolParams,
    SessionTranscript,
    Verdict,
    pack_key_bits,
    run_session,
    screening_angles,
)

SCHEMA_VERSION = "5"

# The names of a run's per-session files: the audits, the transcripts and
# the line-delimited transcripts that earlier versions wrote.
SESSION_FILE = re.compile(r"audit_N\d+_\d{3,}\.npz|transcript_\d{3,}\.(?:npz|jsonl)")

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
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return math.fsum(np.sin(screening_angles(n) - PI / 2) ** 2)


@dataclass
class TrialCounts:
    """Order-independent counters extracted from one session transcript.

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
    verdict: str = Verdict.ACCEPTED.value

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
    """Auditable per-session record: the verdict, the key length and
    digests, and ``audit``, the bytes of the session's audit file.

    The audit file is an uncompressed ``.npz`` of six arrays.
    ``a_indices`` and ``b_indices`` hold one screening index per round in
    the engine's index dtype. ``analyzing_flags``, ``phi_star_flags``,
    ``alice_key`` and ``bob_key`` are bit strings packed MSB-first into
    uint8, the tail zero-padded; ``phi_star_flags`` has a set bit where
    the round was analyzing and phi* = pi/2.
    """

    verdict: str
    key_bits: int
    alice_hash: str
    bob_hash: str
    audit: bytes

    @classmethod
    def from_transcript(cls, transcript: SessionTranscript) -> "SessionSummary":
        ann = transcript.announcement
        audit = npz_bytes({
            "a_indices": ann.a_indices,
            "b_indices": ann.b_indices,
            "analyzing_flags": _packed(ann.analyzing_flags),
            "phi_star_flags": _packed(ann.phi_star_flags),
            "alice_key": _packed(transcript.alice_key),
            "bob_key": _packed(transcript.bob_key),
        })
        return cls(
            verdict=transcript.verdict.value,
            key_bits=len(transcript.alice_key),
            alice_hash=transcript.alice_hash.hex(),
            bob_hash=transcript.bob_hash.hex(),
            audit=audit,
        )


def score_trial(transcript: SessionTranscript, guesses: Guesses) -> TrialCounts:
    """Reduce one transcript plus Eve's guesses to aggregate counters.

    The matched, sifted and AD integrity masks come from sifting; the rest
    is what the parties cannot see: injected-photon AD outcomes and Eve's
    guess scores. A beam-split guess exists exactly on a conclusive readout.
    """
    rounds = transcript.rounds
    injected = rounds.ad_origin != Origin.LEGITIMATE
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
        verdict=transcript.verdict.value,
    )


@dataclass
class ExperimentReport:
    """Aggregated result of one session per trial at one parameter point.

    Holds only what it cannot derive; the totals, the verdict histogram
    and the theory block follow from `params` and `per_trial`.
    """

    params: ProtocolParams
    per_trial: list[TrialCounts]
    sessions: list[SessionSummary]

    @property
    def audits(self) -> dict[str, bytes]:
        """Each session's audit file name, in trial order, and its bytes."""
        n = self.params.n_screening
        return {
            f"audit_N{n}_{trial:03d}.npz": s.audit for trial, s in enumerate(self.sessions)
        }

    @functools.cached_property
    def totals(self) -> TrialCounts:
        """Field-wise sum of the per-trial counters, folded once."""
        return TrialCounts(
            **{
                f.name: sum(getattr(c, f.name) for c in self.per_trial)
                for f in fields(TrialCounts)
                if f.name != "verdict"
            },
            verdict="",  # not meaningful on the aggregate
        )

    @property
    def verdicts(self) -> dict[str, int]:
        return {v.value: sum(c.verdict == v.value for c in self.per_trial) for v in Verdict}

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
            "trials": len(self.per_trial),
            "rounds_per_trial": self.params.rounds,
            "totals": asdict(self.totals),
            "per_trial": [asdict(c) for c in self.per_trial],
            "sessions": [
                {**vars(s), "audit": {
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
) -> tuple[TrialCounts, SessionSummary, Optional[SessionTranscript]]:
    """Run one session; reduce it to counters plus an audit summary."""
    interceptor = build_interceptor(attack, params)
    transcript = run_session(params, interceptor, trial=trial)
    guesses = Guesses() if interceptor is None else interceptor.produce_guesses()
    counts = score_trial(transcript, guesses)
    summary = SessionSummary.from_transcript(transcript)
    return counts, summary, (transcript if keep_transcript else None)


def run_experiment(
    params: ProtocolParams,
    attack: AttackConfig,
    trials: int = 1,
    keep_transcripts: bool = False,
) -> tuple[ExperimentReport, list[SessionTranscript]]:
    """Run `trials` independent sessions and aggregate them into a report."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    per_trial, sessions, transcripts = zip(
        *(run_trial(params, attack, trial, keep_transcripts) for trial in range(trials))
    )
    report = ExperimentReport(params, list(per_trial), list(sessions))
    report.validate()
    return report, [t for t in transcripts if t is not None]


def security_curve(
    base_params: ProtocolParams,
    attack: AttackConfig,
    n_values: Sequence[int],
    trials: int = 1,
) -> tuple[list[dict], dict[int, ExperimentReport]]:
    """Run the experiment for each screening-set size N.

    Returns one point per N (the rate/security trade-off, a ``curve.csv``
    row) and the report behind each point.

    Checks sift_rate * N = 1 within the 3-sigma binomial bound for the
    realized round count; a breach raises ValueError.
    """
    if sorted(set(n_values)) != list(n_values):
        raise ConfigError(f"n_values must be strictly increasing, got {n_values}")
    curve: list[dict] = []
    reports: dict[int, ExperimentReport] = {}
    for n in n_values:
        params = replace(base_params, n_screening=n)
        report, _ = run_experiment(params, attack, trials)
        total_rounds = report.totals.rounds
        eps = 3.0 * math.sqrt(max(n - 1, 1) / total_rounds)
        metrics = report.metrics
        scaled = metrics["sift_rate"] * n
        if abs(scaled - 1.0) > eps:
            raise ValueError(
                f"key-rate law violated at N={n}: sift_rate*N={scaled:.4f} "
                f"outside 1 +/- {eps:.4f}"
            )
        curve.append(
            {
                "N": n,
                "sift_rate": metrics["sift_rate"],
                "qber_under_attack": metrics["qber"],
                "conclusive_rate": metrics["conclusive_rate"],
                "ad_violation_rate": metrics["ad_violation_rate"],
            }
        )
        reports[n] = report
    return curve, reports


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def flat_rows(report: ExperimentReport, attack: str) -> list[dict]:
    """One ``trials.csv`` row per trial, with the report's rates over that
    trial alone; the keys, in order, are the table's columns."""
    rows = []
    for i, c in enumerate(report.per_trial):
        trial = rates(c)
        rows.append(
            {
                "trial": i,
                "N": report.params.n_screening,
                "mode": report.params.mode,
                "attack": attack,
                "rounds": c.rounds,
                "sifted_bits": c.sifted_bits,
                "matched_rate": trial["sift_rate"],
                "qber": trial["qber"],
                "ad_clicks": c.ad_clicks,
                "ad_violations": c.ad_violations,
                "ad_violation_rate": trial["ad_violation_rate"],
                "eve_guesses": c.eve_guesses,
                "eve_correct": c.eve_correct,
                "eve_accuracy": trial["eve_accuracy"],
                "verdict": c.verdict,
            }
        )
    return rows


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


def emit_report(outdir: Path, files: Mapping[str, Iterable[bytes]]) -> None:
    """Write each file of `files` (name -> its bytes, in chunks) under
    `outdir`, in order; the one writer of a run's output files.

    The chunks may come from a generator (`report_json`, `csv_table`,
    `transcript_npz`), which is then formatted as it is written.
    Output is byte-identical for identical (config, seed).

    A directory reused from an earlier run may hold per-session files
    (`SESSION_FILE`) that `files` does not name; they are removed first,
    so the directory never mixes two runs' sessions.
    """
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for path in outdir.iterdir():
            if path.name not in files and SESSION_FILE.fullmatch(path.name):
                path.unlink()
        for name, chunks in files.items():
            with open(outdir / name, "wb") as handle:
                handle.writelines(chunks)
    except OSError as exc:
        raise OSError(f"failed writing report under {outdir}: {exc}") from exc
