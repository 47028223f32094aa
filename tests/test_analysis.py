import copy
import hashlib
import io
import json
import math
import time
import zipfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from screenqkd import analysis
from screenqkd.adversary import AttackConfig, build_interceptor
from screenqkd.analysis import (
    RATES,
    ExperimentReport,
    SessionSummary,
    TrialCounts,
    csv_table,
    emit_report,
    flat_rows,
    ie_sum,
    report_json,
    run_experiment,
    score_trial,
    security_curve,
    transcript_npz,
)
from screenqkd.channel import Leg
from screenqkd.cli import build_parser, load_config, main
from screenqkd.errors import ConfigError
from screenqkd.photonics import PI, Origin
from screenqkd.protocol import (
    Announcement,
    ProtocolParams,
    expected_ad_bit,
    is_matched,
    run_session,
    screening_angles,
)

from conftest import ThetaOracleTrojan, binom_sigma, transcript_records


def _params(**overrides) -> ProtocolParams:
    defaults = dict(
        n_screening=2, rounds=10_000, p_analyzing=0.2, transmission=0.9,
        mode="single", mean_photons=1.0, seed=200,
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


class TestIeSum:
    def test_n1(self):
        assert ie_sum(1) == pytest.approx(0.5, abs=1e-12)

    def test_n2(self):
        # sin^2(pi/6 - pi/2) + sin^2(pi/3 - pi/2) = 3/4 + 1/4
        assert ie_sum(2) == pytest.approx(1.0, abs=1e-12)

    def test_pairing_identity_up_to_64(self):
        for n in range(1, 65):
            assert ie_sum(n) == pytest.approx(n / 2, abs=1e-12)
            assert ie_sum(n) / n == pytest.approx(0.5, abs=1e-12)

    def test_exact_at_the_largest_screening_set(self):
        # One correctly rounded sum: a running float sum drifts by ~1.7e-8 here.
        assert abs(ie_sum(2**20) - 2**19) <= 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ie_sum(0)

    @pytest.mark.parametrize("function", (screening_angles, ie_sum))
    @pytest.mark.parametrize("n", (2.5, True, "2", 0, 2**20 + 1), ids=repr)
    def test_rejects_a_size_that_is_no_valid_integer(self, function, n):
        # a float, a bool or a string is refused, not read as a size
        with pytest.raises(ConfigError):
            function(n)

    def test_accepts_a_numpy_integer(self):
        assert screening_angles(np.int64(3)).tolist() == screening_angles(3).tolist()
        assert ie_sum(np.int64(3)) == ie_sum(3)


def _honest_report(**overrides):
    return run_experiment(_params(**overrides), AttackConfig())


class TestMetrics:
    def test_qber_zero_for_honest_run(self):
        assert _honest_report().metrics["qber"] == 0.0

    def test_qber_absent_without_sifted_bits(self):
        # analyzing-only sessions produce no key material
        assert _honest_report(p_analyzing=1.0, rounds=200).metrics["qber"] is None

    def test_ad_rate_zero_for_honest_run(self):
        report = _honest_report(p_analyzing=0.5, transmission=0.5)
        assert report.totals.ad_clicks > 0
        assert report.metrics["ad_violation_rate"] == 0.0

    def test_ad_rate_absent_without_clicks(self):
        report = _honest_report(transmission=1.0, rounds=500)
        assert report.metrics["ad_violation_rate"] is None


def _session(counts: TrialCounts) -> SessionSummary:
    """An accepted session with these counters and no key or audit bytes."""
    return SessionSummary(counts, "accepted", alice_hash="", bob_hash="", audit_arrays={})


class TestExperimentReport:
    def test_validate_and_roundtrip(self, tmp_path):
        params = _params(rounds=3000)
        report = run_experiment(params, AttackConfig(), trials=2)
        report.validate()
        doc = report.to_dict({"n": 2})
        assert json.loads(json.dumps(doc)) == doc
        assert doc["metrics"]["qber"] == 0.0
        assert doc["trials"] == 2

    def test_rates_within_bounds(self):
        params = _params(rounds=3000, mode="pulse", mean_photons=2.0)
        report = run_experiment(
            params, AttackConfig(strategy="pns_trojan"), trials=1
        )
        for value in report.to_dict({})["metrics"].values():
            if value is not None:
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "name,doctored",
        [
            # 5 correct of 3 analyzing guesses: accuracy 5/3
            ("eve_accuracy_analyzing", {"eve_correct": 5, "eve_analyzing_correct": 5}),
            # 3 analyzing rounds correct of 2 overall: accuracy (2 - 3)/(10 - 3)
            ("eve_accuracy_non_analyzing", {"eve_correct": 2, "eve_analyzing_correct": 3}),
        ],
    )
    def test_validate_rejects_doctored_eve_accuracy(self, name, doctored):
        counts = TrialCounts(rounds=100, eve_guesses=10, eve_analyzing_guesses=3, **doctored)
        report = ExperimentReport(_params(), [_session(counts)])
        assert not 0.0 <= report.metrics[name] <= 1.0
        # the rate is out of range only because some part exceeds its whole
        with pytest.raises(ValueError, match=r"0 <= \w+ <= \w+ fails"):
            report.validate()

    @pytest.mark.parametrize(
        "part,whole,doctored",
        [
            ("sifted_bits", "matched", dict(matched=5, sifted_bits=6)),
            ("qber_errors", "sifted_bits", dict(qber_errors=3)),
            ("ad_injected_violations", "ad_violations",
             dict(ad_clicks=10, ad_violations=1, ad_injected_clicks=5,
                  ad_injected_violations=2)),
            ("eve_key_guesses", "eve_guesses", dict(eve_guesses=5, eve_key_guesses=7)),
            ("eve_key_correct", "eve_correct",
             dict(eve_guesses=10, eve_correct=2, eve_key_guesses=5, eve_key_correct=3)),
            ("eve_analyzing_guesses", "eve_guesses",
             dict(eve_guesses=5, eve_analyzing_guesses=7)),
            ("eve_analyzing_correct", "eve_analyzing_guesses",
             dict(eve_guesses=10, eve_correct=5, eve_analyzing_correct=2)),
            ("eve_analyzing_correct", "eve_correct",
             dict(eve_guesses=4, eve_correct=1, eve_analyzing_guesses=4,
                  eve_analyzing_correct=3)),
            # 5 correct of 3 analyzing guesses: accuracy 5/3
            ("eve_analyzing_correct", "eve_analyzing_guesses",
             dict(eve_guesses=10, eve_correct=5, eve_analyzing_guesses=3,
                  eve_analyzing_correct=5)),
            # 3 analyzing rounds correct of 2 overall: accuracy (2 - 3)/(10 - 3)
            ("eve_analyzing_correct", "eve_correct",
             dict(eve_guesses=10, eve_correct=2, eve_analyzing_guesses=3,
                  eve_analyzing_correct=3)),
            # 9 correct among 5 non-analyzing guesses: only the derived pair fails
            ("eve_non_analyzing_correct", "eve_non_analyzing_guesses",
             dict(eve_guesses=10, eve_correct=9, eve_analyzing_guesses=5)),
            ("beamsplit_conclusive", "beamsplit_reported", dict(beamsplit_conclusive=4)),
        ],
    )
    def test_validate_rejects_part_above_whole(self, part, whole, doctored):
        report = ExperimentReport(_params(), [_session(TrialCounts(rounds=100, **doctored))])
        with pytest.raises(ValueError, match=f"0 <= {part} <= {whole} fails"):
            report.validate()

    def test_totals_are_sums_over_trials(self):
        params = _params(rounds=1000, mode="pulse", mean_photons=2.0, p_analyzing=0.5)
        report = run_experiment(params, AttackConfig(strategy="pns_trojan"), trials=3)
        for field in fields(TrialCounts):
            total = getattr(report.totals, field.name)
            assert total == sum(getattr(s.counts, field.name) for s in report.sessions)
        assert report.totals.rounds == 3000
        assert report.totals.ad_injected_clicks > 0

    # The library checks `trials` as the CLI does: an integer >= 1, bool excluded.
    @pytest.mark.parametrize("trials", [2.5, "2", True, 0])
    def test_rejects_invalid_trials(self, trials):
        with pytest.raises(ConfigError, match="trials: must be"):
            run_experiment(_params(rounds=100), AttackConfig(), trials=trials)

    def test_verdict_histogram_counts_trials(self):
        report = run_experiment(_params(rounds=2000), AttackConfig(), trials=3)
        assert sum(report.verdicts.values()) == 3
        assert report.verdicts["accepted"] == 3

    def test_session_block_serializes_keys_and_announcement(self):
        from screenqkd.protocol import pack_key_bits

        report = run_experiment(
            _params(rounds=1500, p_analyzing=0.4), AttackConfig(),
            trials=1, keep_transcripts=True,
        )
        session = report.sessions[0]
        transcript = session.transcript
        assert session.counts.sifted_bits == len(transcript.alice_key)
        assert session.alice_hash == transcript.alice_hash.hex()
        assert session.verdict == "accepted"
        with np.load(io.BytesIO(session.audit)) as audit:
            arrays = dict(audit)
        assert arrays["alice_key"].tobytes() == pack_key_bits(transcript.alice_key)
        assert arrays["bob_key"].tobytes() == arrays["alice_key"].tobytes()  # honest run
        assert np.array_equal(arrays["a_indices"], transcript.announcement.a_indices)
        assert np.array_equal(arrays["b_indices"], transcript.announcement.b_indices)
        flags = pack_key_bits([int(f) for f in transcript.announcement.analyzing_flags])
        assert arrays["analyzing_flags"].tobytes() == flags
        block, = report.to_dict({})["sessions"]
        assert block["audit"] == {
            "file": "audit_N2_000.npz",
            "bytes": len(session.audit),
            "sha256": hashlib.sha256(session.audit).hexdigest(),
        }

    def test_library_runs_build_no_audit_bytes(self):
        # the audit arrays are kept; their bytes are built once, for the
        # report that hashes or writes them
        params = _params(rounds=500)
        built = AssertionError("a library run built audit bytes")
        with mock.patch.object(analysis, "npz_bytes", side_effect=built):
            report = run_experiment(params, AttackConfig(), trials=2)
            security_curve(params, AttackConfig(), [2, 3])
        audits = report.audits
        assert list(audits) == ["audit_N2_000.npz", "audit_N2_001.npz"]
        assert all(report.audits[name] is data for name, data in audits.items())
        with np.load(io.BytesIO(audits["audit_N2_001.npz"])) as audit:
            assert list(audit) == list(report.sessions[1].audit_arrays)


class TestReportEmission:
    def test_same_seed_byte_identical(self, tmp_path):
        params = _params(rounds=2000)
        real_time = time.time
        a_year_on = real_time() + 366 * 86400

        def run(name: str) -> dict[str, bytes]:
            report = run_experiment(params, AttackConfig(), trials=2, keep_transcripts=True)
            emit_report(tmp_path / name, {
                "report.json": report_json(report.to_dict({"seed": params.seed})),
                **{file: [audit] for file, audit in report.audits.items()},
                "trials.csv": csv_table(flat_rows(report, "none")),
                **{f"transcript_{i:03d}.npz": transcript_npz(s.transcript)
                   for i, s in enumerate(report.sessions)},
            })
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        first = run("a")
        # The second run believes the clock is a year ahead.
        with mock.patch("time.time", lambda: a_year_on), mock.patch(
            "time.localtime",
            lambda secs=None: time.gmtime(a_year_on if secs is None else secs),
        ):
            assert time.time() - real_time() > 365 * 86400
            second = run("b")
        assert sorted(first) == [
            "audit_N2_000.npz", "audit_N2_001.npz", "report.json",
            "transcript_000.npz", "transcript_001.npz", "trials.csv",
        ]
        assert first == second

    def test_report_reloads_to_equal_document(self, tmp_path):
        report = run_experiment(_params(rounds=1000), AttackConfig())
        emit_report(tmp_path, {"report.json": report_json(report.to_dict({}))})
        with open(tmp_path / "report.json") as handle:
            assert json.load(handle) == report.to_dict({})

    def test_flat_table_schema_and_row_count(self, tmp_path):
        report = run_experiment(_params(rounds=1000), AttackConfig(), trials=3)
        emit_report(tmp_path, {"trials.csv": csv_table(flat_rows(report, "none"))})
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        columns = ["trial", "N", "mode", "attack", *(f.name for f in fields(TrialCounts)),
                   "verdict", *RATES]
        assert lines[0] == ",".join(columns) and len(columns) == 30
        assert len(lines) == 1 + 3

    def test_unwritable_path_reports_context(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        report = run_experiment(_params(rounds=500), AttackConfig())
        with pytest.raises(OSError, match="failed writing report under .*blocked"):
            emit_report(target, {"report.json": report_json(report.to_dict({}))})


class TestReportWriter:
    """report.json holds exactly json.dump(doc, indent=2, sort_keys=True) + a
    newline, the document is untouched, and each audit file holds the bytes
    it was given."""

    @staticmethod
    def _assert_writes_json_dump(doc: dict, outdir) -> None:
        before = copy.deepcopy(doc)
        emit_report(outdir, {"report.json": report_json(doc)})
        expected = json.dumps(before, indent=2, sort_keys=True) + "\n"
        assert (outdir / "report.json").read_bytes() == expected.encode()
        assert doc == before

    @pytest.mark.parametrize("argv", [
        ["--mode", "pulse", "--mean-photons", "2.0", "--attack", "pns_trojan",
         "--rounds", "400", "--trials", "2", "--seed", "14"],
        # "10" sorts before "2" and "3" in the document's sorted keys
        ["--sweep-N", "2,3,10", "--rounds", "400", "--trials", "2", "--seed", "15"],
    ])
    def test_cli_documents(self, tmp_path, argv):
        with mock.patch("screenqkd.analysis.report_json", wraps=report_json) as spy:
            assert main([*argv, "--outdir", str(tmp_path / "cli")]) == 0
        (doc,), = [call.args for call in spy.call_args_list]
        self._assert_writes_json_dump(doc, tmp_path / "again")
        assert (tmp_path / "again" / "report.json").read_bytes() == (
            tmp_path / "cli" / "report.json"
        ).read_bytes()
        points = doc["sweep"].values() if "sweep" in doc else [doc]
        files = [s["audit"]["file"] for point in points for s in point["sessions"]]
        assert sorted(files) == sorted(
            p.name for p in (tmp_path / "cli").glob("audit_*.npz")
        )

    @pytest.mark.parametrize("doc", [
        {"schema_version": "4", "sessions": [], "config": {"n": 2}},
        {"schema_version": "4", "sweep": {}},
        {"sweep": {"2": {"sessions": [], "seed": 1}}},
    ])
    def test_documents_without_sessions(self, tmp_path, doc):
        self._assert_writes_json_dump(doc, tmp_path)

    def test_writes_each_audit_file_as_given(self, tmp_path):
        audits = {"audit_N2_000.npz": b"", "audit_N300_001.npz": bytes(range(256))}
        emit_report(tmp_path, {
            "report.json": report_json({"sessions": []}),
            **{name: [data] for name, data in audits.items()},
            "chunked.bin": (bytes([i]) for i in range(3)),
        })
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "audit_N2_000.npz", "audit_N300_001.npz", "chunked.bin", "report.json",
        ]
        for name, data in audits.items():
            assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / "chunked.bin").read_bytes() == bytes([0, 1, 2])


class TestSecurityCurve:
    def test_rate_law_across_n(self):
        base = _params(rounds=20_000, seed=201)
        reports = security_curve(base, AttackConfig(), [2, 3, 5, 10])
        for n, report in reports.items():
            p = 1.0 / n
            assert abs(report.metrics["sift_rate"] - p) <= 3 * binom_sigma(p, 20_000)
        assert list(reports) == [2, 3, 5, 10]

    def test_rate_doubles_from_n4_to_n2(self):
        base = _params(rounds=40_000, seed=202)
        reports = security_curve(base, AttackConfig(), [2, 4])
        ratio = reports[2].metrics["sift_rate"] / reports[4].metrics["sift_rate"]
        assert ratio == pytest.approx(2.0, abs=0.1)

    def test_conclusive_rate_column_with_beamsplit(self):
        base = _params(
            rounds=15_000, mode="pulse", mean_photons=2.0,
            transmission=1.0, p_analyzing=0.0, seed=203,
        )
        reports = security_curve(base, AttackConfig(strategy="pulse_beamsplit"), [2, 3])
        rates = [r.metrics["conclusive_rate"] for r in reports.values()]
        assert rates[0] > rates[1]

    def test_rejects_unsorted_n(self, monkeypatch):
        # Every point is checked before the first session: an N above the
        # largest screening set, or guess weights that fit only some N.
        def no_session(*args, **kwargs):
            raise AssertionError("security_curve ran a session before rejecting a point")

        monkeypatch.setattr(analysis, "run_session", no_session)
        for attack, n_values, match in (
            (AttackConfig(), [3, 2], "strictly increasing"),
            (AttackConfig(), [], "nonempty"),  # an empty sweep has no curve to return
            # each point is built before the order is checked, so a value
            # that is not an integer is named, not compared
            (AttackConfig(), ["a", 2], "must be an integer, got 'a'"),
            (AttackConfig(), [2, "3"], "must be an integer, got '3'"),
            (AttackConfig(), [2, 3, 2**20 + 1], "must be <= 1048576"),
            (AttackConfig(strategy="impersonation", guess_weights=(1, 0)), [2, 3],
             "expected 3 weights, got 2"),
        ):
            with pytest.raises(ConfigError, match=match):
                security_curve(_params(rounds=500), attack, n_values)


def test_no_attack_gains_key_information_invisibly():
    # restated central claim: each strategy is either visible (QBER or AD)
    # or blind on the sifted key
    cases = [
        ("impersonation", dict(mode="single", transmission=0.8, p_analyzing=0.3)),
        ("pulse_beamsplit", dict(mode="pulse", mean_photons=2.0, transmission=0.8,
                                 p_analyzing=0.3)),
        ("pns_trojan", dict(mode="pulse", mean_photons=2.0, transmission=0.8,
                            p_analyzing=0.3)),
        ("standard_state", dict(mode="single", transmission=0.8, p_analyzing=0.3)),
        ("simple_trojan", dict(mode="single", transmission=0.8, p_analyzing=0.3)),
        ("passive_pns", dict(mode="pulse", mean_photons=2.0, transmission=0.8,
                             p_analyzing=0.3)),
    ]
    for strategy, overrides in cases:
        params = _params(rounds=30_000, seed=205, **overrides)
        report = run_experiment(params, AttackConfig(strategy=strategy))
        visible_qber = report.totals.qber_errors > 0
        visible_ad = report.totals.ad_violations > 0
        if report.totals.eve_key_guesses:
            sigma = binom_sigma(0.5, report.totals.eve_key_guesses)
            blind = report.metrics["eve_key_accuracy"] <= 0.5 + 3 * sigma
        else:
            blind = True
        assert visible_qber or visible_ad or blind, strategy


# Every strategy valid in each mode.
STRATEGY_CASES = [
    *((mode, strategy) for mode in ("single", "pulse") for strategy in ("none",
      "standard_state", "simple_trojan", "passive_pns")),
    ("single", "impersonation"),
    ("pulse", "pulse_beamsplit"),
    ("pulse", "pns_trojan"),
]


def _recount(transcript, guesses, records, beamsplit_reported=None) -> dict:
    """The per-record scorer the batch one replaced, kept as its reference.

    `records` are the session's rounds read back from its transcript file.
    `beamsplit_reported` is the number of final-leg pulses a beam-split
    attack read, or None for any other strategy.
    """
    n = transcript.params.n_screening
    c = {f.name: 0 for f in fields(TrialCounts)}
    guess_of = dict(zip(guesses.rounds.tolist(), guesses.bits.tolist()))
    alice_key, bob_key = [], []
    for round_id, rec in enumerate(records):
        c["rounds"] += 1
        matched = is_matched(rec["a_index"], rec["b_index"], n)
        detected = rec["bob_outcome"] >= 0
        c["matched"] += matched
        if matched and rec["is_analyzing"]:
            expected = expected_ad_bit(rec["k"], rec["phi"] > PI / 4)  # phi is phi* here
            for bit, origin in zip(rec["ad_bits"], rec["ad_origin"]):
                c["ad_clicks"] += 1
                c["ad_violations"] += bit != expected
                if origin != Origin.LEGITIMATE:
                    c["ad_injected_clicks"] += 1
                    c["ad_injected_violations"] += bit != expected
        elif matched and detected:
            alice_key.append(rec["k"])
            bob_key.append(rec["bob_outcome"] ^ 1)
        guess = guess_of.get(round_id)
        if guess is not None:
            correct = guess == rec["k"]
            c["eve_guesses"] += 1
            c["eve_correct"] += correct
            if rec["is_analyzing"]:
                c["eve_analyzing_guesses"] += 1
                c["eve_analyzing_correct"] += correct
            if matched and not rec["is_analyzing"] and detected:
                c["eve_key_guesses"] += 1
                c["eve_key_correct"] += correct
    c["sifted_bits"] = len(alice_key)
    c["qber_errors"] = sum(a != b for a, b in zip(alice_key, bob_key))
    if beamsplit_reported is not None:
        # a beam-split guess is made exactly on a conclusive readout
        c["beamsplit_reported"] = beamsplit_reported
        c["beamsplit_conclusive"] = c["eve_guesses"]
    assert transcript.alice_key == bytes(alice_key)
    assert transcript.bob_key == bytes(bob_key)
    return c


@pytest.mark.parametrize("mode,strategy", STRATEGY_CASES)
def test_batch_scorer_matches_per_record_recount(mode, strategy):
    params = _params(
        rounds=3000, mode=mode, mean_photons=3.0, p_analyzing=0.4,
        transmission=0.7, loss=0.2, seed=206,
    )
    knobs = {"attack_probability": 0.6} if strategy != "none" else {}
    attack = AttackConfig(strategy=strategy, **knobs)
    if strategy == "standard_state":
        # The theta oracle is the one report path that reads a round column.
        interceptor = ThetaOracleTrojan(attack, params.angles)
    else:
        interceptor = build_interceptor(attack, params)
    final_leg = []  # Eve's input on the final leg
    intercept = interceptor.intercept

    def recording_intercept(leg, pulse, round_ids, rng):
        if leg is Leg.ALICE_TO_BOB_2:
            final_leg.append(pulse)
        return intercept(leg, pulse, round_ids, rng)

    interceptor.intercept = recording_intercept
    transcript = run_session(params, interceptor)
    guesses = interceptor.produce_guesses()
    counts = score_trial(transcript, guesses)
    if strategy == "standard_state":
        # the oracle makes the estimator exact
        assert counts.eve_correct == counts.eve_guesses > 0
    reported = None
    if strategy == "pulse_beamsplit":
        # an active round whose final-leg pulse is not empty
        (pulse,) = final_leg
        reported = np.count_nonzero(interceptor._active & (pulse.counts > 0))
        assert 0 < counts.beamsplit_conclusive < reported
    expected = _recount(
        transcript, guesses, transcript_records(transcript), reported
    )
    assert {name: getattr(counts, name) for name in expected} == expected
    assert counts.rounds == 3000 and counts.matched > 0


def test_transcript_file_equals_the_columns():
    # Lossy pulse-mode pns_trojan: rounds with 0, 1 and several AD photons
    # of both origins, vacuum rounds and inconclusive (double-click) rounds.
    params = _params(
        rounds=3000, mode="pulse", mean_photons=2.0, p_analyzing=0.4,
        transmission=0.5, loss=0.1, seed=207,
    )
    interceptor = build_interceptor(AttackConfig(strategy="pns_trojan"), params)
    transcript = run_session(params, interceptor)
    r = transcript.rounds
    data = io.BytesIO(b"".join(transcript_npz(transcript)))
    with zipfile.ZipFile(data) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
    with np.load(data) as npz:
        assert npz.files == [f.name for f in fields(r)]
        for name in npz.files:
            column = getattr(r, name)
            assert npz[name].dtype == column.dtype, name
            assert np.array_equal(npz[name], column), name
    ad_counts = np.bincount(r.ad_owner, minlength=len(r))
    assert {0, 1} <= set(ad_counts.tolist()) and ad_counts.max() >= 2
    assert set(r.ad_origin.tolist()) == {Origin.LEGITIMATE, Origin.EVE}
    vacuum = r.bob_received == 0
    assert vacuum.any() and (r.bob_outcome[vacuum] == -1).all()
    assert ((r.bob_received > 0) & (r.bob_outcome == -1)).any()  # inconclusive


def announcement_from_session(
    session: dict, outdir: Path, rounds: int
) -> tuple[Announcement, bytes, bytes]:
    """Read one report session's audit file back to the public announcement
    and the two sifted keys (one 0/1 byte per bit, as a transcript holds them).

    The file's length and SHA-256 must be the ones the report names. Flags
    and keys are packed MSB-first with a zero tail; phi* is 0 or pi/2 on
    analyzing rounds.
    """
    entry = session["audit"]
    raw = (outdir / entry["file"]).read_bytes()
    assert len(raw) == entry["bytes"]
    assert hashlib.sha256(raw).hexdigest() == entry["sha256"]
    with np.load(io.BytesIO(raw)) as audit:
        arrays = dict(audit)

    def bits(name: str, count: int) -> np.ndarray:
        unpacked = np.unpackbits(arrays[name])
        assert len(unpacked) == 8 * math.ceil(count / 8) and not unpacked[count:].any()
        return unpacked[:count]

    announcement = Announcement(
        a_indices=arrays["a_indices"],
        b_indices=arrays["b_indices"],
        analyzing_flags=bits("analyzing_flags", rounds).astype(bool),
        phi_star_flags=bits("phi_star_flags", rounds).astype(bool),
    )
    alice_key, bob_key = (
        bits(name, session["sifted_bits"]).tobytes() for name in ("alice_key", "bob_key")
    )
    return announcement, alice_key, bob_key


def _assert_decodes(doc: dict, transcripts, outdir: Path) -> None:
    assert len(doc["sessions"]) == len(transcripts)
    for session, transcript in zip(doc["sessions"], transcripts):
        decoded, alice_key, bob_key = announcement_from_session(
            session, outdir, doc["rounds_per_trial"]
        )
        ann = transcript.announcement
        for name in ("a_indices", "b_indices"):
            assert getattr(decoded, name).dtype == getattr(ann, name).dtype
            assert np.array_equal(getattr(decoded, name), getattr(ann, name))
        assert np.array_equal(decoded.analyzing_flags, ann.analyzing_flags)
        assert np.array_equal(decoded.phi_star_flags, ann.phi_star_flags)
        assert alice_key == transcript.alice_key
        assert bob_key == transcript.bob_key


def _cli_report(argv: list[str], outdir) -> tuple[dict, list]:
    """Run the CLI, then rerun its config in-process to keep the transcripts."""
    assert main([*argv, "--outdir", str(outdir)]) == 0
    doc = json.loads((outdir / "report.json").read_text())
    config = load_config(build_parser().parse_args(argv))
    transcripts = {}
    for n in config.sweep_n or [config.params.n_screening]:
        report = run_experiment(
            replace(config.params, n_screening=n), config.attack,
            trials=config.trials, keep_transcripts=True,
        )
        transcripts[n] = [s.transcript for s in report.sessions]
    return doc, transcripts


@pytest.mark.parametrize("mode,strategy", STRATEGY_CASES)
def test_report_announcement_round_trips(tmp_path, capsys, mode, strategy):
    argv = [
        "--mode", mode, "--attack", strategy, "--loss", "0.1", "--trials", "2",
        "--rounds", "2000", "--p-analyzing", "0.3", "--seed", "11",
        *(["--mean-photons", "2.0"] if mode == "pulse" else []),
    ]
    doc, transcripts = _cli_report(argv, tmp_path)
    _assert_decodes(doc, transcripts[doc["config"]["n"]], tmp_path)


def _index_width(session: dict, outdir: Path) -> int:
    """Bytes per screening index in a session's audit file."""
    with np.load(outdir / session["audit"]["file"]) as audit:
        widths = {audit[name].dtype.itemsize for name in ("a_indices", "b_indices")}
    width, = widths
    return width


# The audit file keeps the engine's index dtype: the smallest unsigned type
# that holds 2N, the largest sum `is_matched` forms (uint8 up to N = 127).
@pytest.mark.parametrize("n,width", [(1, 1), (255, 2), (256, 2), (300, 2), (65_536, 4)])
def test_index_width_is_smallest_that_holds_n(tmp_path, n, width):
    params = _params(n_screening=n, rounds=37, p_analyzing=0.5)
    report = run_experiment(params, AttackConfig(), trials=2, keep_transcripts=True)
    transcripts = [s.transcript for s in report.sessions]
    doc = report.to_dict({})
    emit_report(tmp_path, {name: [audit] for name, audit in report.audits.items()})
    assert np.min_scalar_type(2 * n).itemsize == width
    assert [_index_width(s, tmp_path) for s in doc["sessions"]] == [width, width]
    _assert_decodes(doc, transcripts, tmp_path)


def test_sweep_report_encodes_every_n(tmp_path, capsys):
    argv = ["--sweep-N", "2,300", "--rounds", "600", "--trials", "2", "--seed", "12"]
    doc, transcripts = _cli_report(argv, tmp_path)
    for n, width in ((2, 1), (300, 2)):
        point = doc["sweep"][str(n)]
        assert [s["audit"]["file"] for s in point["sessions"]] == [
            f"audit_N{n}_000.npz", f"audit_N{n}_001.npz"
        ]
        assert {_index_width(s, tmp_path) for s in point["sessions"]} == {width}
        _assert_decodes(point, transcripts[n], tmp_path)


def _longest(node, kind: type) -> int:
    """Length of the longest list or string (`kind`) anywhere in a JSON
    document; a string search includes the dictionary keys."""
    children = []
    if isinstance(node, dict):
        children = [*node, *node.values()] if kind is str else list(node.values())
    elif isinstance(node, list):
        children = node
    own = len(node) if isinstance(node, kind) else 0
    return max([own, *(_longest(child, kind) for child in children)])


def test_report_holds_no_per_round_list(tmp_path, capsys):
    report = run_experiment(_params(rounds=5000), AttackConfig(), trials=3)
    assert _longest(report.to_dict({}), list) <= 3
    argv = ["--sweep-N", "2,3", "--rounds", "5000", "--trials", "3", "--seed", "13"]
    assert main([*argv, "--outdir", str(tmp_path / "sha256")]) == 0
    doc = json.loads((tmp_path / "sha256" / "report.json").read_text())
    assert _longest(doc, list) <= 3
    # The longest strings are the SHA-256 hex digests: the key hashes and
    # the audit files'.
    assert _longest(doc, str) == 64
