"""Acceptance suite: one test per criterion, run at full desk scale.

Each test prints a single pass/fail line. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import filecmp
import math
import time

from screenqkd.adversary import AttackConfig
from screenqkd.analysis import ie_sum, run_experiment
from screenqkd.cli import main as cli_main
from screenqkd.protocol import (
    ProtocolParams,
    Verdict,
    expected_ad_bit,
    is_matched,
    run_session,
)

import oracles
from conftest import binom_sigma, pass_fail

SEED = 2026


def test_criterion_1_honest_protocol_correctness():
    started = time.perf_counter()
    params = ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.2, transmission=0.9,
        mode="single", seed=SEED,
    )
    transcript = run_session(params)
    elapsed = time.perf_counter() - started

    qber_errors = sum(
        a != b for a, b in zip(transcript.alice_key, transcript.bob_key)
    )
    integrity_ok = transcript.ad_checked > 0 and transcript.ad_violations == 0
    rounds = transcript.rounds
    owner = rounds.ad_owner
    audited = (is_matched(rounds.a_index, rounds.b_index, 2) & rounds.is_analyzing)[owner]
    expected = expected_ad_bit(rounds.k[owner], rounds.phi[owner])
    integrity_ok &= bool((rounds.ad_bits == expected)[audited].all())
    ok = (
        len(transcript.alice_key) > 0
        and qber_errors == 0
        and integrity_ok
        and transcript.verdict is Verdict.ACCEPTED
        and transcript.alice_hash == transcript.bob_hash
        and elapsed < 10.0
    )
    pass_fail(
        ok,
        "criterion 1 (honest correctness)",
        f"qber_errors={qber_errors}/{len(transcript.alice_key)}, "
        f"ad_violations={transcript.ad_violations}/{transcript.ad_checked}, "
        f"verdict={transcript.verdict.value}, hashes_equal="
        f"{transcript.alice_hash == transcript.bob_hash}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_key_rate_law():
    rounds = 100_000
    details = []
    ok = True
    for n in (1, 2, 3, 5, 10):
        params = ProtocolParams(
            n_screening=n, rounds=rounds, p_analyzing=0.2, transmission=0.9,
            mode="single", seed=SEED,
        )
        report, _ = run_experiment(params, AttackConfig())
        p = 1.0 / n
        tolerance = 3 * binom_sigma(p, rounds)
        deviation = abs(report.sift_rate - p)
        ok &= deviation <= tolerance + 1e-12
        if n == 2:
            ok &= abs(report.sift_rate - 0.5) <= 0.005
        details.append(f"N={n}: {report.sift_rate:.4f} (1/N={p:.4f})")
    pass_fail(ok, "criterion 2 (key-rate law 1/N)", "; ".join(details))


def test_criterion_3_impersonation_detectability():
    params = ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.2, transmission=1.0,
        mode="single", seed=SEED,
    )
    report, _ = run_experiment(params, AttackConfig(strategy="impersonation"))
    oracle = oracles.impersonation_qber(2)
    sums_ok = all(abs(ie_sum(n) - n / 2) <= 1e-12 for n in range(1, 65))
    sums_ok &= abs(ie_sum(2) - 1.0) <= 1e-12
    ok = (
        report.qber >= 0.5 - 0.01
        and abs(report.qber - oracle) <= 0.01
        and sums_ok
    )
    pass_fail(
        ok,
        "criterion 3 (impersonation QBER)",
        f"qber={report.qber:.4f} vs oracle={oracle:.4f} "
        f"on {report.totals.sifted_bits} sifted bits; ie_sum identity to 1e-12 "
        f"for N<=64 with ie_sum(2)={ie_sum(2):.12f}",
    )


def test_criterion_4_composite_pns_trojan_detectability():
    params = ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.5, transmission=0.9,
        mode="pulse", mean_photons=2.0, seed=SEED,
    )
    report, _ = run_experiment(
        params, AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0), trials=3
    )
    oracle = oracles.composite_ad_violation(2)
    spot = oracles.replayed_photon_violation(0, 0, math.pi / 6)
    measured = report.ad_violation_rate_injected
    ok = (
        report.totals.sifted_bits > 0
        and report.qber == 0.0
        and abs(measured - oracle) <= 0.01
        and measured > 0.3
        and report.totals.eve_guesses > 0
        and report.eve_accuracy == 1.0
        and abs(spot - 0.75) <= 1e-12
    )
    pass_fail(
        ok,
        "criterion 4 (PNS+Trojan composite)",
        f"qber={report.qber} exactly, probe ad_violation_rate={measured:.4f} vs "
        f"oracle={oracle:.4f} over {report.totals.ad_injected_clicks} probe clicks "
        f"(spot case cos^2(pi/6)={spot:.2f}), eve_accuracy={report.eve_accuracy} "
        f"on {report.totals.eve_guesses} captured rounds",
    )


def test_criterion_5_standard_state_variant_detectability():
    params = ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.5, transmission=0.3,
        mode="single", seed=SEED,
    )
    report, _ = run_experiment(
        params, AttackConfig(strategy="standard_state", eve_tap_fraction=1.0)
    )
    violation = report.ad_violation_rate_injected
    accuracy = report.eve_accuracy
    ok = abs(violation - 0.5) <= 0.01 and abs(accuracy - 0.5) <= 0.01
    pass_fail(
        ok,
        "criterion 5 (standard-state variant)",
        f"probe ad_violation_rate={violation:.4f} over "
        f"{report.totals.ad_injected_clicks} probe clicks, "
        f"eve_accuracy={accuracy:.4f} over {report.totals.eve_guesses} guesses",
    )


def test_criterion_6_simple_trojan_futility():
    details = []
    ok = True
    for i in range(8):
        eta = i * math.pi / 8
        params = ProtocolParams(
            n_screening=2, rounds=50_000, p_analyzing=0.2, transmission=0.9,
            mode="single", seed=SEED + i,
        )
        report, _ = run_experiment(
            params,
            AttackConfig(strategy="simple_trojan", trojan_angle=eta,
                         eve_tap_fraction=1.0),
        )
        ok &= abs(report.eve_accuracy - 0.5) <= 0.01
        details.append(f"{report.eve_accuracy:.4f}")
    pass_fail(
        ok,
        "criterion 6 (simple Trojan futility)",
        f"eve_accuracy over 8 probe angles: {', '.join(details)}",
    )


def test_criterion_7_pulse_split_suppression_trend():
    stats = []
    for n in (2, 3, 5):
        params = ProtocolParams(
            n_screening=n, rounds=100_000, p_analyzing=0.2, transmission=1.0,
            mode="pulse", mean_photons=2.0, seed=SEED,
        )
        report, _ = run_experiment(params, AttackConfig(strategy="pulse_beamsplit"))
        rate = report.conclusive_rate
        reported = report.totals.beamsplit_reported
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / reported)
        stats.append((n, rate, se))
    ok = True
    for (_, c1, s1), (_, c2, s2) in zip(stats, stats[1:]):
        ok &= (c1 - c2) > 3 * math.sqrt(s1 ** 2 + s2 ** 2)
    pass_fail(
        ok,
        "criterion 7 (conclusive-rate suppression in N)",
        "; ".join(f"N={n}: {c:.5f}" for n, c, _ in stats),
    )


def test_criterion_8_determinism(tmp_path):
    argv_base = [
        "--N", "2", "--rounds", "5000", "--trials", "2", "--seed", str(SEED),
        "--mode", "pulse", "--mean-photons", "2.0", "--attack", "pns_trojan",
        "--emit-transcript",
    ]
    dirs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = cli_main(argv_base + ["--outdir", str(outdir)])
        assert code == 0
        dirs.append(outdir)
    files = sorted(p.name for p in dirs[0].iterdir())
    identical = all(
        filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False) for name in files
    )
    ok = identical and "report.json" in files and "trials.csv" in files and any(
        name.startswith("transcript_") for name in files
    )
    pass_fail(
        ok,
        "criterion 8 (determinism)",
        f"two identical runs produced byte-identical {files}",
    )
