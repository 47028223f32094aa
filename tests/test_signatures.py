"""Pooled-seed companions to the acceptance criteria.

An acceptance test checks its claim at one seed within a few standard
errors, so a correct engine whose draw order changes can fail it by
chance. Each check here runs the same configuration at K seeds, pools the
counts and compares the pooled rate with its closed form by a binomial
z-test at |z| <= 5: that tells a biased engine from an unlucky seed. The
acceptance tests keep their own bounds and seeds; these replace nothing.
Each prints one pass/fail line with every z-score. Run with:

    pytest tests/test_signatures.py -v -s
"""

import functools
import math
from dataclasses import replace

import numpy as np
from scipy.stats import chi2

from screenqkd.adversary import AttackConfig
from screenqkd.analysis import TrialCounts, run_experiment
from screenqkd.photonics import PI, Origin
from screenqkd.protocol import ProtocolParams

import oracles
from conftest import binom_sigma, pass_fail

Z_MAX = 5.0

# Criterion 4's configuration: the composite attack at N = 2.
CRITERION_4 = (
    ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.5, transmission=0.9,
        mode="pulse", mean_photons=2.0,
    ),
    AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0),
)


def _z(hits: int, total: int, p: float) -> float:
    """Binomial z-score of the rate hits/total against probability p."""
    deviation = hits / total - p
    sigma = binom_sigma(p, total)
    if sigma == 0:  # p is 0 or 1: only the exact rate is consistent
        return 0.0 if deviation == 0 else math.inf
    return deviation / sigma


def _pooled(params: ProtocolParams, attack: AttackConfig, seeds: range) -> list[TrialCounts]:
    """The totals of a one-trial experiment at each seed."""
    return [run_experiment(replace(params, seed=s), attack)[0].totals for s in seeds]


def _probe_cases(transcript) -> tuple[np.ndarray, np.ndarray]:
    """Probe AD clicks on matched analyzing rounds, and their integrity
    violations, per (alpha_a, k, phi*) case numbered
    4 (a_index - 1) + 2 k + phi*/(pi/2); recomputed from the round columns."""
    rounds = transcript.rounds
    owner = rounds.ad_owner
    matched = rounds.a_index + rounds.b_index == transcript.params.n_screening + 1
    probe = (matched & rounds.is_analyzing)[owner] & (rounds.ad_origin != Origin.LEGITIMATE)
    owner = owner[probe]
    k = rounds.k[owner].astype(int)
    phi_star_index = (rounds.phi[owner] > PI / 4).astype(int)
    case = 4 * (rounds.a_index[owner] - 1) + 2 * k + phi_star_index
    violated = rounds.ad_bits[probe] != oracles.integrity_bit(k, phi_star_index)
    cases = 4 * transcript.params.n_screening
    return (
        np.bincount(case, minlength=cases),
        np.bincount(case[violated], minlength=cases),
    )


@functools.cache
def _criterion_4_session(seed: int) -> tuple[TrialCounts, np.ndarray, np.ndarray]:
    """Totals and per-case probe counts of criterion 4's session at `seed`,
    shared by the pooled checks below."""
    params, attack = CRITERION_4
    report, (transcript,) = run_experiment(
        replace(params, seed=seed), attack, keep_transcripts=True
    )
    return (report.totals, *_probe_cases(transcript))


def test_criterion_2_sift_rate_pooled():
    z_scores = {}
    for n in (1, 2, 3, 5, 10):
        params = ProtocolParams(
            n_screening=n, rounds=100_000, p_analyzing=0.2, transmission=0.9,
            mode="single",
        )
        totals = _pooled(params, AttackConfig(), range(10))
        matched = sum(t.matched for t in totals)
        z_scores[n] = _z(matched, sum(t.rounds for t in totals), 1.0 / n)
    pass_fail(
        all(abs(z) <= Z_MAX for z in z_scores.values()),
        "criterion 2 pooled (sift rate 1/N, seeds 0-9)",
        "; ".join(f"N={n}: z={z:+.2f}" for n, z in z_scores.items()),
    )


def test_criterion_4_probe_ad_violation_pooled():
    totals = [_criterion_4_session(s)[0] for s in range(40)]
    violations = sum(t.ad_injected_violations for t in totals)
    clicks = sum(t.ad_injected_clicks for t in totals)
    oracle = oracles.composite_ad_violation(2)
    z = _z(violations, clicks, oracle)
    pass_fail(
        abs(z) <= Z_MAX,
        "criterion 4 pooled (probe AD violation rate, seeds 0-39)",
        f"{violations}/{clicks} = {violations / clicks:.4f} vs oracle={oracle:.4f}, "
        f"z={z:+.2f}",
    )


PROBE_CASE_SEEDS = 80
# Upper tail of the chi-square over the 8 cases that a correct engine
# exceeds with probability 1e-6.
PROBE_CASE_CHI2_MAX = chi2.isf(1e-6, 8)


def test_criterion_4_probe_ad_violation_per_case():
    # The averaged rate of the test above stays near 0.5 by symmetry, so a
    # bias that moves the 0.25 and 0.75 cases in opposite directions (a
    # skewed Born rule, a probe re-injected at a slightly wrong angle)
    # cancels out of it. Each case is checked against its own closed form.
    sessions = [_criterion_4_session(s) for s in range(PROBE_CASE_SEEDS)]
    clicks = sum(s[1] for s in sessions)
    violations = sum(s[2] for s in sessions)
    alphas = oracles.screening_set(CRITERION_4[0].n_screening)
    z_scores, lines = [], []
    for case, (hits, total) in enumerate(zip(violations.tolist(), clicks.tolist())):
        a, k, phi_star_index = case // 4, case // 2 % 2, case % 2
        oracle = oracles.replayed_photon_violation(k, phi_star_index, alphas[a])
        z = _z(hits, total, oracle)
        z_scores.append(z)
        lines.append(
            f"a={a + 1} k={k} phi*={phi_star_index}: {hits}/{total} vs {oracle:.2f} "
            f"z={z:+.2f}"
        )
    statistic = sum(z * z for z in z_scores)
    pass_fail(
        all(abs(z) <= Z_MAX for z in z_scores) and statistic < PROBE_CASE_CHI2_MAX,
        f"criterion 4 per case (probe AD violation, seeds 0-{PROBE_CASE_SEEDS - 1})",
        "; ".join(lines)
        + f"; chi2={statistic:.1f} < {PROBE_CASE_CHI2_MAX:.1f} (8 dof)",
    )
