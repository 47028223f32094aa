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

import math
from dataclasses import replace

from screenqkd.adversary import AttackConfig
from screenqkd.analysis import TrialCounts, run_experiment
from screenqkd.protocol import ProtocolParams

import oracles
from conftest import binom_sigma, pass_fail

Z_MAX = 5.0


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
    params = ProtocolParams(
        n_screening=2, rounds=100_000, p_analyzing=0.5, transmission=0.9,
        mode="pulse", mean_photons=2.0,
    )
    attack = AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0)
    totals = _pooled(params, attack, range(40))
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
