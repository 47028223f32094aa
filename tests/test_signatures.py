"""Pooled-seed companions to the acceptance criteria.

An acceptance test checks its claim at one seed, so a correct engine whose
draw order changes can fail it by chance. For each row of tests/claims.py
with `pooled` seeds, the counts of each statistic with an oracle are pooled
over those seeds and checked against the oracle at |z| <= 5, which tells a
biased engine from an unlucky seed; `per_case` seeds check each
(alpha_a, k, phi*) case of the probe AD violations. Each prints one
pass/fail line with every z-score, and none replaces an acceptance test:

    pytest tests/test_signatures.py -v -s
"""

import functools
from dataclasses import asdict, replace

import numpy as np
from scipy.stats import chi2

from screenqkd.analysis import RATES, run_experiment
from screenqkd.photonics import PI, Origin

import oracles
from claims import CLAIMS
from conftest import pass_fail, z_score

Z_MAX = 5.0
# Upper tail of the chi-square over the 8 cases that a correct engine
# exceeds with probability 1e-6.
PROBE_CASE_CHI2_MAX = chi2.isf(1e-6, 8)


@functools.cache
def _session(params, attack):
    """A one-trial session's totals, then its probe AD clicks on matched
    analyzing rounds and their integrity violations per (alpha_a, k, phi*)
    case 4 (a_index - 1) + 2 k + phi*/(pi/2), recomputed from the rounds."""
    report = run_experiment(params, attack, keep_transcripts=True)
    transcript = report.sessions[0].transcript
    rounds, owner = transcript.rounds, transcript.rounds.ad_owner
    matched = rounds.a_index + rounds.b_index == params.n_screening + 1
    probe = (matched & rounds.is_analyzing)[owner] & (rounds.ad_origin != Origin.LEGITIMATE)
    owner = owner[probe]
    k = rounds.k[owner].astype(int)
    phi_star_index = (rounds.phi[owner] > PI / 4).astype(int)
    case = 4 * (rounds.a_index[owner] - 1) + 2 * k + phi_star_index
    violated = rounds.ad_bits[probe] != oracles.integrity_bit(k, phi_star_index)
    return report.totals, *(
        np.bincount(c, minlength=4 * params.n_screening) for c in (case, case[violated])
    )


def _point_names(points):
    """Name each point by the fields, seed aside, in which the row's points
    differ; a one-point row's point is unnamed."""
    values = [asdict(params) | asdict(attack) for params, attack in points]
    keys = [k for k in values[0]
            if k != "seed" and any(v[k] != values[0][k] for v in values)]
    return [", ".join(f"{k}={v[k]:.4g}" for k in keys) for v in values]


def _pooled(claim):
    _, label, seeds = claim.pooled
    stats = [stat for stat in claim.stats if stat.oracle]
    z_scores, parts = [], []
    for (params, attack), name in zip(claim.points, _point_names(claim.points)):
        totals = [_session(replace(params, seed=s), attack)[0] for s in seeds]
        for stat in stats:
            hits, total = (sum(getattr(t, field) for t in totals)
                           for field in RATES[stat.rate])
            oracle = stat.oracle(params, attack)
            z_scores.append(z_score(hits, total, oracle))
            parts.append(f"{name + ': ' if name else ''}{stat.rate} {hits}/{total} = "
                         f"{hits / total:.4f} vs oracle={oracle:.4f}, z={z_scores[-1]:+.2f}")
    pass_fail(
        all(abs(z) <= Z_MAX for z in z_scores),
        f"criterion {claim.criterion} pooled ({label}, seeds {seeds[0]}-{seeds[-1]})",
        "; ".join(parts),
    )


def _per_case(claim):
    # The pooled probe violation rate stays near 0.5 by symmetry, so a bias
    # that moves the 0.25 and 0.75 cases in opposite directions (a skewed
    # Born rule, a probe re-injected at a slightly wrong angle) cancels out
    # of it. Each case is checked against its own closed form.
    label, seeds = claim.per_case
    [(params, attack)] = claim.points
    sessions = [_session(replace(params, seed=s), attack) for s in seeds]
    clicks, violations = (sum(s[i] for s in sessions).tolist() for i in (1, 2))
    alphas = oracles.screening_set(params.n_screening)
    z_scores, lines = [], []
    for case, (hits, total) in enumerate(zip(violations, clicks)):
        a, k, phi_star_index = case // 4, case // 2 % 2, case % 2
        oracle = oracles.replayed_photon_violation(k, phi_star_index, alphas[a])
        z_scores.append(z_score(hits, total, oracle))
        lines.append(f"a={a + 1} k={k} phi*={phi_star_index}: {hits}/{total} vs "
                     f"{oracle:.2f} z={z_scores[-1]:+.2f}")
    statistic = sum(z * z for z in z_scores)
    pass_fail(
        all(abs(z) <= Z_MAX for z in z_scores) and statistic < PROBE_CASE_CHI2_MAX,
        f"criterion {claim.criterion} per case ({label}, seeds {seeds[0]}-{seeds[-1]})",
        "; ".join(lines) + f"; chi2={statistic:.1f} < {PROBE_CASE_CHI2_MAX:.1f} (8 dof)",
    )


for _claim in (claim for claim in CLAIMS if claim.pooled):
    _name = f"test_criterion_{_claim.criterion}_{_claim.pooled[0]}"
    globals()[f"{_name}_pooled"] = lambda claim=_claim: _pooled(claim)
    if _claim.per_case:
        globals()[f"{_name}_per_case"] = lambda claim=_claim: _per_case(claim)
