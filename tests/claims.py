"""The paper's claims, one row each: its text (from PAPER.md or the README
attack table), its (ProtocolParams, AttackConfig) points with their
acceptance seeds, and its statistics, each a rate of analysis.RATES with its
oracle and bound (criteria 1 and 8 are exact predicates).
tests/test_acceptance.py checks each row at its acceptance seeds and
tests/test_signatures.py at its `pooled` and `per_case` seeds. A new claim
is a new row. To print one reproduction line per claim:

    PYTHONPATH=src python tests/claims.py
"""

import contextlib
import filecmp
import math
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from screenqkd.adversary import AttackConfig
from screenqkd.analysis import RATES, ie_sum, run_experiment
from screenqkd.cli import main as cli_main
from screenqkd.protocol import ProtocolParams, Verdict, expected_ad_bit
from screenqkd.protocol import is_matched, run_session

import oracles
from conftest import binom_sigma, z_score

SEED = 2026
SPOT = oracles.replayed_photon_violation(0, 0, math.pi / 6)  # cos^2(pi/6)


class Stat(NamedTuple):
    """A rate of analysis.RATES, hits/total of two TrialCounts counters. It
    holds when the total is positive and the rate is within `bound` of the
    oracle (in binomial standard errors if `sigmas`); without an oracle only
    `also` checks it."""

    rate: str
    oracle: Optional[Callable[[ProtocolParams, AttackConfig], float]] = None
    bound: float = 0.0
    sigmas: bool = False


class Rate(NamedTuple):
    params: ProtocolParams
    stat: Stat
    hits: int
    total: int
    value: float  # NaN when total is 0
    oracle: Optional[float]
    ok: bool


def _rate(params: ProtocolParams, attack: AttackConfig, stat: Stat, totals) -> Rate:
    hits, total = (getattr(totals, name) for name in RATES[stat.rate])
    value = hits / total if total else math.nan
    oracle = stat.oracle(params, attack) if stat.oracle else None
    if not total or oracle is None:
        return Rate(params, stat, hits, total, value, oracle, total > 0)
    bound = stat.bound * binom_sigma(oracle, total) + 1e-12 if stat.sigmas else stat.bound
    return Rate(params, stat, hits, total, value, oracle, abs(value - oracle) <= bound)


@dataclass(frozen=True)
class Claim:
    criterion: int
    name: str  # the acceptance test is test_criterion_<criterion>_<name>
    label: str  # its line reads "criterion <criterion> (<label>): <detail>"
    text: str
    points: tuple[tuple[ProtocolParams, AttackConfig], ...]
    stats: tuple[Stat, ...] = ()
    # the other conditions and the pass/fail detail, from each point's rates
    also: Callable[[list[Rate]], bool] = lambda rates: True
    detail: Callable[[list[Rate]], str] = lambda rates: ""
    exact: Optional[Callable[["Claim", Path], tuple[bool, str]]] = None
    trials: int = 1
    pooled: tuple = ()  # (name, label, seeds) of the pooled check of the stats
    per_case: tuple = ()  # (label, seeds) of the per-case probe AD check


def check(claim: Claim, tmp: Path, reproduce: bool = False) -> tuple[bool, str, str]:
    """Whether the row holds at its acceptance seeds, its label, and its
    detail; with `reproduce`, every rate with its oracle and z-score."""
    label = f"criterion {claim.criterion} ({claim.label})"
    if claim.exact:
        ok, detail = claim.exact(claim, tmp)
        return ok, label, detail
    rates = []
    for params, attack in claim.points:
        totals = run_experiment(params, attack, trials=claim.trials)[0].totals
        rates += [_rate(params, attack, stat, totals) for stat in claim.stats]
    ok = all(r.ok for r in rates) and claim.also(rates)
    if not reproduce:
        return ok, label, claim.detail(rates)
    return ok, label, "; ".join(
        f"N={r.params.n_screening} seed={r.params.seed}: {'/'.join(RATES[r.stat.rate])}"
        f" = {r.hits}/{r.total} = {r.value:.4f}" + ("" if r.oracle is None else
        f" vs oracle {r.oracle:.4f}, z={z_score(r.hits, r.total, r.oracle):+.2f}")
        for r in rates
    )


def _honest_correctness(claim: Claim, tmp: Path) -> tuple[bool, str]:
    [(params, _)] = claim.points
    started = time.perf_counter()
    t = run_session(params)
    elapsed = time.perf_counter() - started
    errors = sum(a != b for a, b in zip(t.alice_key, t.bob_key))
    rounds, owner = t.rounds, t.rounds.ad_owner
    matched = is_matched(rounds.a_index, rounds.b_index, params.n_screening)
    audited = (matched & rounds.is_analyzing)[owner]
    recomputed = rounds.ad_bits == expected_ad_bit(rounds.k[owner], rounds.phi[owner])
    hashes_equal = t.alice_hash == t.bob_hash
    ok = (len(t.alice_key) > 0 and errors == 0 and t.ad_checked > 0
          and t.ad_violations == 0 and bool(recomputed[audited].all())
          and t.verdict is Verdict.ACCEPTED and hashes_equal and elapsed < 10.0)
    return ok, (f"qber_errors={errors}/{len(t.alice_key)}, ad_violations="
                f"{t.ad_violations}/{t.ad_checked}, verdict={t.verdict.value}, "
                f"hashes_equal={hashes_equal}, runtime={elapsed:.2f}s")


def _determinism(claim: Claim, tmp: Path) -> tuple[bool, str]:
    [(p, attack)] = claim.points
    argv = ["--N", str(p.n_screening), "--rounds", str(p.rounds), "--trials",
            str(claim.trials), "--seed", str(p.seed), "--mode", p.mode,
            "--mean-photons", str(p.mean_photons), "--attack", attack.strategy,
            "--emit-transcript"]
    first, second = tmp / "first", tmp / "second"
    codes = [cli_main(argv + ["--outdir", str(outdir)]) for outdir in (first, second)]
    files = sorted(path.name for path in first.iterdir())
    ok = codes == [0, 0] and "report.json" in files and "trials.csv" in files and all(
        filecmp.cmp(first / name, second / name, shallow=False) for name in files
    ) and any(name.startswith("transcript_") for name in files)
    return ok, f"two identical runs produced byte-identical {files}"


def _falls_with_n(rates: list[Rate]) -> bool:
    """Each conclusive rate exceeds the next N's by 3 combined standard errors."""
    stats = [(r.value, math.sqrt(max(r.value * (1 - r.value), 1e-12) / r.total))
             for r in rates]
    return all((c1 - c2) > 3 * math.sqrt(s1**2 + s2**2)
               for (c1, s1), (c2, s2) in zip(stats, stats[1:]))


def _params(n=2, rounds=100_000, p_analyzing=0.2, transmission=0.9, mode="single",
            seed=SEED, **rest) -> ProtocolParams:
    return ProtocolParams(n_screening=n, rounds=rounds, p_analyzing=p_analyzing,
                          transmission=transmission, mode=mode, seed=seed, **rest)


CLAIMS = (
    Claim(
        1, "honest_protocol_correctness", "honest correctness",
        "Honest runs: zero QBER, zero AD violations, an accepted session.",
        points=((_params(), AttackConfig()),),
        exact=_honest_correctness,
    ),
    Claim(
        2, "key_rate_law", "key-rate law 1/N",
        "A fraction 1/N of rounds match, so the key rate scales as 1/N.",
        points=tuple((_params(n), AttackConfig()) for n in (1, 2, 3, 5, 10)),
        stats=(Stat("sift_rate",
                    lambda p, a: oracles.matched_fraction(p.n_screening), 3, True),),
        also=lambda rs: abs(rs[1].value - 0.5) <= 0.005,  # at N = 2
        detail=lambda rs: "; ".join(f"N={r.params.n_screening}: {r.value:.4f} "
                                    f"(1/N={r.oracle:.4f})" for r in rs),
        pooled=("sift_rate", "sift rate 1/N", range(10)),
    ),
    Claim(
        3, "impersonation_detectability", "impersonation QBER",
        "impersonation (full three-leg intercept-resend): QBER >= 0.5 on sifted bits.",
        points=((_params(transmission=1.0), AttackConfig(strategy="impersonation")),),
        stats=(Stat("qber", lambda p, a: oracles.impersonation_qber(p.n_screening), 0.01),),
        also=lambda rs: rs[0].value >= 0.5 - 0.01 and abs(ie_sum(2) - 1.0) <= 1e-12
            and all(abs(ie_sum(n) - n / 2) <= 1e-12 for n in range(1, 65)),
        detail=lambda rs: f"qber={rs[0].value:.4f} vs oracle={rs[0].oracle:.4f} on "
            f"{rs[0].total} sifted bits; ie_sum identity to 1e-12 for N<=64 with "
            f"ie_sum(2)={ie_sum(2):.12f}",
    ),
    Claim(
        4, "composite_pns_trojan_detectability", "PNS+Trojan composite",
        "pns_trojan: invisible in QBER, ~0.5 AD violation rate per tapped probe; "
        "reads k perfectly once alpha_a is public.",
        points=((_params(p_analyzing=0.5, mode="pulse", mean_photons=2.0),
                 AttackConfig(strategy="pns_trojan", eve_tap_fraction=1.0)),),
        stats=(
            Stat("ad_violation_rate_injected",
                 lambda p, a: oracles.composite_ad_violation(p.n_screening), 0.01),
            Stat("qber", lambda p, a: 0.0),
            Stat("eve_accuracy", lambda p, a: 1.0),
        ),
        also=lambda rs: rs[0].value > 0.3 and abs(SPOT - 0.75) <= 1e-12,
        detail=lambda rs: f"qber={rs[1].value} exactly, probe ad_violation_rate="
            f"{rs[0].value:.4f} vs oracle={rs[0].oracle:.4f} over {rs[0].total} probe "
            f"clicks (spot case cos^2(pi/6)={SPOT:.2f}), eve_accuracy={rs[2].value} on "
            f"{rs[2].total} captured rounds",
        trials=3,
        pooled=("probe_ad_violation", "probe AD violation rate, QBER and accuracy", range(40)),
        per_case=("probe AD violation", range(80)),
    ),
    Claim(
        5, "standard_state_variant_detectability", "standard-state variant",
        "standard_state: the probe is randomized by -theta: accuracy 0.5, AD "
        "violation rate 0.5.",
        points=((_params(p_analyzing=0.5, transmission=0.3),
                 AttackConfig(strategy="standard_state", eve_tap_fraction=1.0)),),
        stats=(
            Stat("ad_violation_rate_injected",
                 lambda p, a: oracles.standard_state_ad_violation(p.n_screening), 0.01),
            Stat("eve_accuracy",
                 lambda p, a: oracles.probe_guess_accuracy(p.n_screening), 0.01),
        ),
        detail=lambda rs: (
            f"probe ad_violation_rate={rs[0].value:.4f} over {rs[0].total} probe "
            f"clicks, eve_accuracy={rs[1].value:.4f} over {rs[1].total} guesses"),
        pooled=("standard_state", "probe AD violation rate and accuracy", range(10)),
    ),
    Claim(
        6, "simple_trojan_futility", "simple Trojan futility",
        "simple_trojan: zero information for every probe angle eta.",
        points=tuple((_params(rounds=50_000, seed=SEED + i), AttackConfig(
            strategy="simple_trojan", trojan_angle=i * math.pi / 8, eve_tap_fraction=1.0,
        )) for i in range(8)),
        stats=(Stat("eve_accuracy", lambda p, a:
                    oracles.probe_guess_accuracy(p.n_screening, a.trojan_angle), 0.01),),
        detail=lambda rs: "eve_accuracy over 8 probe angles: " + ", ".join(
            f"{r.value:.4f}" for r in rs),
        pooled=("simple_trojan", "accuracy at 8 probe angles", range(10)),
    ),
    Claim(
        7, "pulse_split_suppression_trend", "conclusive-rate suppression in N",
        "pulse_beamsplit: the conclusive rate falls with N.",
        points=tuple((_params(n, transmission=1.0, mode="pulse", mean_photons=2.0),
                      AttackConfig(strategy="pulse_beamsplit")) for n in (2, 3, 5)),
        stats=(Stat("conclusive_rate"),),
        also=_falls_with_n,
        detail=lambda rs: "; ".join(
            f"N={r.params.n_screening}: {r.value:.5f}" for r in rs),
    ),
    Claim(
        8, "determinism", "determinism",
        "Every output file is byte-identical for the same (config, seed).",
        points=((_params(rounds=5000, mode="pulse", mean_photons=2.0),
                 AttackConfig(strategy="pns_trojan")),),
        exact=_determinism,
        trials=2,
    ),
)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        results = [check(claim, Path(tmp), reproduce=True) for claim in CLAIMS]
    for ok, label, line in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {line}")
    sys.exit(0 if all(ok for ok, _, _ in results) else 1)
