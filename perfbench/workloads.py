"""The benchmark's workloads and the per-run checks on their reports.

Each workload totals 10^5 rounds. Every check compares a count realized in
``report.json`` with its expected value under a binomial tolerance of
``Z`` standard errors, so a correct program fails a check with
probability below 1e-6 however small the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

Z = 5.0


def within(count: int, n: int, p: float) -> bool:
    """True when count / n is within Z binomial standard errors of p."""
    if n <= 0:
        return False
    return abs(count / n - p) <= Z * math.sqrt(p * (1.0 - p) / n)


def _common(report: dict) -> list[str]:
    """Checks every workload's report must pass."""
    totals = report["totals"]
    failures = []
    expected_rounds = report["trials"] * report["rounds_per_trial"]
    if totals["rounds"] != expected_rounds:
        failures.append(f"rounds {totals['rounds']} != {expected_rounds}")
    n = report["config"]["n"]
    if not within(totals["matched"], totals["rounds"], 1.0 / n):
        failures.append(
            f"sift rate {totals['matched'] / totals['rounds']:.5f} not 1/N = {1.0 / n:.5f}"
        )
    if totals["sifted_bits"] == 0:
        failures.append("no sifted key bits")
    return failures


def _check_honest(report: dict) -> list[str]:
    totals = report["totals"]
    failures = []
    if totals["qber_errors"]:
        failures.append(f"honest QBER errors: {totals['qber_errors']}")
    if totals["ad_clicks"] == 0 or totals["ad_violations"]:
        failures.append(
            f"AD violations {totals['ad_violations']} of {totals['ad_clicks']} clicks"
        )
    if report["verdicts"]["accepted"] != report["trials"]:
        failures.append(f"not every session accepted: {report['verdicts']}")
    return failures


def _check_pns_trojan(report: dict) -> list[str]:
    totals = report["totals"]
    failures = []
    if totals["qber_errors"]:
        failures.append(f"PNS+Trojan QBER errors: {totals['qber_errors']}")
    if totals["eve_guesses"] == 0 or totals["eve_correct"] != totals["eve_guesses"]:
        failures.append(
            f"eve_accuracy {totals['eve_correct']}/{totals['eve_guesses']} is not 1"
        )
    if not within(totals["ad_injected_violations"], totals["ad_injected_clicks"], 0.5):
        failures.append(
            f"probe AD violations {totals['ad_injected_violations']}"
            f"/{totals['ad_injected_clicks']} not 0.5"
        )
    return failures


def _check_beamsplit(report: dict) -> list[str]:
    # An inconclusive readout relays Bob's own reply, whose outcome is
    # independent of k, so QBER is 1/2. With t = 1 and no loss, Eve sees
    # every non-vacuum Poisson pulse on the final leg. A conclusive readout
    # at N = 5 needs at least 2N - 1 = 9 photons, so conclusive_rate is
    # about 0 and only its upper end is checked.
    totals = report["totals"]
    failures = []
    if totals["qber_errors"] == 0 or not within(
        totals["qber_errors"], totals["sifted_bits"], 0.5
    ):
        failures.append(f"QBER errors {totals['qber_errors']}/{totals['sifted_bits']} not 0.5")
    nonvacuum = 1.0 - math.exp(-report["config"]["mean_photons"])
    if not within(totals["beamsplit_reported"], totals["rounds"], nonvacuum):
        failures.append(
            f"reported rounds {totals['beamsplit_reported']}/{totals['rounds']}"
            f" not {nonvacuum:.5f}"
        )
    if totals["beamsplit_conclusive"] >= totals["beamsplit_reported"]:
        failures.append("conclusive_rate is not below 1")
    return failures


def _check_impersonation(report: dict) -> list[str]:
    totals = report["totals"]
    failures = []
    if not within(totals["qber_errors"], totals["sifted_bits"], 0.5):
        failures.append(f"QBER errors {totals['qber_errors']}/{totals['sifted_bits']} not 0.5")
    if report["verdicts"]["accepted"]:
        failures.append(f"{report['verdicts']['accepted']} sessions accepted")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]

    def _value(self, flag: str, default: int) -> int:
        return int(self.argv[self.argv.index(flag) + 1]) if flag in self.argv else default

    def total_rounds(self, scale: float = 1.0) -> int:
        return self.rounds(scale) * self._value("--trials", 1)

    def rounds(self, scale: float = 1.0) -> int:
        return max(1, round(self._value("--rounds", 0) * scale))

    def cli_argv(self, seed: int, outdir: str, scale: float = 1.0) -> list[str]:
        argv = list(self.argv)
        argv[argv.index("--rounds") + 1] = str(self.rounds(scale))
        return argv + ["--seed", str(seed), "--outdir", outdir]

    def failures(self, report: dict) -> list[str]:
        return _common(report) + self.check(report)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest_single",
            "no adversary, single photons: the four actor steps dominate",
            ("--N", "2", "--rounds", "100000", "--mode", "single", "--attack", "none"),
            _check_honest,
        ),
        Workload(
            "pns_trojan_lossy",
            "Poisson pulses, probe injection and recapture, per-photon channel loss",
            ("--N", "2", "--rounds", "100000", "--mode", "pulse", "--mean-photons", "2.0",
             "--p-analyzing", "0.5", "--attack", "pns_trojan", "--loss", "0.1"),
            _check_pns_trojan,
        ),
        Workload(
            "beamsplit_n5",
            "adversary-bound: N-way hypothesis elimination at N = 5, no AD tap",
            ("--N", "5", "--rounds", "100000", "--mode", "pulse", "--mean-photons", "2.0",
             "--transmission", "1.0", "--attack", "pulse_beamsplit"),
            _check_beamsplit,
        ),
        Workload(
            "impersonation_trials",
            "20 sessions of 5000 rounds: per-session fixed costs weigh 20x more",
            ("--N", "2", "--rounds", "5000", "--trials", "20", "--mode", "single",
             "--attack", "impersonation"),
            _check_impersonation,
        ),
    )
}
