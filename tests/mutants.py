"""The mutation gate: one-line physics mutants the tests must kill.

Each row of MUTANTS names a mutant, the file it edits, the exact text it
replaces (which must occur once in that file) and the new text;
``tests/test_mutants.py`` checks that in Tier-1. Every row is applied to
its own temporary copy of the whole repository, where
``python tests/claims.py`` and Tier-1 run against the mutated ``src/``;
two rows run at a time, one per core of a 2-vCPU machine. For each row,
in ``MUTANTS`` order, this prints the claims rows and the tests that
failed. A row killed by fewer than two of them, not counting
``tests/test_golden.py`` (whose pins would change with any edit) and
``tests/test_mutants.py`` (which fails on the row's own edit), is a gap
in the tests, and the script exits 1.

Run it from the root of a checkout, outside Tier-1 (pytest does not
collect this file):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Tests that fail on any edit of a row's text, so they kill no mutant.
EDIT_SENSITIVE = ("tests/test_golden.py", "tests/test_mutants.py")
MIN_KILLERS = 2
TIER1 = ("-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
         "-p", "no:cacheprovider")
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_build", "*.pyc"
)
TIMEOUT_S = 1800
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str


ADVERSARY = "src/screenqkd/adversary.py"
PHOTONICS = "src/screenqkd/photonics.py"
PROTOCOL = "src/screenqkd/protocol.py"
MUTANTS = (
    Mutant("verdict_ignores_ad", PROTOCOL,
           "    if violated.any():\n", "    if False:\n"),
    Mutant("impersonation_relay_sign", ADVERSARY,
           "delta[rounds] = (1 - 2 * readout) * (PI / 4)",
           "delta[rounds] = (2 * readout - 1) * (PI / 4)"),
    Mutant("impersonation_reads_minus_pi_4", ADVERSARY,
           "measure(active, self.angles[guess] + PI / 4, rng)",
           "measure(active, self.angles[guess] - PI / 4, rng)"),
    Mutant("passive_pns_drops_phi_star", ADVERSARY,
           "measure(self.storage, phi_star + alpha_sum + PI / 4, rng)",
           "measure(self.storage, alpha_sum + PI / 4, rng)"),
    Mutant("beamsplit_excludes_consistent_hypothesis", ADVERSARY,
           "(2 * basis[block] + 1 - bits[block])[on_row]",
           "(2 * basis[block] + bits[block])[on_row]"),
    Mutant("leg3_loss_skipped", PROTOCOL,
           "pulse = transmit(pulse, Leg.ALICE_TO_BOB_2, *channel)",
           "pulse = transmit(pulse, Leg.ALICE_TO_BOB_2, interceptor, 0.0, *channel[2:])"),
    Mutant("pns_splits_single_photons", ADVERSARY,
           "split[:-1] = same  # the successor is in the same round",
           "split[:] = True"),
    Mutant("probe_read_in_alpha_b", ADVERSARY,
           "alpha_a = self.angles[announcement.a_indices[rounds] - 1]",
           "alpha_a = self.angles[announcement.b_indices[rounds] - 1]"),
    Mutant("ad_tap_at_t", PROTOCOL,
           "beam_split(pulse, 1.0 - params.transmission, rng)",
           "beam_split(pulse, params.transmission, rng)"),
    Mutant("alice_encode_sign_flipped", PROTOCOL,
           "        step *= PI / 2\n", "        step *= -PI / 2\n"),
    Mutant("bob_conclusive_on_any_photon", PROTOCOL,
           "conclusive = (ones == 0) != all_ones", "conclusive = (zeros + ones) > 0"),
    Mutant("decode_reapplies_phi", PHOTONICS,
           "np.subtract(out, less.take(owner, mode=\"clip\"), out=out)",
           "np.add(out, less.take(owner, mode=\"clip\"), out=out)"),
    Mutant("probe_capture_wrong_side", ADVERSARY,
           "pulse.split(pulse.origin == Origin.EVE)",
           "pulse.split(pulse.origin != Origin.EVE)"),
    Mutant("pulse_keeps_dead_tables", PHOTONICS,
           "    def __post_init__(self) -> None:\n",
           "    def __post_init__(self) -> None:\n        return\n"),
    Mutant("alpha_denominator", PROTOCOL,
           "alpha /= 2 * (n + 1)", "alpha /= 2 * n + 1"),
    Mutant("sifting_matches_a_indices_alone", PROTOCOL,
           "is_matched(announcement.a_indices, announcement.b_indices, params.n_screening)",
           "is_matched(announcement.a_indices, announcement.a_indices, params.n_screening)"),
    Mutant("key_bits_packed_little_endian", PROTOCOL,
           "np.packbits(np.asarray(bits, dtype=bool))",
           "np.packbits(np.asarray(bits, dtype=bool), bitorder=\"little\")"),
    Mutant("beamsplit_reports_candidates_only", ADVERSARY,
           "reported=int(np.count_nonzero(counts))", "reported=len(candidates)"),
)


def applies(mutant: Mutant) -> bool:
    """Whether `mutant`'s old text occurs exactly once in its file and
    differs from its new text."""
    return mutant.old != mutant.new and (ROOT / mutant.file).read_text().count(mutant.old) == 1


def _run(args: tuple[str, ...], cwd: Path) -> tuple[str, bool]:
    """(output, timed out) of a Python run in `cwd` on its own ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, timeout=TIMEOUT_S,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return "", True
    return done.stdout, False


def killers(mutant: Mutant) -> list[str]:
    """The claims rows and Tier-1 tests that fail on a copy with `mutant`."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        claims, claims_timeout = _run(("tests/claims.py",), copy)
        tier1, tier1_timeout = _run(TIER1, copy)
    found = [f"claims.py {label}" for label in re.findall(r"^\[FAIL\] (.+?):", claims, re.M)]
    found += re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", tier1, re.M)
    return found + ["claims.py timeout"] * claims_timeout + ["Tier-1 timeout"] * tier1_timeout


def main() -> int:
    stale = [m.name for m in MUTANTS if not applies(m)]
    if stale:
        print(f"old text not found exactly once, or equal to the new: {', '.join(stale)}")
        return 1
    start = time.perf_counter()
    gaps = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, found in zip(MUTANTS, pool.map(killers, MUTANTS)):
            outside = [k for k in found if not k.startswith(EDIT_SENSITIVE)]
            print(f"{mutant.name} ({mutant.file}): {len(found)} failed, "
                  f"{len(outside)} outside {' and '.join(EDIT_SENSITIVE)}", flush=True)
            for killer in found:
                print(f"  {killer}", flush=True)
            if len(outside) < MIN_KILLERS:
                gaps.append(mutant.name)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s")
    if gaps:
        print(f"killed by fewer than {MIN_KILLERS} outside {' and '.join(EDIT_SENSITIVE)}: "
              f"{', '.join(gaps)}")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
