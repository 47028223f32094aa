import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from screenqkd.adversary import SimpleTrojan  # noqa: E402
from screenqkd.analysis import transcript_npz  # noqa: E402
from screenqkd.channel import Leg  # noqa: E402
from screenqkd.photonics import PI, Origin, canon  # noqa: E402

# Absolute tolerance for angle comparisons modulo pi.
ANGLE_TOL = 1e-9


def angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """Compare two angles modulo pi (handles wrap-around at 0/pi)."""
    d = canon(a - b)
    return d < tol or PI - d < tol


def binom_sigma(p: float, n: int) -> float:
    """Standard error of a proportion estimated from n Bernoulli trials."""
    return math.sqrt(p * (1.0 - p) / n)


def z_score(hits: int, total: int, p: float) -> float:
    """Binomial z-score of the rate hits/total against probability p; NaN,
    which fails every bound, when there were no trials."""
    if not total:
        return math.nan
    deviation = hits / total - p
    sigma = binom_sigma(p, total)
    if sigma == 0:  # p is 0 or 1: only the exact rate is consistent
        return 0.0 if deviation == 0 else math.inf
    return deviation / sigma


def pass_fail(ok: bool, label: str, detail: str) -> None:
    """Print one [PASS]/[FAIL] line for a check, then assert it."""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def transcript_records(transcript) -> list[dict]:
    """The session's rounds as ``--emit-transcript`` writes them, read back:
    one dict per round of its per-round columns' values, where ``ad_bits``
    and ``ad_origin`` list the round's AD photons in column order."""
    with np.load(io.BytesIO(b"".join(transcript_npz(transcript)))) as npz:
        columns = {name: npz[name].tolist() for name in npz.files}
    ad_owner = columns.pop("ad_owner")
    ad = {name: columns.pop(name) for name in ("ad_bits", "ad_origin")}
    bounds = np.searchsorted(ad_owner, np.arange(len(columns["theta"]) + 1)).tolist()
    return [
        {**{name: values[j] for name, values in columns.items()},
         **{name: photons[bounds[j]:bounds[j + 1]] for name, photons in ad.items()}}
        for j in range(len(bounds) - 1)
    ]


class ThetaOracleTrojan(SimpleTrojan):
    """The ``standard_state`` probe with an oracle for Alice's theta, built
    directly (no strategy name selects it) to validate the estimator.

    It keeps the leg-1 table of the legitimate photons' angles, which is
    Alice's theta array itself, and rotates each stored probe by its
    round's theta before reading it. That cancels the -theta Alice's
    unitary imprinted, so the post-announcement estimate of k is exact.
    Eve in the paper's model learns a state only by measuring it, so no
    strategy of the package reads that table.
    """

    def _act(self, leg, pulse, rng):
        if leg is Leg.ALICE_TO_BOB_1:
            self._thetas = pulse.angles[Origin.LEGITIMATE]
        return super()._act(leg, pulse, rng)

    def _read_storage(self, announcement):
        self.storage = self.storage.rotated(self._thetas)
        return super()._read_storage(announcement)
