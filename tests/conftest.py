import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def binom_sigma(p: float, n: int) -> float:
    """Standard error of a proportion estimated from n Bernoulli trials."""
    return math.sqrt(p * (1.0 - p) / n)


def pass_fail(ok: bool, label: str, detail: str) -> None:
    """Print one [PASS]/[FAIL] line for a check, then assert it."""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"
