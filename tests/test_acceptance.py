"""Acceptance suite: one test per row of tests/claims.py at full desk scale
and at the row's acceptance seeds, each printing one pass/fail line:

    pytest tests/test_acceptance.py -v -s
"""

from claims import CLAIMS, check
from conftest import pass_fail

for _claim in CLAIMS:
    def _test(tmp_path, claim=_claim):
        pass_fail(*check(claim, tmp_path))

    globals()[f"test_criterion_{_claim.criterion}_{_claim.name}"] = _test
