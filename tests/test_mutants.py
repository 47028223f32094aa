"""The mutation gate's rows still apply to the source they edit.

tests/mutants.py runs outside Tier-1 and takes minutes; a row whose old
text no longer occurs exactly once in its file would otherwise be found
only when that gate starts. This loads the script's rows the way
tests/test_bench_contract.py loads perfbench's modules.
"""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "_mutation_gate", Path(__file__).resolve().with_name("mutants.py")
)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_row_applies_exactly_once(mutant):
    assert mutants.applies(mutant), f"{mutant.file}: {mutant.old!r}"
