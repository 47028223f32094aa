"""Golden byte-identity check of every file the CLI writes.

Eight in-process runs of `cli.main` at 2000 rounds cover every strategy
in a mode it accepts, channel loss, several trials, impersonation guess
weights, a config file that sets ``theta_oracle``, two N sweeps and
per-round transcripts. The SHA-256 of each file written (``report.json``,
``trials.csv``, ``curve.csv``, ``transcript_*.jsonl``) is pinned below,
so a change that moves any draw, any count or any byte of the format
fails here.

The pins hold for numpy 2.4.6, whose generators fix the draws. A change
that alters the draws or the output format on purpose re-records them
with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from screenqkd.cli import main

BASE = ["--rounds", "2000", "--seed", "3"]

CASES = {
    "honest_transcript": ["--N", "2", "--attack", "none", "--emit-transcript"],
    "honest_pulse_lossy": [
        "--N", "5", "--mode", "pulse", "--mean-photons", "0.5", "--loss", "0.2",
        "--trials", "2",
    ],
    "impersonation_weights": [
        "--N", "3", "--attack", "impersonation", "--attack-probability", "0.5",
        "--guess-weights", "1,2,1", "--loss", "0.1", "--trials", "3",
    ],
    "pulse_beamsplit_sweep": [
        "--sweep-N", "2,3,5", "--mode", "pulse", "--mean-photons", "2.0",
        "--attack", "pulse_beamsplit",
    ],
    "pns_trojan_transcript": [
        "--mode", "pulse", "--mean-photons", "2.0", "--p-analyzing", "0.5",
        "--attack", "pns_trojan", "--attack-probability", "0.6",
        "--eve-tap-fraction", "0.7", "--loss", "0.05", "--emit-transcript",
    ],
    "standard_state_oracle": [
        "--p-analyzing", "0.5", "--transmission", "0.3", "--attack", "standard_state",
    ],
    "simple_trojan": [
        "--mode", "pulse", "--mean-photons", "2.0", "--attack", "simple_trojan",
        "--trojan-angle", "0.7", "--loss", "0.1",
    ],
    "passive_pns_sweep": [
        "--sweep-N", "2,3", "--mode", "pulse", "--mean-photons", "3.0",
        "--p-analyzing", "0.3", "--attack", "passive_pns", "--trials", "2",
    ],
}

# Cases that also read a JSON config file with these contents.
CONFIG_FILES = {"standard_state_oracle": {"theta_oracle": True}}

GOLDEN = {
    "honest_transcript": {
        "report.json": "18c43c162b0ad02bb5f7126a2a3869fb15b01f4bc671afa65b88a60c42deae5a",
        "transcript_000.jsonl": "d5526f1cd2f2ec9f0b3eaf1335ed700951eb22af395dbad65e75ef7cc7cf4ce8",
        "trials.csv": "409c09f48656b38bb8ccc7f9b140528482829363cc2e56863064ea2644912818",
    },
    "honest_pulse_lossy": {
        "report.json": "9c778ad2756e2dfa267b60497efc30a9d2c29bb1c7947022844a88af1867581b",
        "trials.csv": "a1f4c545a6ac6a0108fb4d632edece89d326575b43a8fc2798c9822668be35e0",
    },
    "impersonation_weights": {
        "report.json": "113a61c9f17fcc0dc549eb6170427318372fd2192d9bc5f000173ab0f0c048ef",
        "trials.csv": "9d2c8c62a3549c9292964ac5270f141b3b19800c50f0469fa27088bc7350bde8",
    },
    "pulse_beamsplit_sweep": {
        "curve.csv": "b7bce4e80dfe3fae79e787f61b99870d3c5e364a50302f8990d87740e622eb7e",
        "report.json": "06074b184f6ba9ccce6db24f982ff7a7cf1c2d336319450e5d3bf01e3c74568e",
        "trials.csv": "c27d82e32f0ad9c0c9a685dfe307179e1cae234b61f155921e25ea5eeeeacf1b",
    },
    "pns_trojan_transcript": {
        "report.json": "a99370db0177d287a1535943f0dbee62da66ddc8d80f44ead209857bdff614c6",
        "transcript_000.jsonl": "507fe724f88c7914ced7956dc4d12b1394d04bea40f33b71937353e394af7871",
        "trials.csv": "4c7d39fd03d0fb24c475927ad2f52373b50acb8ee2db4cb5abb50d452d80c251",
    },
    "standard_state_oracle": {
        "report.json": "9619fc995665744a1fbf78fb527e761090e65496970a698b24df61fc98fb7e36",
        "trials.csv": "ab43692e7012ada4f0f51d5848bc84796a013462b704c10e5d35f52105c87b6d",
    },
    "simple_trojan": {
        "report.json": "f29ec6e777bbd244b6424981709c99968377f55cc3557b2ee1601d8ee7a631bd",
        "trials.csv": "22aea5b2c9f98d3282e7bcc4bc483f6115ff3a4cebd7737e3abd898529d23ed5",
    },
    "passive_pns_sweep": {
        "curve.csv": "f2d1796190adc30a9d325d8f2b8adfdbe2042a80baf8546334548359abc76eec",
        "report.json": "d7ffbffd775b6010c8497114b25ebc5d7156bce7edc2cd4390bc5f84f5994296",
        "trials.csv": "1320e059a9126885b48a5d37e19c04698342da948cfed1e368f193414928beb1",
    },
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case into `workdir`/out; returns file name -> SHA-256."""
    argv = BASE + CASES[name] + ["--outdir", str(workdir / "out")]
    if name in CONFIG_FILES:
        config = workdir / "config.json"
        config.write_text(json.dumps(CONFIG_FILES[name]))
        argv += ["--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, f"{name}: exit code {code}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((workdir / "out").iterdir())
    }


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": {{')
            for file, digest in run_case(case, Path(tmp)).items():
                print(f'        "{file}": "{digest}",')
            print("    },")
    print("}")
