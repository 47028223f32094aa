"""Golden byte-identity check of every file the CLI writes.

Ten in-process runs of `cli.main` at 2000 rounds cover every strategy
in a mode it accepts, channel loss, several trials, impersonation guess
weights, a config file that sets two parameters, two N sweeps,
per-round transcripts and two pulse-mode attacks at a mean photon number
of 20. The SHA-256 of each file written (``report.json``,
``trials.csv``, ``curve.csv``, ``transcript_*.npz`` and each session's
``audit_N{n}_{trial:03d}.npz``) is pinned below, so a change that moves
any draw, any count or any byte of the format fails here.

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
        "--loss", "0.05", "--emit-transcript",
    ],
    "standard_state": ["--attack", "standard_state"],
    "simple_trojan": [
        "--mode", "pulse", "--mean-photons", "2.0", "--attack", "simple_trojan",
        "--trojan-angle", "0.7", "--loss", "0.1",
    ],
    "passive_pns_sweep": [
        "--sweep-N", "2,3", "--mode", "pulse", "--mean-photons", "3.0",
        "--p-analyzing", "0.3", "--attack", "passive_pns", "--trials", "2",
    ],
    # High mu: pulses where a probe travels beside several legitimate
    # photons, and enough photons for conclusive N = 3 readouts.
    "pns_trojan_high_mu": [
        "--attack", "pns_trojan", "--mode", "pulse", "--mean-photons", "20",
        "--loss", "0.1", "--attack-probability", "0.6", "--emit-transcript",
    ],
    "pulse_beamsplit_high_mu": [
        "--attack", "pulse_beamsplit", "--N", "3", "--mode", "pulse",
        "--mean-photons", "20", "--loss", "0.1", "--transmission", "0.9",
        "--attack-probability", "0.6",
    ],
}

# Cases that also read a JSON config file with these contents.
CONFIG_FILES = {"standard_state": {"p_analyzing": 0.5, "transmission": 0.3}}

GOLDEN = {
    "honest_transcript": {
        "audit_N2_000.npz": "c270cd6f8e31355e68c406d578dc055eb32e24b1bda5dd9d72ecdfaeff2c0ce5",
        "report.json": "f0164d7a2a153383b81f725256a003b51dade1de979748245bc5099fa585ec49",
        "transcript_000.npz": "77c0d62e89c3bd7be3d143987338d7f1b02b3659cb7fb6b5d2e84491bc8a0d18",
        "trials.csv": "eba6aa4adf2581e2e8f8248f34b0080d6f52a5a6c9a04674750fba6bfb2a316c",
    },
    "honest_pulse_lossy": {
        "audit_N5_000.npz": "bce78e5839b06aeade86a9895bdbbae15c33fe6e8b0d3082ee9cfa9f6d066bb8",
        "audit_N5_001.npz": "13db5bbb05f76634d6081dc25786ac5a838d247d718107338e6a7a75f3c932f3",
        "report.json": "fd403617177556424777034986d1aa77666bddaf2e95561e56e59c927da012cb",
        "trials.csv": "433cb39dfadf61ff0c4553d31579778e1ec76305148909e739b1cffd6f72281b",
    },
    "impersonation_weights": {
        "audit_N3_000.npz": "f454a25a8a2d8fee7d3b5e0610d74bf6380b9db640cd19fdd5c68602b42532c7",
        "audit_N3_001.npz": "4d79b1b9842e885a225ebcfa59e942f038283b4f5572168d9723c8091dcf5e94",
        "audit_N3_002.npz": "de3b8bc5bc78a0afa7388c8150282ff021db80e0476517b04eb4291dc34d923c",
        "report.json": "0a42f4a0c278b143925349ef98ae8ec6f6c658eca9a117d95760fd8255e9466a",
        "trials.csv": "7409a702ab969d04ddc84d5d7da5de67a8e10bcaf275493ba517615fe8548a6b",
    },
    "pulse_beamsplit_sweep": {
        "audit_N2_000.npz": "5d93895e5a9bcc5aa478cb9884fbcf47a345dd8dd63c50fdf18907d2b15696ab",
        "audit_N3_000.npz": "fe670a85d94ed207b57c126264d4a439df475ed525e15a99772b5b6937c83ade",
        "audit_N5_000.npz": "c8d18634de5f3b757d817570cf196981a2dd79d29bc598e514065b3e76520b05",
        "curve.csv": "a54bd344997d71b2f93f95d1e6f4eabbf969e7fa648b8a17bff36ef166ffb857",
        "report.json": "23c278d958556f58e3ac936f65a5b4120777e94199073110882b182ea11b8450",
        "trials.csv": "30080deed9899bdb48948365c568c0c00ea1cde2fc867ea2813393dd0a114428",
    },
    "pns_trojan_transcript": {
        "audit_N2_000.npz": "ab66f8e54ec6e30ec6d38fb650cfd38e76363edd1e04c7a9ecc2de9a0ad4a111",
        "report.json": "6d0c2d44452e92bb22170349b33ac043c154cb41fe53bd9416c4059c301623b0",
        "transcript_000.npz": "8708513d21a1b9ae02873a945800183471759f5d893127e13ac51d9076d74a0a",
        "trials.csv": "45e225ed9e54d4764e2a372087818792e3020aca27ad92b78c141fb0b4e2c37b",
    },
    "standard_state": {
        "audit_N2_000.npz": "9df4100e5d5ce944167fe850ac9245d97e0523ba562fe32c7982b87ec11de7fb",
        "report.json": "a973c92fe868d1a811a612c8792a99c9605c58b1b781d65c2ea9597e1a816e15",
        "trials.csv": "8e99a97113e5e41001a0dc4c9f01e6f3c5eb477022ba20cf80aa0511849faee8",
    },
    "simple_trojan": {
        "audit_N2_000.npz": "f0cfa1601055d6b4a3b829399c3dae410ec1af7fd1d64577a257d64dbd139b1f",
        "report.json": "2ccb9623f4abeda9a62148e78d20d55d67ad7ded0b1dbf1291c5ed0d41cbd7ea",
        "trials.csv": "e82659f77fbe5ac4a56077845b041fc71847e52b971f3391169482413c660d19",
    },
    "passive_pns_sweep": {
        "audit_N2_000.npz": "372b97a9083a0a9e1a3d3f612f7746d4816663e2b94c042fa436fa06a308007b",
        "audit_N2_001.npz": "3f9cc54550cddca951a5a52f96c1c5c22924310d69657b707cff9c3f995d7cf7",
        "audit_N3_000.npz": "a90f67e12f4b1ce3c25ece11bca2a4db6549cf61cbe9de1aed0ed04e8830c38d",
        "audit_N3_001.npz": "364394b3235de0c484670a02300fc6a6413eacda65746854f07ed0e4c4b98542",
        "curve.csv": "b00c733c8234ab9532af4f66d38aa3d502e7cff37029fe089e33e425fd27c795",
        "report.json": "fad3dfd36f3957d3fa29607e20fb6458405f2a56b23dd3185067fc480186e736",
        "trials.csv": "617aa09331e84b7e1f409885875203c3dceb06d5c7708473bd1c7cf8af99fcc8",
    },
    "pns_trojan_high_mu": {
        "audit_N2_000.npz": "a67a18da81881569f8376bde21959f897afc9862b3190cd6ae5dacd7e7cc5c25",
        "report.json": "563c4771b7f4a78bb28e168598609ea5538d924871a4465ce2e7debb3bdaec1a",
        "transcript_000.npz": "3dcbd7a8ad978362c9f9290eec59c1c53fd0662bd5c35e23e106cea62e70970c",
        "trials.csv": "011a4326380e362b0a34e051d299d1ee7fae179b7b5b5efc178a85459bb12f62",
    },
    "pulse_beamsplit_high_mu": {
        "audit_N3_000.npz": "d4332ac0f7975789fac3e3d5828d5542d3ddb7669e69ab7413aab7722de93250",
        "report.json": "66d4838a8ae6ec599711011c16adc6989515d57839371f3a0988a2064cf226af",
        "trials.csv": "e2e334516f0daafab8d09b1c8ad8544462c5a0cf041372f2eb382d69f23d409d",
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
