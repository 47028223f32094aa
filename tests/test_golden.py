"""Golden byte-identity check of every file the CLI writes.

Ten in-process runs of `cli.main` at 2000 rounds cover every strategy
in a mode it accepts, channel loss, several trials, impersonation guess
weights, a config file that sets ``theta_oracle``, two N sweeps,
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
CONFIG_FILES = {"standard_state_oracle": {"theta_oracle": True}}

GOLDEN = {
    "honest_transcript": {
        "audit_N2_000.npz": "c270cd6f8e31355e68c406d578dc055eb32e24b1bda5dd9d72ecdfaeff2c0ce5",
        "report.json": "a242ed8ad954a1825dc21f20856d13bba40a1b63dfcc2b84557b2b57264438e5",
        "transcript_000.npz": "77c0d62e89c3bd7be3d143987338d7f1b02b3659cb7fb6b5d2e84491bc8a0d18",
        "trials.csv": "409c09f48656b38bb8ccc7f9b140528482829363cc2e56863064ea2644912818",
    },
    "honest_pulse_lossy": {
        "audit_N5_000.npz": "bce78e5839b06aeade86a9895bdbbae15c33fe6e8b0d3082ee9cfa9f6d066bb8",
        "audit_N5_001.npz": "13db5bbb05f76634d6081dc25786ac5a838d247d718107338e6a7a75f3c932f3",
        "report.json": "739f9f66e11c06940b1ead027e1063ba0d660f8cc799305ee68facc935bf2084",
        "trials.csv": "a1f4c545a6ac6a0108fb4d632edece89d326575b43a8fc2798c9822668be35e0",
    },
    "impersonation_weights": {
        "audit_N3_000.npz": "f454a25a8a2d8fee7d3b5e0610d74bf6380b9db640cd19fdd5c68602b42532c7",
        "audit_N3_001.npz": "4d79b1b9842e885a225ebcfa59e942f038283b4f5572168d9723c8091dcf5e94",
        "audit_N3_002.npz": "de3b8bc5bc78a0afa7388c8150282ff021db80e0476517b04eb4291dc34d923c",
        "report.json": "319b7cdf29b3ca8f72594dd0205f381fa221e852ba3544454c76487021486d32",
        "trials.csv": "9d2c8c62a3549c9292964ac5270f141b3b19800c50f0469fa27088bc7350bde8",
    },
    "pulse_beamsplit_sweep": {
        "audit_N2_000.npz": "5d93895e5a9bcc5aa478cb9884fbcf47a345dd8dd63c50fdf18907d2b15696ab",
        "audit_N3_000.npz": "fe670a85d94ed207b57c126264d4a439df475ed525e15a99772b5b6937c83ade",
        "audit_N5_000.npz": "c8d18634de5f3b757d817570cf196981a2dd79d29bc598e514065b3e76520b05",
        "curve.csv": "b7bce4e80dfe3fae79e787f61b99870d3c5e364a50302f8990d87740e622eb7e",
        "report.json": "ab83f112040572c2936da716075000e1d91b0a38a8cb03f6f4a2a36b4189e787",
        "trials.csv": "c27d82e32f0ad9c0c9a685dfe307179e1cae234b61f155921e25ea5eeeeacf1b",
    },
    "pns_trojan_transcript": {
        "audit_N2_000.npz": "ab66f8e54ec6e30ec6d38fb650cfd38e76363edd1e04c7a9ecc2de9a0ad4a111",
        "report.json": "6ecf0d3f64c767ef85ff2c5263fabec7a611c1e43dd36d374f0ad8537a1cb3cb",
        "transcript_000.npz": "8708513d21a1b9ae02873a945800183471759f5d893127e13ac51d9076d74a0a",
        "trials.csv": "4c7d39fd03d0fb24c475927ad2f52373b50acb8ee2db4cb5abb50d452d80c251",
    },
    "standard_state_oracle": {
        "audit_N2_000.npz": "9df4100e5d5ce944167fe850ac9245d97e0523ba562fe32c7982b87ec11de7fb",
        "report.json": "4b35c09d775ec35ab1c36e18d9542a653e097eb3cc94d9d5eb61cb45a4ed5fcf",
        "trials.csv": "ab43692e7012ada4f0f51d5848bc84796a013462b704c10e5d35f52105c87b6d",
    },
    "simple_trojan": {
        "audit_N2_000.npz": "f0cfa1601055d6b4a3b829399c3dae410ec1af7fd1d64577a257d64dbd139b1f",
        "report.json": "3a9a5b5cc5bf885f63ad428362a9f0479dfcc3bdd031b1ea75a5d116840fa49f",
        "trials.csv": "22aea5b2c9f98d3282e7bcc4bc483f6115ff3a4cebd7737e3abd898529d23ed5",
    },
    "passive_pns_sweep": {
        "audit_N2_000.npz": "372b97a9083a0a9e1a3d3f612f7746d4816663e2b94c042fa436fa06a308007b",
        "audit_N2_001.npz": "3f9cc54550cddca951a5a52f96c1c5c22924310d69657b707cff9c3f995d7cf7",
        "audit_N3_000.npz": "a90f67e12f4b1ce3c25ece11bca2a4db6549cf61cbe9de1aed0ed04e8830c38d",
        "audit_N3_001.npz": "364394b3235de0c484670a02300fc6a6413eacda65746854f07ed0e4c4b98542",
        "curve.csv": "f2d1796190adc30a9d325d8f2b8adfdbe2042a80baf8546334548359abc76eec",
        "report.json": "b5fc8ccd8a674b81499964ed1109cb75acbc6ab9218daceebb9027767b84edbe",
        "trials.csv": "1320e059a9126885b48a5d37e19c04698342da948cfed1e368f193414928beb1",
    },
    "pns_trojan_high_mu": {
        "audit_N2_000.npz": "a67a18da81881569f8376bde21959f897afc9862b3190cd6ae5dacd7e7cc5c25",
        "report.json": "f0a15a30e907ee3781bcb914112148a9ed896630f9179a1791b78390845776f9",
        "transcript_000.npz": "3dcbd7a8ad978362c9f9290eec59c1c53fd0662bd5c35e23e106cea62e70970c",
        "trials.csv": "7b6926d4e439797d20ea643400ba7efa98a833783af491a9f7a14f35b3467403",
    },
    "pulse_beamsplit_high_mu": {
        "audit_N3_000.npz": "d4332ac0f7975789fac3e3d5828d5542d3ddb7669e69ab7413aab7722de93250",
        "report.json": "e4a52f80913dab729454eb0f2bdce09a500f26817b58baa41b45a1e453949927",
        "trials.csv": "3b16c5785110012e7e35ff4f7dc8f4956af48d98068f861639bfe109a7fb92a8",
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
