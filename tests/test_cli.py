import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import screenqkd
from screenqkd import analysis, cli, protocol
from screenqkd.adversary import AttackConfig
from screenqkd.analysis import RATES, TrialCounts, run_experiment
from screenqkd.cli import ExperimentConfig, load_config, main
from screenqkd.errors import ConfigError
from screenqkd.protocol import ProtocolParams

BASE = ["--rounds", "2000", "--seed", "7"]


def test_honest_run_exits_zero(capsys, tmp_path):
    code = main(BASE + ["--N", "2", "--attack", "none", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "qber=0.000000" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "trials.csv").exists()


def test_unknown_attack_exits_two(capsys):
    assert main(BASE + ["--attack", "bogus"]) == 2
    assert "attack" in capsys.readouterr().err


def test_bad_parameter_exits_two(capsys):
    assert main(BASE + ["--N", "0"]) == 2
    err = capsys.readouterr().err
    assert "N" in err


def test_incompatible_mode_exits_two(capsys):
    code = main(BASE + ["--attack", "impersonation", "--mode", "pulse"])
    assert code == 2
    assert "impersonation" in capsys.readouterr().err


def test_invalid_config_creates_no_output(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["--N", "-3", "--outdir", str(outdir)])
    assert code == 2
    assert not outdir.exists()


def test_sweep_writes_curve_files(tmp_path, capsys):
    code = main(
        [
            "--sweep-N", "2,3", "--rounds", "4000", "--seed", "9",
            "--mode", "pulse", "--mean-photons", "2.0",
            "--attack", "pulse_beamsplit", "--outdir", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "curve.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["sweep"].keys()) == {"2", "3"}
    assert "curve" not in report
    table = (tmp_path / "trials.csv").read_text().splitlines()
    assert len(table) == 1 + 2  # trials x |N values|


def test_honest_sweep_curve_table_matches_report(tmp_path):
    code = main(
        ["--sweep-N", "2,3", "--rounds", "2000", "--seed", "9",
         "--attack", "none", "--outdir", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == ",".join(["N", *RATES])
    sweep = json.loads((tmp_path / "report.json").read_text())["sweep"]
    points = [{"N": int(n), **point["metrics"]} for n, point in sweep.items()]

    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    columns = lines[0].split(",")
    assert lines[1:] == [",".join(cell(p[c]) for c in columns) for p in points]


@pytest.mark.parametrize("argv", [
    ["--attack", "pns_trojan", "--mode", "pulse", "--trials", "2"],
    ["--sweep-N", "2,3", "--attack", "pulse_beamsplit", "--mode", "pulse"],
])
def test_outputs_render_the_declarations(tmp_path, argv):
    # Each column of trials.csv and curve.csv, and each key of a session
    # block and of the totals, is a TrialCounts counter, a rate of RATES or
    # a session's own field: no output declares a column of its own.
    assert main([*BASE, *argv, "--outdir", str(tmp_path)]) == 0
    counters = [f.name for f in dataclasses.fields(TrialCounts)]
    table = (tmp_path / "trials.csv").read_text().splitlines()
    assert table[0].split(",") == ["trial", "N", "mode", "attack", *counters, "verdict", *RATES]
    doc = json.loads((tmp_path / "report.json").read_text())
    sweep = argv[0] == "--sweep-N"
    points = list(doc["sweep"].values()) if sweep else [doc]
    if sweep:
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0].split(",") == ["N", *RATES]
    for document in (doc, *points):
        assert not {"per_trial", "key_bits", "curve"} & set(document)
    for point in points:
        assert set(point["totals"]) == set(counters)
        for session in point["sessions"]:
            assert set(session) == {*counters, "verdict", "alice_hash", "bob_hash", "audit"}


def test_honest_sweep_asserts_each_report(monkeypatch, capsys):
    real_security_curve = cli.security_curve

    def with_qber_error(*args, **kwargs):
        reports = real_security_curve(*args, **kwargs)
        reports[3].totals.qber_errors = 1
        return reports

    monkeypatch.setattr(cli, "security_curve", with_qber_error)
    code = main(["--sweep-N", "2,3", "--rounds", "2000", "--seed", "9", "--attack", "none"])
    assert code == 1
    assert "N=3: honest run produced nonzero QBER" in capsys.readouterr().err


def test_sweep_checks_every_n_before_any_session(monkeypatch, capsys):
    sessions = []
    real_run_session = analysis.run_session

    def counting_run_session(*args, **kwargs):
        sessions.append(args)
        return real_run_session(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_session", counting_run_session)
    code = main(
        ["--sweep-N", "2,3", "--attack", "impersonation", "--guess-weights", "1,1",
         "--rounds", "2000"]
    )
    assert code == 2
    assert sessions == []
    assert "guess_weights: expected 3 weights, got 2" in capsys.readouterr().err


def test_sweep_rate_law_breach_exits_one(monkeypatch, capsys):
    # every N breaches the law when the sift rate reads 0
    rates = analysis.rates
    monkeypatch.setattr(analysis, "rates", lambda c: {**rates(c), "sift_rate": 0.0})
    code = main(["--sweep-N", "2", "--rounds", "3000", "--seed", "9"])
    assert code == 1
    assert "key-rate law" in capsys.readouterr().err


def test_sweep_rate_law_breach_reports_every_point_and_writes_outputs(
    monkeypatch, capsys, tmp_path
):
    # A breached law is a failed check, like a failed honest-run check: every
    # point's summary is printed and the outputs are written before exit 1.
    rates = analysis.rates
    monkeypatch.setattr(analysis, "rates", lambda c: {**rates(c), "sift_rate": 0.0})
    code = main(["--sweep-N", "2,3", "--rounds", "3000", "--seed", "9",
                 "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert [line.split(": sift_rate")[0] for line in err.splitlines()] == [
        "assertion failed: key-rate law violated at N=2",
        "assertion failed: key-rate law violated at N=3",
    ]
    assert "[N=2] rounds=3000" in out and "[N=3] rounds=3000" in out
    assert (tmp_path / "report.json").exists() and (tmp_path / "curve.csv").exists()


def test_flags_override_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 1, "rounds": 1000, "n": 3}))
    out1 = tmp_path / "o1"
    code = main(["--config", str(config_path), "--seed", "5", "--outdir", str(out1)])
    assert code == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["seed"] == 5
    assert report["config"]["n"] == 3
    assert report["config"]["rounds"] == 1000


def test_loss_flag_matches_config_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"loss": 0.1}))
    flag, key = tmp_path / "flag", tmp_path / "key"
    assert main(BASE + ["--loss", "0.1", "--outdir", str(flag)]) == 0
    assert main(BASE + ["--config", str(config_path), "--outdir", str(key)]) == 0
    report = (flag / "report.json").read_bytes()
    assert report == (key / "report.json").read_bytes()
    assert json.loads(report)["config"]["loss"] == 0.1


def test_unknown_config_field_rejected(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"rounds": 100, "typo_field": 1}))
    assert main(["--config", str(config_path)]) == 2


def test_outdir_env_var_used(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCREENQKD_OUTDIR", str(tmp_path / "env_out"))
    code = main(BASE + ["--N", "2"])
    assert code == 0
    assert (tmp_path / "env_out" / "report.json").exists()


def test_cli_matches_library(tmp_path):
    # the CLI is a thin shell: identical seeds give identical results
    code = main(
        ["--N", "2", "--rounds", "3000", "--seed", "11", "--mode", "pulse",
         "--mean-photons", "2.0", "--attack", "pns_trojan",
         "--outdir", str(tmp_path)]
    )
    assert code == 0
    cli_report = json.loads((tmp_path / "report.json").read_text())
    params = ProtocolParams(
        n_screening=2, rounds=3000, seed=11, mode="pulse", mean_photons=2.0,
        p_analyzing=0.2, transmission=0.9,
    )
    lib_report = run_experiment(params, AttackConfig(strategy="pns_trojan"))
    assert cli_report["metrics"] == json.loads(
        json.dumps(lib_report.to_dict({})["metrics"])
    )
    assert cli_report["totals"] == lib_report.to_dict({})["totals"]


def test_negative_exponent_flag_value_matches_equals_form(tmp_path, capsys):
    argv = BASE + ["--attack", "simple_trojan", "--mode", "pulse", "--loss", "0.1"]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(argv + ["--trojan-angle", "-1e20", "--outdir", str(spaced)]) == 0
    assert main(argv + ["--trojan-angle=-1e20", "--outdir", str(joined)]) == 0
    report = (spaced / "report.json").read_bytes()
    assert report == (joined / "report.json").read_bytes()
    assert json.loads(report)["config"]["trojan_angle"] == -1e20


def test_load_config_validates():
    class Args:
        config = None

    args = Args()
    for field in (
        "n", "sweep_n", "rounds", "p_analyzing", "transmission", "mode",
        "mean_photons", "loss", "trials", "seed", "attack", "trojan_angle",
        "attack_probability", "outdir", "emit_transcript",
    ):
        setattr(args, field, None)
    args.trials = 0
    with pytest.raises(ConfigError):
        load_config(args)


def test_default_config_is_valid():
    config = ExperimentConfig()
    config.validate()
    assert config.params.n_screening == 2
    assert config.attack.strategy == "none"


# (JSON config, raw config bytes or None, flags): each is invalid input that
# must be reported as one "error:" line with exit 2 before any output exists.
INVALID_INPUTS = {
    "rounds-string": ({"rounds": "100"}, []),
    "rounds-fraction": ({"rounds": 10.5}, []),
    "config-not-object": ([2, 3], []),
    "mean-photons-inf": (None, ["--mode", "pulse", "--mean-photons", "inf"]),
    "mean-photons-huge": (None, ["--mode", "pulse", "--mean-photons", "1e19"]),
    "trojan-angle-nan": (None, ["--attack", "simple_trojan", "--trojan-angle", "nan"]),
    # negative numbers that argparse alone would read as options
    "trojan-angle-minus-inf": (None, ["--attack", "simple_trojan", "--trojan-angle", "-inf"]),
    "p-analyzing-negative-exponent": (None, ["--p-analyzing", "-1e-3"]),
    "loss-negative-exponent": (None, ["--loss", "-1e-3"]),
    # both invalid: the one line names the first field checked
    "loss-and-attack": (None, ["--loss", "2", "--attack", "bogus"]),
    "sweep-negative-n": (None, ["--sweep-N", "-1,2"]),
    # sweep lists only security_curve checks, before its first session
    "sweep-decreasing": (None, ["--sweep-N", "3,2"]),
    "sweep-empty": (None, ["--sweep-N", ","]),
    "sweep-n-string": ({"sweep_n": [2, "3"]}, []),
    "sweep-n-fraction": ({"sweep_n": [2, 2.5]}, []),
    "guess-weights-negative-exponent": (None, ["--attack", "impersonation",
                                               "--guess-weights", "-1e-3,1"]),
    "sweep-with-transcript": (None, ["--sweep-N", "2,3", "--emit-transcript"]),
    "transcript-without-outdir": (None, ["--emit-transcript"]),
    "sweep-mode-mismatch": (None, ["--sweep-N", "2,3", "--attack", "impersonation",
                                   "--mode", "pulse"]),
    "sweep-guess-weights-length": (None, ["--sweep-N", "2,3", "--attack", "impersonation",
                                          "--guess-weights", "1,1"]),
    "guess-weights-sum-overflow": (None, ["--attack", "impersonation",
                                          "--guess-weights", "1e308,1e308"]),
    "guess-weights-empty": (None, ["--attack", "impersonation", "--guess-weights", ""]),
    # the options of earlier versions, in a config file and as flags
    "digest-config-key": ({"digest": "sha256"}, []),
    "theta-oracle-config-key": ({"theta_oracle": True}, []),
    "rate-law-epsilon-config-key": ({"rate_law_epsilon": 0.1}, []),
    "digest-flag": (None, ["--digest", "sha256"]),
    "rate-law-epsilon-flag": (None, ["--rate-law-epsilon", "0.1"]),
    "eve-tap-fraction-config-key": ({"eve_tap_fraction": 1.0}, []),
    "eve-tap-fraction-flag": (None, ["--eve-tap-fraction", "1"]),
    "trojan-angle-other-strategy": (None, ["--attack", "standard_state",
                                           "--trojan-angle", "0.7"]),
    "int-too-large-for-float": ({"attack": "simple_trojan", "trojan_angle": 10**400}, []),
    # raw config bytes that json.load rejects with a ValueError of its own
    "int-over-digit-limit": (b'{"rounds": 1' + b"0" * 5000 + b"}", []),
    "config-not-utf8": (b'\xff{"rounds": 10}', []),
    # argparse's own type and unknown-flag errors, raised inside parse_args
    "rounds-exponent": (None, ["--rounds", "1e3"]),
    "rounds-negative-exponent": (None, ["--rounds=-1e3"]),
    "n-word": (None, ["--N", "two"]),
    "unknown-flag": (None, ["--bogus"]),
    # one past MAX_ROUNDS, the most rounds an int32 photon owner can name
    "rounds-over-cap": (None, ["--rounds", "2147483648"]),
    # one past MAX_SCREENING, whose angles are built before the first round
    "n-over-cap": (None, ["--N", "1048577"]),
    "sweep-n-over-cap": (None, ["--sweep-N", "2,1048577"]),
    # seeds outside [0, 2^64 - 1], which the generator would alias
    "seed-negative": (None, ["--seed", "-5"]),
    "seed-over-cap": (None, ["--seed", "18446744073709551616"]),
    # a path the operating system cannot take; only a config file can hold it
    "outdir-nul-byte": ({"outdir": "out\u0000dir"}, []),
    # an empty path, which would name the working directory
    "outdir-empty-flag": (None, ["--outdir", ""]),
    "outdir-empty-config": ({"outdir": ""}, []),
}
# Cases run without --outdir; no case sees $SCREENQKD_OUTDIR.
NO_OUTDIR = {"transcript-without-outdir", "outdir-nul-byte", "outdir-empty-flag",
             "outdir-empty-config"}


def _invalid_argv(case: str, tmp_path: Path) -> tuple[list[str], Path]:
    """The flags of an `INVALID_INPUTS` case (its config file written under
    `tmp_path`), and the outdir the run must not create."""
    config, argv = INVALID_INPUTS[case]
    if config is None:
        argv = ["--rounds", "200", *argv]
    else:
        config_path = tmp_path / "config.json"
        raw = config if isinstance(config, bytes) else json.dumps(config).encode()
        config_path.write_bytes(raw)
        argv = ["--config", str(config_path), *argv]
    outdir = tmp_path / "out"
    if case not in NO_OUTDIR:
        argv = [*argv, "--outdir", str(outdir)]
    return argv, outdir


def _assert_rejected(code: int, stderr: str, outdir: Path) -> None:
    assert code == 2, stderr
    assert "Traceback" not in stderr
    assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
    assert not outdir.exists()


@pytest.mark.parametrize("case", INVALID_INPUTS)
def test_invalid_input_exits_two_without_traceback(tmp_path, monkeypatch, capsys, case):
    # In process: argparse's SystemExit is the exit code, and any other
    # exception escaping main fails the test, as a traceback would.
    argv, outdir = _invalid_argv(case, tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _assert_rejected(code, capsys.readouterr().err, outdir)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("case", ["unknown-flag", "rounds-string"])
def test_invalid_input_exits_two_from_the_interpreter(tmp_path, case):
    # `python -m screenqkd.cli`, so the interpreter's own exit path is
    # covered too: an argparse error and a configuration error.
    argv, outdir = _invalid_argv(case, tmp_path)
    src = str(Path(screenqkd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(cli.OUTDIR_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-m", "screenqkd.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    _assert_rejected(proc.returncode, proc.stderr, outdir)


@pytest.mark.parametrize("argv,mode", [
    ([], "single"),
    (["--mode", "pulse", "--mean-photons", "2"], "pulse"),
    (["--sweep-N", "2,3"], "single"),
])
def test_out_of_memory_exits_one_in_one_line(tmp_path, monkeypatch, capsys, argv, mode):
    # A kernel that runs out of memory, simulated: nothing is allocated.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(protocol, "measure", exhausted)
    outdir = tmp_path / "out"
    assert main(["--rounds", "300", *argv, "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        f"error: out of memory running 300 rounds per session in {mode} mode\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
def test_outdir_that_cannot_be_a_directory_exits_two_before_any_session(
    tmp_path, monkeypatch, capsys, under
):
    sessions = []
    real_run_session = analysis.run_session

    def counting_run_session(*args, **kwargs):
        sessions.append(args)
        return real_run_session(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_session", counting_run_session)
    blocker = tmp_path / "F"
    blocker.write_text("not a directory")
    outdir = blocker / "sub" / "dir" if under else blocker
    code = main(["--rounds", "100", "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert sessions == []
    assert err == f"error: outdir: {blocker} exists and is not a directory\n"
    assert blocker.read_text() == "not a directory"
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_reused_outdir_keeps_only_this_runs_session_files(tmp_path, capsys):
    # An earlier run's audits, transcripts and sweep curve, and a transcript
    # of the old line-delimited format, are removed when this run does not
    # write them; files that are not the program's are left alone.
    argv = BASE + ["--emit-transcript", "--trials", "1"]
    fresh = tmp_path / "fresh"
    assert main(argv + ["--outdir", str(fresh)]) == 0
    for i, earlier in enumerate((
        ["--emit-transcript", "--trials", "3"],
        ["--sweep-N", "2,3", "--trials", "2"],
    )):
        outdir = tmp_path / f"out{i}"
        assert main(BASE + earlier + ["--outdir", str(outdir)]) == 0
        (outdir / "transcript_004.jsonl").write_text("{}\n")
        (outdir / "notes.txt").write_text("kept")
        assert main(argv + ["--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "audit_N2_000.npz", "notes.txt", "report.json", "transcript_000.npz", "trials.csv",
        ]
        for path in fresh.iterdir():
            assert (outdir / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("blocked,argv", [
    ("transcript_000.npz", ["--emit-transcript"]),
    ("curve.csv", ["--sweep-N", "2,3"]),
])
def test_every_failed_write_reports_the_outdir(tmp_path, capsys, blocked, argv):
    # A directory where the run would write a file: the write fails late,
    # after report.json, and is still reported with the report's context.
    outdir = tmp_path / "out"
    (outdir / blocked).mkdir(parents=True)
    assert main(BASE + argv + ["--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: failed writing report under {outdir}: ")
    assert blocked in err[0]
