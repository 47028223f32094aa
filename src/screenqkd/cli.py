"""Experiment runner CLI.

A thin shell over the library: every run reachable here is reachable via
:func:`screenqkd.analysis.run_experiment` with identical results for
identical seeds. Configuration comes from an optional JSON file plus
flags; flags always win. Exit codes: 0 run complete and all enabled
assertions passed, 1 assertion failure, a failed write or a run out of
memory, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .adversary import STRATEGIES, STRATEGY_NONE, AttackConfig
from .analysis import (
    ExperimentReport,
    emit_report,
    output_files,
    run_experiment,
    security_curve,
)
from .errors import ConfigError
from .protocol import MODE_PULSE, MODE_SINGLE, ProtocolParams

OUTDIR_ENV = "SCREENQKD_OUTDIR"


# The two config keys (and flags) named differently from the library
# fields they set: field name -> config key.
RENAMED = {"n_screening": "n", "strategy": "attack"}


def _keys(cls: type, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """Config key -> field name, for the fields of `cls` not in `skip`."""
    return {
        RENAMED.get(f.name, f.name): f.name
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }


@dataclass
class ExperimentConfig:
    """Everything one run needs; validated before any session starts."""

    params: ProtocolParams = field(default_factory=ProtocolParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    sweep_n: Optional[list[int]] = None
    trials: int = 1
    outdir: Optional[str] = None
    emit_transcript: bool = False

    def validate(self) -> None:
        """Check what no library function checks: that ``sweep_n`` is a list,
        the transcript switch, the output directory, and that transcripts
        come from single-point runs only. The library types check the
        parameters and the strategy, `security_curve` and `run_experiment`
        check each N and the strategy there before their first session, and
        `run_experiment` checks the trial count."""
        if self.sweep_n is not None and not isinstance(self.sweep_n, list):
            raise ConfigError(f"sweep-N: must be a list of integers, got {self.sweep_n!r}")
        if not isinstance(self.emit_transcript, bool):
            raise ConfigError(
                f"emit-transcript: must be true or false, got {self.emit_transcript!r}"
            )
        if self.sweep_n and self.emit_transcript:
            raise ConfigError("emit-transcript: single-point runs only, not with sweep-N")
        if self.outdir is not None and not isinstance(self.outdir, str):
            raise ConfigError(f"outdir: must be a path string, got {self.outdir!r}")
        if self.outdir == "":
            # Path("") is the working directory, whose stale files a run removes
            raise ConfigError("outdir: must not be empty")
        outdir = self.resolve_outdir()
        if self.emit_transcript and outdir is None:
            raise ConfigError(
                f"emit-transcript: needs an output directory (--outdir or ${OUTDIR_ENV})"
            )
        if outdir is not None:
            if "\0" in str(outdir):
                raise ConfigError("outdir: must not contain a NUL byte")
            # the nearest existing ancestor must be a directory to create it in
            ancestor = next(p for p in (outdir, *outdir.parents) if os.path.exists(p))
            if not os.path.isdir(ancestor):
                raise ConfigError(f"outdir: {ancestor} exists and is not a directory")

    def echo(self) -> dict:
        # output-destination fields do not describe the experiment and would
        # break byte-identity of re-runs landing in different directories
        return {
            key: getattr(part, name)
            for part, keys in (
                (self.params, PARAM_KEYS), (self.attack, ATTACK_KEYS), (self, RUN_KEYS)
            )
            for key, name in keys.items()
            if key not in ("outdir", "emit_transcript")
        }

    def resolve_outdir(self) -> Optional[Path]:
        if self.outdir is not None:
            return Path(self.outdir)
        env = os.environ.get(OUTDIR_ENV)
        return Path(env) if env else None


PARAM_KEYS = _keys(ProtocolParams)
ATTACK_KEYS = _keys(AttackConfig)
RUN_KEYS = _keys(ExperimentConfig, skip=("params", "attack"))


def _number_list(text: str, kind: type = float) -> list:
    """The comma-separated values of `text` as `kind` reads them, empty parts
    skipped; a usage error if any other part is not one."""
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every number as a flag value and
    reports a usage error in one line.

    argparse reads a token that starts with "-" as an option unless it is
    a plain negative decimal, so ``--trojan-angle -1e20`` or
    ``--p-analyzing -inf`` would end in a usage error. Here such a token
    is a value, as it already is in ``--trojan-angle=-1e20``.
    """

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-"):
            with contextlib.suppress(argparse.ArgumentTypeError):
                _number_list(arg_string)
                return None  # a number, or numbers, is a value, not an option
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="screenqkd",
        description="Run screening-angle QKD sessions and report attack statistics.",
    )
    parser.add_argument("--config", type=str, help="JSON config file; flags override it")
    parser.add_argument("--N", dest="n", type=int, help="screening-set size")
    parser.add_argument(
        "--sweep-N", dest="sweep_n", type=lambda text: _number_list(text, int),
        help="comma-separated N values; runs a security curve sweep",
    )
    parser.add_argument("--rounds", type=int, help="rounds per session")
    parser.add_argument("--p-analyzing", dest="p_analyzing", type=float,
                        help="probability Bob uses an analyzing angle")
    parser.add_argument("--transmission", type=float,
                        help="AD transmission coefficient t (tap fraction is 1-t)")
    parser.add_argument("--mode", choices=(MODE_SINGLE, MODE_PULSE),
                        help="single-photon or Poissonian pulse source")
    parser.add_argument("--mean-photons", dest="mean_photons", type=float,
                        help="mean photon number in pulse mode")
    parser.add_argument("--loss", type=float, help="per-photon channel loss probability")
    parser.add_argument("--trials", type=int, help="independent sessions to run")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--attack", type=str, help=f"one of {', '.join(STRATEGIES)}")
    parser.add_argument("--trojan-angle", dest="trojan_angle", type=float,
                        help="probe polarization for the simple Trojan attack")
    parser.add_argument("--attack-probability", dest="attack_probability", type=float,
                        help="per-round probability the strategy acts at all")
    parser.add_argument("--guess-weights", dest="guess_weights", type=_number_list,
                        help="impersonation basis-guess weights over the screening set "
                             "(comma-separated; default uniform)")
    parser.add_argument("--outdir", type=str,
                        help=f"report directory (default: ${OUTDIR_ENV} if set)")
    parser.add_argument("--emit-transcript", action="store_true", default=None,
                        help="also write each session's per-round columns "
                             "(one .npz per session; single-point runs only)")
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as handle:
                values = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        except ValueError as exc:  # bad JSON, bad UTF-8, or an int with too many digits
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from None
        if not isinstance(values, dict):
            raise ConfigError(f"config: {args.config} must hold a JSON object")
    known = {**PARAM_KEYS, **ATTACK_KEYS, **RUN_KEYS}
    for key in values:
        if key not in known:
            raise ConfigError(f"config: unknown field {key!r}")
    for key in known:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)

    def pick(keys: dict[str, str]) -> dict:
        return {name: values[key] for key, name in keys.items() if key in values}

    config = ExperimentConfig(
        ProtocolParams(**pick(PARAM_KEYS)),
        AttackConfig(**pick(ATTACK_KEYS)),
        **pick(RUN_KEYS),
    )
    config.validate()
    return config


def _print_summary(label: str, report: ExperimentReport) -> None:
    def fmt(x: Optional[float]) -> str:
        return "absent" if x is None else f"{x:.6f}"

    m = report.metrics
    print(f"[{label}] rounds={report.totals.rounds} trials={len(report.sessions)}")
    print(f"  sift_rate={m['sift_rate']:.6f}  sifted_bits={report.totals.sifted_bits}")
    print(f"  qber={fmt(m['qber'])}")
    print(
        f"  ad_clicks={report.totals.ad_clicks}"
        f"  ad_violation_rate={fmt(m['ad_violation_rate'])}"
        f"  injected={fmt(m['ad_violation_rate_injected'])}"
    )
    print(
        f"  eve_guesses={report.totals.eve_guesses}"
        f"  eve_accuracy={fmt(m['eve_accuracy'])}"
        f"  key_accuracy={fmt(m['eve_key_accuracy'])}"
    )
    if m["conclusive_rate"] is not None:
        print(f"  conclusive_rate={m['conclusive_rate']:.6f}")
    print(f"  verdicts={report.verdicts}")


def _honest_assertions(report: ExperimentReport) -> list[str]:
    failures = []
    qber = report.metrics["qber"]
    if qber not in (None, 0.0):
        failures.append(f"honest run produced nonzero QBER: {qber}")
    if report.totals.ad_violations:
        failures.append(
            f"honest run produced {report.totals.ad_violations} AD integrity violations"
        )
    bad = {k: v for k, v in report.verdicts.items() if k != "accepted" and v}
    if bad:
        failures.append(f"honest run produced non-accepted verdicts: {bad}")
    return failures


def _rate_law_assertions(n: int, report: ExperimentReport) -> list[str]:
    """The key-rate law: sift_rate * N = 1 within the 3-sigma binomial bound
    for the report's round count."""
    eps = 3.0 * math.sqrt(max(n - 1, 1) / report.totals.rounds)
    scaled = report.metrics["sift_rate"] * n
    if abs(scaled - 1.0) <= eps:
        return []
    return [
        f"key-rate law violated at N={n}: sift_rate*N={scaled:.4f} outside 1 +/- {eps:.4f}"
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = config.resolve_outdir()
    params, attack, sweep = config.params, config.attack, config.sweep_n is not None
    try:
        if sweep:
            reports = security_curve(params, attack, config.sweep_n, trials=config.trials)
        else:
            reports = {params.n_screening: run_experiment(
                params, attack,
                trials=config.trials, keep_transcripts=config.emit_transcript,
            )}
        failures: list[str] = []
        for n, report in reports.items():
            label = f"N={n}" if sweep else f"N={n} attack={attack.strategy}"
            _print_summary(label, report)
            if sweep:
                failures += _rate_law_assertions(n, report)
            if attack.strategy == STRATEGY_NONE:
                prefix = f"{label}: " if sweep else ""
                failures += [prefix + f for f in _honest_assertions(report)]
        if outdir is not None:
            emit_report(outdir, output_files(config.echo(), reports))
            print(f"wrote {outdir / 'report.json'} and {outdir / 'trials.csv'}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(
            f"error: out of memory running {params.rounds} rounds per session "
            f"in {params.mode} mode",
            file=sys.stderr,
        )
        return 1

    for failure in failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
