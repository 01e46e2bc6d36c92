"""Command-line interface.

Subcommands: ``fidelity``, ``check-ur``, ``sweep``, ``region``, ``sample``.
Machine-readable output (JSON, CSV) goes to stdout; progress goes to
stderr. Human-readable numbers carry 12 significant digits; serialized
floats use the shortest round-trip representation, so output is
byte-deterministic for fixed flags and seed.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage or input
error, 3 uncertainty-relation violation finding.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .config import TOL
from .domains import DomainSpec, region_csv_text, region_filename, region_samples
from .errors import FidurError, ValidationError
from .fidelity import fidelity
from .metrics import MetricKind, f_of, metric_kind
from .states import (
    ProjectiveObservable,
    sample_mixed,
    sample_observable,
    sample_pure,
    state_from_payload,
)
from .sweep import SweepConfig, run_sweep
from .uncertainty import check_ur

__all__ = [
    "main",
    "cmd_fidelity",
    "cmd_check_ur",
    "cmd_sweep",
    "cmd_region",
    "cmd_sample",
]

_KIND_NAMES = [k.value for k in MetricKind]

# Float options whose value may be negative. argparse reads a separate word
# such as "-inf" or "-1e-9" as an option name, so ``main`` joins it to its
# option ("--overlap=-inf") and the value reaches the program's own checks.
_FLOAT_OPTIONS = ("--overlap", "--tolerance")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def cmd_fidelity(file_rho: str, file_sigma: str) -> int:
    """Print F and the three metric distances for two state fixtures."""
    rho = state_from_payload(_load_payload(file_rho))
    sigma = state_from_payload(_load_payload(file_sigma))
    f = fidelity(rho, sigma)
    print(f"F = {_fmt(f)}")
    for kind in MetricKind:
        print(f"{kind.value} = {_fmt(f_of(kind, f))}")
    return 0


def cmd_check_ur(
    file_rho: str,
    file_a: str,
    file_b: str,
    kind: MetricKind,
    tolerance: float = TOL.ur_slack,
) -> int:
    """Print one URReport as JSON; exit 3 when the slack is a violation."""
    if math.isnan(tolerance):
        raise ValidationError("tolerance must not be nan")
    rho = state_from_payload(_load_payload(file_rho))
    a = ProjectiveObservable.from_payload(_load_payload(file_a))
    b = ProjectiveObservable.from_payload(_load_payload(file_b))
    report = check_ur(kind, a, b, rho)
    print(report.to_json())
    return 3 if report.slack < -tolerance else 0


def cmd_sweep(config: SweepConfig) -> int:
    """Run a verification sweep; JSON result to stdout, progress to stderr."""
    result = run_sweep(config, progress=lambda msg: print(msg, file=sys.stderr))
    print(result.to_json())
    return 3 if result.violations else 0


def cmd_region(
    kind: MetricKind,
    c: float,
    dim: int,
    n_points: int,
    out_path: str | None = None,
) -> int:
    """Write one boundary CSV and print its path."""
    spec = DomainSpec(kind=kind, overlap_c=c, dim=dim)
    samples = region_samples(spec, n_points)
    path = Path(out_path) if out_path else Path(region_filename(kind, c))
    try:
        path.write_text(region_csv_text(samples), encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    print(str(path))
    return 0


def cmd_sample(
    what: str,
    dim: int,
    aux_dim: int | None,
    seed: int,
    out_path: str | None = None,
) -> int:
    """Write a sampled state or observable fixture as JSON."""
    if what != "mixed" and aux_dim is not None:
        raise ValidationError("--aux-dim only applies to mixed states")
    if what == "pure":
        payload = sample_pure(dim, seed).to_payload()
    elif what == "mixed":
        if aux_dim is None:
            raise ValidationError("sampling a mixed state requires --aux-dim")
        if aux_dim < 1:
            raise ValidationError("--aux-dim must be at least 1")
        payload = sample_mixed(dim, aux_dim, seed).to_payload()
    elif what == "observable":
        payload = sample_observable(dim, seed).to_payload()
    else:
        raise ValidationError(f"unknown sample target {what!r}")
    text = json.dumps(payload, sort_keys=True)
    if out_path:
        try:
            Path(out_path).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {out_path}: {exc}") from exc
        print(out_path)
    else:
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidur",
        description="Fidelity-based metrics and maximum-probability uncertainty relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fid = sub.add_parser("fidelity", help="fidelity and metric distances between two states")
    p_fid.add_argument("rho", help="JSON state fixture (density-matrix or pure-state)")
    p_fid.add_argument("sigma", help="JSON state fixture")

    p_chk = sub.add_parser("check-ur", help="evaluate one uncertainty-relation instance")
    p_chk.add_argument("rho", help="JSON state fixture")
    p_chk.add_argument("a", help="JSON observable fixture")
    p_chk.add_argument("b", help="JSON observable fixture")
    p_chk.add_argument("--metric", required=True, choices=_KIND_NAMES)
    p_chk.add_argument("--tolerance", type=float, default=TOL.ur_slack)

    p_swp = sub.add_parser("sweep", help="seeded Monte Carlo verification sweep")
    p_swp.add_argument("--dim", type=int, action="append", help="repeatable")
    p_swp.add_argument("--trials", type=int, help="trials per dimension")
    p_swp.add_argument("--seed", type=int)
    p_swp.add_argument("--metric", action="append", choices=_KIND_NAMES, help="repeatable")
    p_swp.add_argument("--mixedness", choices=["pure", "mixed", "both"])
    p_swp.add_argument("--tolerance", type=float, default=None)
    p_swp.add_argument("--config", help="JSON file holding the whole sweep config")

    p_reg = sub.add_parser("region", help="export one feasibility boundary as CSV")
    p_reg.add_argument("--metric", required=True, choices=_KIND_NAMES)
    p_reg.add_argument("--overlap", type=float, required=True)
    p_reg.add_argument("--dim", type=int, required=True)
    p_reg.add_argument("--points", type=int, required=True)
    p_reg.add_argument("--out", help="output path (default: region_<kind>_<c>.csv)")

    p_smp = sub.add_parser("sample", help="write a random state/observable fixture")
    p_smp.add_argument("what", choices=["pure", "mixed", "observable"])
    p_smp.add_argument("--dim", type=int, required=True)
    p_smp.add_argument("--aux-dim", type=int, default=None)
    p_smp.add_argument("--seed", type=int, required=True)
    p_smp.add_argument("--out", help="output path (default: stdout)")

    return parser


def _sweep_config_from_args(parser: argparse.ArgumentParser, args) -> SweepConfig:
    flags = (
        ("--dim", args.dim),
        ("--trials", args.trials),
        ("--seed", args.seed),
        ("--metric", args.metric),
        ("--mixedness", args.mixedness),
    )
    if args.config is not None:
        for flag, value in flags:
            if value is not None:
                parser.error(f"{flag} cannot be combined with --config")
        config = SweepConfig.from_payload(_load_payload(args.config))
        if args.tolerance is not None:
            config = dataclasses.replace(config, tolerance=args.tolerance)
        return config
    for flag, value in flags:
        if value is None:
            parser.error(f"{flag} is required (or use --config)")
    return SweepConfig(
        dims=tuple(args.dim),
        trials_per_dim=args.trials,
        seed=args.seed,
        kinds=tuple(metric_kind(m) for m in args.metric),
        mixedness=args.mixedness,
        tolerance=args.tolerance if args.tolerance is not None else TOL.ur_slack,
    )


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    joined = []
    for word in argv:
        if joined and joined[-1] in _FLOAT_OPTIONS and word.startswith("-") and _is_number(word):
            joined[-1] = f"{joined[-1]}={word}"
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        code = _run(parser, args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    except (FidurError, MemoryError) as exc:  # MemoryError: a size the machine cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull, so that the final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "fidelity":
        return cmd_fidelity(args.rho, args.sigma)
    if args.command == "check-ur":
        return cmd_check_ur(args.rho, args.a, args.b, metric_kind(args.metric), args.tolerance)
    if args.command == "sweep":
        return cmd_sweep(_sweep_config_from_args(parser, args))
    if args.command == "region":
        return cmd_region(metric_kind(args.metric), args.overlap, args.dim, args.points, args.out)
    # The subparsers are required and fixed, so what is left is "sample".
    return cmd_sample(args.what, args.dim, args.aux_dim, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
