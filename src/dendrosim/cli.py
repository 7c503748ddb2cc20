"""Command-line front end: run, sweep, check, and render subcommands.

Exit codes: 0 success, 1 runtime failure (blow-up, I/O, bad snapshot),
2 usage or config error.  The handlers raise; main alone turns ConfigError
into 2 and OSError, MemoryError (a grid too large to allocate) or
SnapshotFormatError into 1.
"""

from __future__ import annotations

import argparse
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .io import (
    DIAGNOSTICS_FIELDS,
    ConfigError,
    SnapshotFormatError,
    csv_row,
    format_config,
    params_from_dict,
    parse_config_text,
    parse_value,
    read_snapshot,
    write_diagnostics_csv,
    write_field_csv,
    write_manifest,
    write_pgm,
    write_snapshot,
)
from .solver import BlowupError, SimParams, run, stability_check

# Named experiment bundles.  paper-s3 is the stock parameter set; paper-s6
# switches to six-fold anisotropy with the coarser time step (500 steps reach
# the same elapsed time 0.1); desk is a smaller grid sized for quick studies.
PRESETS = {
    "paper-s3": {},
    "paper-s6": {"dt": 2e-4, "j_mode": 6, "total_steps": 500},
    "desk": {"nx": 300, "ny": 300, "total_steps": 1500},
}

# a sweep summary row is a run's final morphology: no time stamp, no sums
SWEEP_FIELDS = tuple(name for name in DIAGNOSTICS_FIELDS
                     if name not in ("step", "time", "conservation_sum", "free_energy"))
SWEEP_HEADER = ",".join(("value", "status", *SWEEP_FIELDS))


def _versions() -> dict:
    return {"dendrosim": __version__, "python": platform.python_version(), "numpy": np.__version__}


def _collect_overrides(args) -> dict:
    """Layer preset, config file, and --set pairs (later wins)."""
    overrides = {}
    if args.preset:
        overrides.update(PRESETS[args.preset])
    if args.config:
        try:
            # bytes, so no newline translation: a lone "\r" ends no line
            text = Path(args.config).read_bytes().decode("utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        overrides.update(parse_config_text(text))
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key = key.strip()
        overrides[key] = parse_value(key, value)
    return overrides


def _reason(exc: Exception) -> str:
    """The message of `exc`, or its class name when it has none (a bare
    MemoryError)."""
    return str(exc) or type(exc).__name__


def _execute_run(params: SimParams, outdir: Path, label: str = ""):
    """One full simulation with the standard artifact set in outdir.

    Returns (exit code, last diagnostics record).  On blow-up the
    snapshots and diagnostics gathered so far are still written, and the
    blow-up is one stderr line, named by `label` (a sweep's key=token):
    numpy's floating-point warnings are off for the run, in this thread.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    records = []

    def save_state(st):
        for name, field in (("phi", st.phi), ("temp", st.temp)):
            fname = f"{name}_{st.step:06d}.pfds"
            write_snapshot(field, outdir / fname, name=name, step=st.step, dt=params.dt)
            outputs.append(fname)

    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state, _ = run(params, on_snapshot=save_state, on_diagnostics=records.append)
    except BlowupError as exc:
        failure = exc
    write_diagnostics_csv(records, outdir / "diagnostics.csv")
    outputs.append("diagnostics.csv")
    if failure is None:
        write_pgm(state.phi, outdir / "phi_final.pgm")
        outputs.append("phi_final.pgm")
    outputs.append("manifest.json")
    write_manifest(outdir / "manifest.json", params, outputs, _versions())
    if failure is not None:
        print(f"error: {label}{failure}", file=sys.stderr)
        return 1, records[-1]
    return 0, records[-1]


def _warn_if_unstable(params: SimParams, label: str = "") -> None:
    """One stderr line when params pass only under --force; `label` (a
    sweep's key=token) names the run."""
    ok, dt_thermal, dt_phase = stability_check(params)
    if not ok:
        print(f"warning: {label}dt = {params.dt!r} exceeds the stability bound "
              f"(thermal {dt_thermal!r}, phase {dt_phase!r}); proceeding under --force",
              file=sys.stderr)


def cmd_run(args) -> int:
    params = params_from_dict(_collect_overrides(args), allow_unstable=args.force)
    _warn_if_unstable(params)
    code, last = _execute_run(params, Path(args.out))
    if code == 0:
        print(f"completed {params.total_steps} steps (t = {last.time!r}), "
              f"solid_fraction = {last.solid_fraction!r}, outputs in {args.out}")
    return code


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    key = args.param
    tokens = [tok.strip() for tok in args.values.split(",")]
    if not any(tokens):
        raise ConfigError("empty --values list")
    base = _collect_overrides(args)
    # token -> params; a token names its run directory, so it must be unique
    plan = {}
    for tok in tokens:
        if tok in plan:
            raise ConfigError(f"repeated --values token {tok!r}")
        plan[tok] = params_from_dict({**base, key: parse_value(key, tok)},
                                     allow_unstable=args.force)
    for tok, params in plan.items():
        _warn_if_unstable(params, f"{key}={tok}: ")
    outroot = Path(args.out)
    outroot.mkdir(parents=True, exist_ok=True)

    def one(item):
        tok, params = item
        try:
            return _execute_run(params, outroot / f"{key}={tok}", f"{key}={tok}: ")
        except (OSError, MemoryError) as exc:
            print(f"error: {key}={tok}: {_reason(exc)}", file=sys.stderr)
            return 1, None

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(one, plan.items()))

    lines = [SWEEP_HEADER]
    for tok, (code, last) in zip(plan, results):
        if code == 0:
            lines.append(f"{tok},ok,{csv_row(last, SWEEP_FIELDS)}")
        else:
            lines.append(",".join((tok, "failed", *["nan"] * len(SWEEP_FIELDS))))
    with open(outroot / "sweep_summary.csv", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    failed = sum(1 for code, _ in results if code != 0)
    print(f"sweep complete: {len(results) - failed}/{len(results)} runs ok, "
          f"summary in {outroot / 'sweep_summary.csv'}")
    return 1 if failed else 0


def cmd_check(args) -> int:
    params = params_from_dict(_collect_overrides(args), allow_unstable=True)
    ok, dt_thermal, dt_phase = stability_check(params)
    sys.stdout.write(format_config(params))
    print(f"dt_max_thermal = {dt_thermal!r}")
    print(f"dt_max_phase = {dt_phase!r}")
    print(f"cell_updates = {params.nx * params.ny * params.total_steps}")
    print(f"stable = {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    if args.out is None and args.csv is None:
        print("error: render needs --out and/or --csv", file=sys.stderr)
        return 2
    field, _ = read_snapshot(args.snapshot)
    if args.out is not None:
        try:
            write_pgm(field, args.out)
        except ValueError as exc:  # a NaN cell has no gray level
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.csv is not None:
        write_field_csv(field, args.csv)
    return 0


def _add_config_options(parser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter bundle applied before the config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides", help="override one config key (repeatable)")
    parser.add_argument("--force", action="store_true",
                        help="proceed even if dt fails the stability check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrosim",
        description="Deterministic 2D phase-field simulation of dendritic growth.")
    parser.add_argument("--version", action="version", version=f"dendrosim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one simulation")
    _add_config_options(p)
    p.add_argument("--out", default="out", metavar="DIR", help="output directory")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="run once per value of one parameter")
    _add_config_options(p)
    p.add_argument("--param", required=True, metavar="KEY", help="config key to sweep")
    p.add_argument("--values", required=True, metavar="V1,V2,...",
                   help="comma-separated values for the swept key")
    p.add_argument("--out", default="sweep", metavar="DIR", help="output root directory")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="runs to execute in parallel")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("check", help="print resolved parameters and stability bounds")
    _add_config_options(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("render", help="convert a snapshot to PGM and/or CSV")
    p.add_argument("snapshot", metavar="SNAPSHOT", help="snapshot file to read")
    p.add_argument("--out", metavar="PATH.pgm", help="write an 8-bit graymap")
    p.add_argument("--csv", metavar="PATH.csv", help="write full-precision CSV")
    p.set_defaults(handler=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError, SnapshotFormatError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
