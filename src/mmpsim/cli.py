"""Command-line entry points.

Subcommands: ``run`` (simulate from a config file, resumable from a
checkpoint), ``check-diophantine``, ``verify-lemma`` (lifting-ratio probe),
``fit-decay``, and ``selftest``.

Exit codes: 0 success, 1 validation error, 2 runtime integrity error
(blow-up / NaN), 3 I/O error, 4 out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from contextlib import contextmanager

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .config import ConfigError, parse_config, parse_vec3
from .diagio import read_diagnostics, truncate_diagnostics, write_diagnostics
from .diophantine import check_diophantine, lifting_ratio
from .fields import make_random_state
from .integrator import RunStatus, check_run_arguments, run
from .norms import RECORD_COLUMNS, fit_decay
from .spectral import GridSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTEGRITY = 2
EXIT_IO = 3
EXIT_MEMORY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmpsim",
        description="Pseudo-spectral magneto-micropolar simulator and "
                    "decay diagnostics on the periodic torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a simulation from a config")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--resume", default=None,
                       help="checkpoint to continue from")

    p_dio = sub.add_parser("check-diophantine",
                           help="scan the truncated lattice for resonances")
    p_dio.add_argument("--alpha", required=True)
    p_dio.add_argument("--r", type=float, required=True)
    p_dio.add_argument("--kmax", type=int, required=True)

    p_lem = sub.add_parser("verify-lemma",
                           help="probe the norm-lifting inequality")
    p_lem.add_argument("--alpha", required=True)
    p_lem.add_argument("--s", type=float, required=True)
    p_lem.add_argument("--r", type=float, required=True)
    p_lem.add_argument("--n", type=int, required=True)
    p_lem.add_argument("--trials", type=int, default=32)
    p_lem.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit-decay", help="fit a decay law to a CSV column")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--model", choices=("exp", "alg"), required=True)
    p_fit.add_argument("--tmin", type=float, default=0.0)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


@contextmanager
def _warnings_on_stderr():
    """Print each warning shown inside as one ``warning: ...`` line on
    stderr when it is raised, as `mmpsim run` prints its config warnings,
    with no source location, also when the block then raises; every
    UserWarning is shown (the solver's and the scans'), other categories
    as the process's filters say (so ``-W error::ResourceWarning`` still
    raises).  Used as a decorator on the commands that can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *rest: print(
            f"warning: {message}", file=sys.stderr)
        yield


@_warnings_on_stderr()
def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    grid = config.grid()
    step_offset = 0
    initial_record = True
    if args.resume is not None:
        try:
            data = load_checkpoint(args.resume)
        except CheckpointFormatError as exc:
            print(f"error: bad checkpoint: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:
            print(f"error: cannot read checkpoint: {exc}", file=sys.stderr)
            return EXIT_IO
        if data.state.grid.n != grid.n:
            print(f"error: checkpoint grid n={data.state.grid.n} does not "
                  f"match config n={grid.n}", file=sys.stderr)
            return EXIT_VALIDATION
        if data.state.variant is not config.variant:
            print(f"error: checkpoint variant "
                  f"{data.state.variant.value!r} does not match config "
                  f"{config.variant.value!r}", file=sys.stderr)
            return EXIT_VALIDATION
        if data.params != config.params:
            print("error: checkpoint parameters differ from the config",
                  file=sys.stderr)
            return EXIT_VALIDATION
        if data.seed != config.init.seed:
            print(f"error: checkpoint seed {data.seed} differs from "
                  f"init.seed {config.init.seed}", file=sys.stderr)
            return EXIT_VALIDATION
        initial = [data.state]
        step_offset = data.step
        initial_record = False
        del data
    else:
        initial = [make_random_state(grid, config.init, config.variant)]
    # `run`'s own checks, made before any output is touched
    check_run_arguments(initial[0], config.params, config.variant,
                        config.stepper, config.checkpoint_interval)

    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    csv_path = os.path.join(config.output_dir, "diagnostics.csv")
    try:
        if args.resume is not None:
            truncate_diagnostics(csv_path, initial[0].t)
        else:
            write_diagnostics([], csv_path)
    except OSError as exc:
        print(f"error: cannot write diagnostics: {exc}", file=sys.stderr)
        return EXIT_IO

    def record_sink(record):
        write_diagnostics([record], csv_path, append=True)

    def checkpoint_sink(snapshot, steps):
        name = f"checkpoint_{step_offset + steps:08d}.mmp"
        save_checkpoint(os.path.join(config.output_dir, name), snapshot,
                        config.params, step_offset + steps, config.init.seed)

    # a failing sink raises SinkWriteError, an OSError: exit 3 (cli_main).
    # `run` copies the initial band; popped from `initial`, the state it
    # was given then has no other reference and is freed while it runs
    result = run(initial.pop(), config.params, config.variant, config.stepper,
                 settings=config.diagnostics_settings(),
                 record_sink=record_sink,
                 state_sink=checkpoint_sink if
                 config.checkpoint_interval is not None else None,
                 state_sink_interval=config.checkpoint_interval,
                 initial_record=initial_record)

    try:
        save_checkpoint(os.path.join(config.output_dir, "final.mmp"),
                        result.state, config.params,
                        step_offset + result.steps, config.init.seed)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"status = {result.status.value}")
    print(f"steps = {step_offset + result.steps}")
    print(f"t = {result.state.t:.17g}")
    if result.records:
        # the last record is earlier than t when t_end is not on a record
        # boundary, so its time is printed with its values
        last = result.records[-1]
        print(f"record_t = {last.t:.17g}")
        print(f"l2_energy = {last.l2_energy:.17g}")
        if last.h3 is not None:
            print(f"h3 = {last.h3:.17g}")
    if result.status is RunStatus.BLOW_UP:
        print(f"error: blow-up detected at step {result.failure_step}",
              file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_OK


def _print_report(report) -> None:
    """One ``name = value`` line per field of the report dataclass, in
    field order: floats as .17g, tuples comma-joined, bools lower-case."""
    def text(value) -> str:
        if isinstance(value, tuple):
            return ",".join(text(v) for v in value)
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)
    for f in dataclasses.fields(report):
        print(f"{f.name} = {text(getattr(report, f.name))}")


@_warnings_on_stderr()
def _cmd_check_diophantine(args) -> int:
    report = check_diophantine(parse_vec3(args.alpha), args.r, args.kmax)
    _print_report(report)
    return EXIT_OK


@_warnings_on_stderr()
def _cmd_verify_lemma(args) -> int:
    report = lifting_ratio(parse_vec3(args.alpha), args.s, args.r,
                           GridSpec(args.n), args.trials, args.seed)
    _print_report(report)
    return EXIT_OK


def _cmd_fit_decay(args) -> int:
    if args.column not in RECORD_COLUMNS or args.column == "t":
        print(f"error: unknown column {args.column!r}; available: "
              f"{', '.join(RECORD_COLUMNS[1:])}", file=sys.stderr)
        return EXIT_VALIDATION
    records = read_diagnostics(args.csv)
    pairs = [(rec.t, getattr(rec, args.column)) for rec in records
             if getattr(rec, args.column) is not None]
    if not pairs:
        print(f"error: column {args.column!r} is empty", file=sys.stderr)
        return EXIT_VALIDATION
    times, values = zip(*pairs)
    model = "exponential" if args.model == "exp" else "algebraic"
    report = fit_decay(times, values, model, t_min=args.tmin)
    print(f"model = {report.model}")
    print(f"amplitude = {report.amplitude:.17g}")
    if report.model == "exponential":
        print(f"rate = {report.rate:.17g}")
    else:
        print(f"exponent = {report.exponent:.17g}")
    print(f"r_squared = {report.r_squared:.17g}")
    print(f"n_samples = {report.n_samples}")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-diophantine":
            return _cmd_check_diophantine(args)
        if args.command == "verify-lemma":
            return _cmd_verify_lemma(args)
        if args.command == "fit-decay":
            return _cmd_fit_decay(args)
        if args.command == "selftest":
            # imported here, so that other commands do not load the suite
            from .selftest import run_selftest
            return EXIT_OK if run_selftest() else EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
