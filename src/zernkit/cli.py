"""Command-line surface: accuracy sweeps, timing runs, evaluation, precision study.

Every subcommand emits machine-readable CSV (or JSON for ``eval``), one row
per data point, to --output or standard output. Exit codes: 0 success,
2 argument/validation error, 3 I/O error.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import sys
import time
import timeit
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import click
import numpy as np

from .batch import STRATEGIES, BatchRequest, evaluate_batch
from .exact import _oracle_tables, _significand_widths, max_abs_error, precision_sweep
# perfbench's probes patch oracle_table and radial_direct here
from .exact import oracle_table
from .evaluate import MAX_ACCURACY_N, _direct_tables, radial_direct, radial_direct_table
from .evaluate import radial_ztt_table
from .modes import Mode, ModeError, ModeSet, _integer, full_mode_set, make_mode, radial_sweep_modes
from .tables import (
    EvalMatrix,
    check_deriv_order,
    linear_radial_grid,
    rational_radial_grid,
)

METHODS = ("jacobi", "direct", "ztt")
ACCURACY_HEADER = ("n", "m", "k", "method", "max_abs_err")
BENCH_HEADER = (
    "method",
    "strategy",
    "resolution",
    "grid_size",
    "wall_ns_median",
    "recursion_steps",
    "repetitions",
)
PRECISION_HEADER = ("bits", "max_deviation")

MIN_SAMPLE_NS = 20_000_000  # shortest timed loop per bench sample
PASSES_PER_REP = 3  # bench passes over all rows per repetition


class OutputError(click.ClickException):
    """I/O failure writing results; exits with code 3."""

    exit_code = 3


@dataclass(frozen=True)
class AccuracyRow:
    n: int
    m: int
    deriv_order: int
    method: str
    max_abs_err: float


@dataclass(frozen=True)
class BenchRecord:
    method: str
    strategy: str
    resolution: int
    grid_size: int
    wall_ns_median: int
    recursion_steps: int
    repetitions: int


def _candidate_matrix(method: str, modes: ModeSet, grid, deriv_order: int) -> EvalMatrix:
    if method == "jacobi":
        return evaluate_batch(BatchRequest(modes, grid, deriv_order))[0]
    if method == "direct":
        return EvalMatrix(radial_direct_table(modes, grid, deriv_order), modes, deriv_order)
    if method == "ztt":
        if deriv_order:
            raise ValueError("ztt has no derivative form")
        return EvalMatrix(radial_ztt_table(modes, grid), modes, 0)
    raise ValueError(f"unknown method {method!r}")


def _check_methods(methods: Sequence[str]) -> None:
    """ValueError naming the first method of ``methods`` that is unknown or repeated."""
    for i, method in enumerate(methods):
        if method not in METHODS or method in methods[:i]:
            raise ValueError(f"{'repeated' if method in METHODS else 'unknown'} method {method!r}")


def _check_n_max(n_max: int) -> None:
    """The oracle's cost guard, shared by every sweep: an integer n_max in 0..MAX_ACCURACY_N."""
    if not 0 <= _integer("n_max", n_max) <= MAX_ACCURACY_N:
        raise ValueError(f"need 0 <= n_max <= {MAX_ACCURACY_N}, got {n_max}")


def run_accuracy(
    n_max: int,
    methods: Sequence[str] = METHODS,
    grid_size: int = 100,
    k_max: int = 0,
    serial: bool = False,
) -> list[AccuracyRow]:
    """Max-abs error of each method against the exact oracle, per mode and order.

    Sweeps every (n, m >= 0) mode with n <= n_max on grid_size linearly
    spaced points; the oracle evaluates the exact rationals i/(P-1), every
    order 0..k_max in one pass, the candidates their binary64 roundings; the
    direct baseline expands each key's coefficients once for every order.
    ztt rows exist only for k = 0. Each method appears once.
    ``serial`` is accepted for compatibility: evaluation is single-threaded.
    """
    _check_n_max(n_max)
    check_deriv_order(k_max, "k_max")
    _check_methods(methods)
    modes = radial_sweep_modes(n_max)
    references = _oracle_tables(modes, rational_radial_grid(grid_size), range(k_max + 1))
    float_points = linear_radial_grid(grid_size)
    direct = _direct_tables(modes, float_points, range(k_max + 1)) if "direct" in methods else []
    rows: list[AccuracyRow] = []
    for k, reference in enumerate(references):
        for method in methods:
            if method == "ztt" and k:
                continue
            if method == "direct":
                candidate = EvalMatrix(direct[k], modes, k)
            else:
                candidate = _candidate_matrix(method, modes, float_points, k)
            for err in max_abs_error(candidate, reference):
                rows.append(AccuracyRow(err.n, err.m, k, method, err.max_abs_err))
    order = {m: i for i, m in enumerate(methods)}
    rows.sort(key=lambda r: (r.n, r.m, r.deriv_order, order[r.method]))
    return rows


def _autorange_ns(timer: timeit.Timer) -> tuple[int, int]:
    """First (loop count, loop ns) whose loop of calls lasts MIN_SAMPLE_NS.

    The count grows 1, 2, 5, 10, 20, ... as in ``timeit.Timer.autorange``.
    """
    for scale in itertools.count():
        for number in (10**scale, 2 * 10**scale, 5 * 10**scale):
            ns = timer.timeit(number)
            if ns >= MIN_SAMPLE_NS:
                return number, ns


def _timed_ns(fns, repetitions: int, series_len: int) -> list[int]:
    """Drift-corrected median per-call wall time of each function, in ns.

    ``fns`` is a run of series of ``series_len`` functions. Each sample times
    a loop of calls lasting >= MIN_SAMPLE_NS, since a single call of a few ms
    is at the mercy of scheduler noise; the loop that sets a function's loop
    count is its first sample. ``timeit`` turns the cyclic garbage collector
    off while it times: a collection costs in proportion to every object in
    the process, not to the work timed. The host's speed drifts by up to 2x
    for seconds at a time, so the samples of each of the PASSES_PER_REP *
    repetitions passes are divided by the series' speed in that pass: the
    median over the series of sample / the function's median sample.
    """
    timers = [timeit.Timer(fn, timer=time.perf_counter_ns) for fn in fns]
    first = [_autorange_ns(timer) for timer in timers]
    numbers = [number for number, _ in first]
    samples = [[ns / number] for number, ns in first]
    for _ in range(PASSES_PER_REP * repetitions - 1):
        for timer, number, out in zip(timers, numbers, samples):
            out.append(timer.timeit(number) / number)
    table = np.array(samples).reshape(-1, series_len, len(samples[0]))  # series, fn, pass
    speed = np.median(table / np.median(table, axis=2, keepdims=True), axis=1, keepdims=True)
    return [int(wall) for wall in np.median(table / speed, axis=2).ravel()]


def run_bench(
    n_min: int,
    n_max: int,
    step: int = 10,
    grid_sizes: Sequence[int] = (100, 1000),
    strategies: Sequence[str] = STRATEGIES,
    repetitions: int = 5,
    methods: Sequence[str] = ("jacobi",),
) -> list[BenchRecord]:
    """Time full-mode-set evaluation per resolution, grid size and strategy.

    After one untimed warm-up call per row, each of the >= 3 repetitions
    makes three passes over all rows, each timing a loop of calls lasting
    >= 20 ms per row on the monotonic clock; wall_ns_median is the median
    per-call time, corrected for the host's speed in each pass of each
    (grid, method, strategy) series. The baselines (direct, ztt) each evaluate
    the whole mode set as one table, strategy label ``permode``; recursion_steps
    counts Jacobi recursion applications, so baseline rows record 0. Records
    are ordered by resolution, then grid size, method and strategy as given.
    """
    _check_n_max(n_max)
    if not 0 <= _integer("n_min", n_min) <= n_max:
        raise ValueError(f"need 0 <= n_min <= n_max, got {n_min}..{n_max}")
    if _integer("step", step, ValueError) < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if _integer("repetitions", repetitions, ValueError) < 3:
        raise ValueError(f"repetitions must be >= 3, got {repetitions}")
    _check_methods(methods)
    resolutions = range(n_min, n_max + 1, step)
    mode_sets = {resolution: full_mode_set(resolution) for resolution in resolutions}
    # queued one series (grid, method, strategy) at a time, so that each
    # pass times the neighbouring resolutions of a series back to back;
    # wall_ns_median is filled in once all rows are timed
    pending: list[tuple[BenchRecord, functools.partial]] = []
    for grid_size in grid_sizes:
        grid = linear_radial_grid(grid_size)
        for method in methods:
            for strategy in strategies if method == "jacobi" else ("permode",):
                for resolution in resolutions:
                    modes = mode_sets[resolution]
                    if method == "jacobi":
                        request = BatchRequest(modes, grid, 0, strategy)
                        call = functools.partial(evaluate_batch, request)
                        steps = call()[1].recursion_steps  # also the warm-up
                    else:
                        call = functools.partial(_candidate_matrix, method, modes, grid, 0)
                        call()  # untimed warm-up
                        steps = 0
                    record = BenchRecord(
                        method, strategy, resolution, grid_size, 0, steps, repetitions
                    )
                    pending.append((record, call))
    walls = _timed_ns([call for _, call in pending], repetitions, len(resolutions))
    records = [
        replace(record, wall_ns_median=wall)
        for (record, _), wall in zip(pending, walls)
    ]
    records.sort(key=lambda r: r.resolution)  # stable: keeps grid/method/strategy order
    return records


def run_precision(
    n_max: int, bits: Sequence[int], grid_size: int = 100
) -> list[tuple[int, float]]:
    """Precision sweep rows (bits, max_deviation), ascending bits."""
    _check_n_max(n_max)
    widths = sorted(set(_significand_widths(bits)))
    return precision_sweep(n_max, widths, rational_radial_grid(grid_size))


# --- file I/O ----------------------------------------------------------------


def _write_output(output: str | None, write) -> None:
    """Call ``write(handle)`` on the file ``output``, or on stdout for None or -."""
    try:
        if output in (None, "-"):
            write(sys.stdout)
        else:
            with open(output, "w", newline="") as handle:
                write(handle)
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}")


def _write_rows(output: str | None, header: Sequence[str], rows) -> None:
    def write(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    _write_output(output, write)


def _read_csv(path, header: Sequence[str], convert) -> list:
    """Rows of a CSV file written under ``header``, each passed to ``convert``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        found = tuple(next(reader, ()))
        if found != header:
            raise ValueError(f"{path}: expected header {tuple(header)}, got {found}")
        rows = list(reader)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    return [convert(*row) for row in rows]


def read_accuracy_csv(path) -> list[AccuracyRow]:
    return _read_csv(
        path,
        ACCURACY_HEADER,
        lambda n, m, k, method, err: AccuracyRow(
            int(n), int(m), int(k), method, float(err)
        ),
    )


def read_bench_csv(path) -> list[BenchRecord]:
    return _read_csv(
        path,
        BENCH_HEADER,
        lambda m, s, r, g, w, steps, reps: BenchRecord(
            m, s, int(r), int(g), int(w), int(steps), int(reps)
        ),
    )


def read_precision_csv(path) -> list[tuple[int, float]]:
    return _read_csv(path, PRECISION_HEADER, lambda bits, dev: (int(bits), float(dev)))


def _parse_mode(text: str) -> Mode:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected 'n m', got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers, got {text!r}") from None
    try:
        return make_mode(n, m)
    except ModeError as exc:
        raise ValueError(f"invalid mode ({n}, {m}): {exc}") from None


def _parse_value(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a decimal value, got {text!r}") from None


def _parse_lines(path, parse, what: str) -> list:
    """``parse`` of each non-blank line of ``path``; an empty file is a usage error.

    A ValueError from ``parse`` becomes a usage error naming the file and
    line; a file that cannot be read exits with the I/O error code.
    """
    items = []
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if text:
                    try:
                        items.append(parse(text))
                    except ValueError as exc:
                        raise click.UsageError(f"{path}:{lineno}: {exc}")
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}")
    if not items:
        raise click.UsageError(f"{path}: no {what} found")
    return items


# --- click wiring -------------------------------------------------------------


@click.group()
def main():
    """Zernike polynomial evaluator: accuracy, timing and precision studies."""


@main.command("accuracy")
@click.option("--n-max", type=int, required=True, help="Highest radial degree.")
@click.option(
    "--method",
    "methods",
    multiple=True,
    type=click.Choice(METHODS),
    default=METHODS,
    show_default=True,
    help="Evaluation method(s) to score.",
)
@click.option("--grid-size", type=int, default=100, show_default=True)
@click.option("--k-max", type=int, default=0, show_default=True)
@click.option("--output", default="-", show_default=True, help="CSV path or - for stdout.")
def accuracy_command(n_max, methods, grid_size, k_max, output):
    """Max-abs error of each method vs the exact oracle, per (n, m, k)."""
    try:
        rows = run_accuracy(n_max, methods, grid_size, k_max)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_rows(output, ACCURACY_HEADER, map(astuple, rows))


@main.command("bench")
@click.option("--n-min", type=int, default=10, show_default=True)
@click.option("--n-max", type=int, default=100, show_default=True)
@click.option("--step", type=int, default=10, show_default=True)
@click.option(
    "--grid-size",
    "grid_sizes",
    multiple=True,
    type=int,
    default=(100, 1000),
    show_default=True,
)
@click.option(
    "--strategy",
    "strategies",
    multiple=True,
    type=click.Choice(STRATEGIES),
    default=STRATEGIES,
    show_default=True,
)
@click.option(
    "--method",
    "methods",
    multiple=True,
    type=click.Choice(METHODS),
    default=("jacobi",),
    show_default=True,
)
@click.option("--reps", type=int, default=5, show_default=True)
@click.option("--output", default="-", show_default=True)
def bench_command(n_min, n_max, step, grid_sizes, strategies, methods, reps, output):
    """Wall time of full-set evaluation per resolution, grid and strategy."""
    try:
        records = run_bench(n_min, n_max, step, grid_sizes, strategies, reps, methods)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_rows(output, BENCH_HEADER, map(astuple, records))


@main.command("eval")
@click.option("--modes", "modes_path", required=True, help="File with one 'n m' per line.")
@click.option("--rho", "rho_path", required=True, help="File with one radial value per line.")
@click.option("--theta", "theta_path", default=None, help="Optional angle file (radians).")
@click.option("--k", type=int, default=0, show_default=True, help="Radial derivative order.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("csv", "json")),
    default="csv",
    show_default=True,
)
@click.option("--output", default="-", show_default=True)
def eval_command(modes_path, rho_path, theta_path, k, fmt, output):
    """Evaluate modes at given points: full polynomials, or radial-only without --theta."""
    modes = tuple(_parse_lines(modes_path, _parse_mode, "modes"))
    rho = _parse_lines(rho_path, _parse_value, "values")
    theta = _parse_lines(theta_path, _parse_value, "values") if theta_path else None
    try:
        values = evaluate_batch(BatchRequest(modes, rho, k, angles=theta))[0].values
    except ValueError as exc:
        raise click.UsageError(str(exc))

    table = values.tolist()
    if fmt == "csv":
        prefix, lead = ("R", ["rho"]) if theta is None else ("Z", ["rho", "theta"])
        header = lead + [f"{prefix}_{mode.n}_{mode.m}" for mode in modes]
        points = zip(rho) if theta is None else zip(rho, theta)
        _write_rows(output, header, ([*p, *row] for p, row in zip(points, table)))
    else:
        payload = {
            "modes": [[mode.n, mode.m] for mode in modes],
            "deriv_order": k,
            "rho": rho,
            "theta": theta,
            "values": table,
        }
        text = json.dumps(payload, indent=2) + "\n"
        _write_output(output, lambda handle: handle.write(text))


@main.command("precision")
@click.option("--n-max", type=int, default=100, show_default=True)
@click.option(
    "--bits",
    "bits",
    multiple=True,
    type=int,
    default=(53, 96, 153, 183),
    show_default=True,
    help="Significand widths to simulate, 24..1024; 53 runs on binary64 "
    "itself, with the simulator's result.",
)
@click.option("--grid-size", type=int, default=100, show_default=True)
@click.option("--output", default="-", show_default=True)
def precision_command(n_max, bits, grid_size, output):
    """Max deviation of p-bit direct evaluation from the exact oracle."""
    try:
        rows = run_precision(n_max, bits, grid_size)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_rows(output, PRECISION_HEADER, rows)


if __name__ == "__main__":
    main()
