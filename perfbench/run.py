"""zernkit benchmark: seeded workloads against the public API, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload mixed-requests --seed 1 --seconds 30 --trace 0

One client in one process sends each request after the previous one
returned; every call is single-threaded (``evaluate_batch(..., parallel=False)``,
``run_accuracy(..., serial=True)``). A run measures ``--seconds`` of request
time; correctness checks run between requests, outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sends every
request twice, untraced and traced, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``. The last line
of standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 3  # set-up is repeated and its median reported
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import zernkit, zernkit.cli; print(time.perf_counter() - t)"
)
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name
REFERENCE_LOOPS = 10_000  # iterations of the host-speed reference loop, about 1 ms
REFERENCE_NS = 1_000_000  # the loop's time at reference speed: scaled times are in its units


def import_program():
    """Import zernkit from this checkout's ``src``; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import zernkit
        import zernkit.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import zernkit from {SRC}: {exc}")
    if Path(zernkit.__file__).resolve().parent != (SRC / "zernkit").resolve():
        raise SystemExit(f"perfbench: zernkit imported from {zernkit.__file__}, not {SRC}")
    return zernkit


def import_seconds() -> float:
    """Time to import zernkit, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def l3_bytes() -> int | None:
    """Last-level cache size from glibc's sysconf, or None where unavailable."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def environment(np, workloads) -> dict:
    llc = l3_bytes()
    points = workloads.FINE_POINTS
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": llc,
        "threads": "every call single-threaded: evaluate_batch(parallel=False), "
        "run_accuracy(serial=True)",
        "fine_grid_basis_bytes": {
            "output": points * len(workloads.full_pairs(workloads.FINE_N_MAX)) * 8,
            "unique_buffer": points * workloads.radial_keys(workloads.FINE_N_MAX) * 8,
            "four_llc": 4 * llc if llc else None,
        },
    }


def reference_ns() -> int:
    """Time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter_ns() - start


def run_loop(specs, inputs, seconds, variants, checker, log):
    """Closed loop over ``specs`` (cycled) until ``seconds`` of request time.

    Each request is sent once per variant, a (call, context) pair; the order
    of the variants alternates from one request to the next, so that slow
    drifts of the machine's speed hit each variant alike. The reference loop
    is timed right before and right after each send, and the send's latency
    scaled to reference speed: latency x REFERENCE_NS / reference time.

    Returns, per variant, (request index, latency ns, scaled latency ns,
    passed its check) for every send that returned; then the sends attempted
    and failed. A send that raises or fails its check is failed.
    """
    sends: list[list[tuple[int, int, float, bool]]] = [[] for _ in variants]
    attempted = failed = 0
    busy, limit = 0, int(seconds * 1e9)
    while busy < limit:
        cycle, index = divmod(attempted // len(variants), len(specs))
        spec = specs[index]
        order = range(len(variants))
        for v in order if (cycle + index) % 2 == 0 else reversed(order):
            call, context = variants[v]
            attempted += 1
            before = reference_ns()
            start = time.perf_counter_ns()
            try:
                with context():
                    output = call(spec, inputs[index])
            except Exception:  # a failed request must not stop the run
                failed += 1
                busy += time.perf_counter_ns() - start
                log("request %d raised:\n%s" % (index, traceback.format_exc()))
                continue
            elapsed = time.perf_counter_ns() - start
            scaled = elapsed * 2 * REFERENCE_NS / (before + reference_ns())
            busy += elapsed
            reason = checker.check(index, spec, inputs[index], output)
            del output
            sends[v].append((index, elapsed, scaled, reason is None))
            if reason is not None:
                failed += 1
                log(f"request {index} failed its check: {reason}")
    return sends, attempted, failed


def best_latencies(sends, field: int) -> dict[int, float]:
    """Per distinct request, its lowest latency over the sends that passed.

    ``field`` 1 takes the measured latencies, 2 the scaled ones.
    """
    best: dict[int, float] = {}
    for send in sends:
        index, ns, passed = send[0], send[field], send[3]
        if passed and ns < best.get(index, ns + 1):
            best[index] = ns
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    zk = import_program()
    import numpy as np

    import probes
    import workloads
    from spans import ROOT, Tracer

    generate = workloads.GENERATORS.get(args.workload)
    if generate is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")

    def log(message):
        print(f"perfbench: {message}", file=sys.stderr)

    plain = SimpleNamespace(
        BatchRequest=zk.BatchRequest,
        evaluate_batch=zk.evaluate_batch,
        zernike_eval=zk.zernike_eval,
        run_accuracy=zk.cli.run_accuracy,
        run_precision=zk.cli.run_precision,
    )

    # set-up: import, workload generation and warm-up
    setup_times = []
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        started = time.perf_counter()
        specs = generate(args.seed, args.tiny)
        inputs = [workloads.prepare(zk, spec) for spec in specs]
        for spec in workloads.warm_up_specs(args.workload, specs):
            workloads.call(plain, spec, workloads.prepare(zk, spec))
        setup_times.append(import_s + time.perf_counter() - started)
    setup_s = statistics.median(setup_times)

    env = environment(np, workloads)
    request_digest = workloads.digest(specs)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env))
    print(f"requests distinct={len(specs)} sha256={request_digest}")

    checker = workloads.Checker(zk, args.seed, args.workload == "mixed-requests")

    def plain_call(spec, inp):
        return workloads.call(plain, spec, inp)

    untraced = (plain_call, contextlib.nullcontext)
    if not args.trace:
        (sent,), attempted, failed = run_loop(
            specs, inputs, args.seconds, [untraced], checker, log
        )
        best = best_latencies(sent, 2)
        if not best:
            raise SystemExit("perfbench: no request passed its checks")
        best_ms = np.array(list(best.values()), dtype=float) / 1e6
        measured_ms = np.array(list(best_latencies(sent, 1).values()), dtype=float) / 1e6
        values = sum(workloads.value_count(specs[i]) for i in best)
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_values_per_s": (1e3 * values / best_ms.sum(), "values/s"),
            "latency_ms_p50": (float(np.percentile(best_ms, 50)), "ms"),
            "latency_ms_p90": (float(np.percentile(best_ms, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "sends": len(sent),
            "distinct_requests": len(best),
            "failed_fraction": failed / attempted,
            "measured_latency_ms_p50": float(np.percentile(measured_ms, 50)),
            "measured_latency_ms_p90": float(np.percentile(measured_ms, 90)),
            "host_speed": float(measured_ms.sum() / best_ms.sum()),
        }
    else:
        tracer = Tracer()
        plans: list = []
        traced_api = probes.install(tracer, zk, plans)
        root = tracer.wrap(lambda spec, inp: workloads.call(traced_api, spec, inp), ROOT)
        (plain_sends, traced_sends), attempted, failed = run_loop(
            specs, inputs, args.seconds, [untraced, (root, tracer.patched)], checker, log
        )
        plain_ns = [ns for _, ns, _, _ in plain_sends]
        metrics = probes.layer_metrics(tracer, zk, plans, plain_ns)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path, json.dumps({"environment": env, "sha256": request_digest}))
        extra = {
            "untraced_sends": len(plain_sends),
            "traced_sends": len(traced_sends),
            "untraced_p50_ms": statistics.median(plain_ns) / 1e6 if plain_ns else None,
            "spans": str(spans_path.relative_to(HERE.parent)),
            "failed_fraction": failed / attempted,
        }

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("run " + json.dumps(extra))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
