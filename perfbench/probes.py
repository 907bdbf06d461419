"""Where the traced run records spans, and the per-layer metrics it derives.

Each probe wraps a public function of one zernkit module at the name its
caller looks it up under (``zernkit.batch.jacobi_chain`` is the chain the
batch strategies run, ``zernkit.evaluate.jacobi_chain`` the one
``radial_jacobi`` runs). A span's name is ``<module>.<function>`` of the
function it times, so a layer's self time is the self time of every span
whose name starts with that module. Calls the benchmark makes itself are
traced by the wrappers ``install`` returns.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from spans import ROOT
from workloads import radial_keys

LAYERS = ("modes", "tables", "evaluate", "batch", "exact", "cli")


def _dedup_counts(args, plan):
    yield "modes.requested", len(args[0])
    yield "modes.unique_keys", len(plan.unique_keys)


def _chain_counts(args, chain):
    yield "evaluate.chain_calls", 1
    yield "evaluate.recursion_point_steps", max(0, args[0] - 1) * chain.shape[1]


def _table_bytes(args, table):
    yield "tables.output_bytes", table.values.nbytes


def _oracle_counts(args, table):
    yield "exact.oracle_values", table.values.size


def _sweep_counts(args, rows):
    n_max, bits, grid = args
    yield "exact.sweep_evals", len(grid) * radial_keys(n_max) * len(bits)


def install(tracer, zk, plans: list) -> SimpleNamespace:
    """Register every probe and return the traced public entry points.

    ``plans`` collects (modes, k) of each ``evaluate_batch`` call, for the
    cache step ratio computed after the run.
    """
    batch, evaluate, exact, cli = zk.batch, zk.evaluate, zk.exact, zk.cli

    def batch_counts(args, result):
        plans.append((args[0].modes, args[0].deriv_order))
        yield "batch.recursion_steps", result[1].recursion_steps
        yield "batch.chain_count", result[1].chain_count

    patch = tracer.patch
    patch(batch, "dedup_plan", "modes.dedup_plan", _dedup_counts)
    patch(batch, "as_mode_set", "modes.as_mode_set")
    for module, attr in (
        (batch, "radial_grid"),
        (evaluate, "radial_grid"),
        (evaluate, "angular_grid"),
        (cli, "linear_radial_grid"),
        (cli, "rational_radial_grid"),
    ):
        patch(module, attr, f"tables.{attr}")
    for module in (batch, exact, cli):
        patch(module, "EvalMatrix", "tables.EvalMatrix", _table_bytes)
    for module in (batch, evaluate):
        patch(module, "jacobi_chain", "evaluate.jacobi_chain", _chain_counts)
        patch(module, "assemble_radial", "evaluate.assemble_radial")
    patch(evaluate, "radial_jacobi", "evaluate.radial_jacobi")
    patch(cli, "radial_direct", "evaluate.radial_direct")
    patch(cli, "radial_ztt_table", "evaluate.radial_ztt_table")
    for module in (evaluate, exact):
        patch(module, "radial_coefficients", "exact.radial_coefficients")
        patch(module, "differentiate_exact", "exact.differentiate_exact")
    patch(cli, "oracle_table", "exact.oracle_table", _oracle_counts)
    patch(cli, "max_abs_error", "exact.max_abs_error")
    patch(cli, "precision_sweep", "exact.precision_sweep", _sweep_counts)
    patch(cli, "BatchRequest", "batch.BatchRequest")
    patch(cli, "evaluate_batch", "batch.evaluate_batch", batch_counts)

    wrap = tracer.wrap
    return SimpleNamespace(
        BatchRequest=wrap(zk.BatchRequest, "batch.BatchRequest"),
        evaluate_batch=wrap(zk.evaluate_batch, "batch.evaluate_batch", batch_counts),
        zernike_eval=wrap(zk.zernike_eval, "evaluate.zernike_eval"),
        run_accuracy=wrap(cli.run_accuracy, "cli.run_accuracy"),
        run_precision=wrap(cli.run_precision, "cli.run_precision"),
    )


def layer_metrics(tracer, zk, plans: list, untraced_ns: list[int]) -> dict:
    """Per-layer metrics, each a mean per traced request.

    ``trace.coverage`` is the module self time of the traced sends over the
    untraced latency of the same requests; ``trace.overhead_pct`` is the
    extra wall time of those requests when traced.
    """
    duration, self_ns, request = tracer.self_times()
    ids = tracer.table()[:, 0]
    names = tracer.names
    self_by = dict(zip(names, np.bincount(ids, weights=self_ns, minlength=len(names))))
    total_by = dict(zip(names, np.bincount(ids, weights=duration, minlength=len(names))))
    traced = duration[ids == names.index(ROOT)]
    per_request = 1.0 / max(len(traced), 1)
    is_module = np.array([name.split(".")[0] in LAYERS for name in names])
    module_ns = np.bincount(request, weights=self_ns * is_module[ids], minlength=len(traced))

    def self_of(*span_names):
        return per_request * sum(self_by.get(name, 0.0) for name in span_names)

    def layer(prefix):
        return per_request * sum(
            ns for name, ns in self_by.items() if name.startswith(prefix + ".")
        )

    def count(key):
        return per_request * tracer.counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    cached = independent = 0
    for modes, k in plans:
        plan = zk.batch.dedup_plan(modes)
        cached += zk.batch.cached_step_counter(plan, k).recursion_steps
        independent += zk.batch.independent_step_counter(plan, k).recursion_steps

    matched = min(len(traced), len(untraced_ns))
    untraced_sum = float(sum(untraced_ns[:matched]))
    module_sum = float(module_ns[:matched].sum())
    ns, cnt = "ns", "count"
    metrics = {
        "modes.plan_ns": (layer("modes"), ns),
        "modes.requested": (count("modes.requested"), cnt),
        "modes.unique_keys": (count("modes.unique_keys"), cnt),
        "modes.dedup_ratio": (
            ratio(count("modes.unique_keys"), count("modes.requested")),
            "ratio",
        ),
        "tables.grid_ns": (layer("tables"), ns),
        "tables.output_bytes": (count("tables.output_bytes"), "bytes"),
        "evaluate.chain_ns": (self_of("evaluate.jacobi_chain"), ns),
        "evaluate.chain_calls": (count("evaluate.chain_calls"), cnt),
        "evaluate.recursion_point_steps": (
            count("evaluate.recursion_point_steps"),
            cnt,
        ),
        "evaluate.assemble_ns": (self_of("evaluate.assemble_radial"), ns),
        "evaluate.radial_jacobi_ns": (self_of("evaluate.radial_jacobi"), ns),
        "evaluate.angular_ns": (self_of("evaluate.zernike_eval"), ns),
        "evaluate.direct_ns": (self_of("evaluate.radial_direct"), ns),
        "evaluate.ztt_ns": (self_of("evaluate.radial_ztt_table"), ns),
        "batch.evaluate_ns": (per_request * total_by.get("batch.evaluate_batch", 0.0), ns),
        "batch.self_ns": (layer("batch"), ns),
        "batch.recursion_steps": (count("batch.recursion_steps"), cnt),
        "batch.chain_count": (count("batch.chain_count"), cnt),
        "batch.cache_step_ratio": (ratio(cached, independent), "ratio"),
        "exact.coeff_ns": (
            self_of("exact.radial_coefficients", "exact.differentiate_exact"),
            ns,
        ),
        "exact.oracle_ns": (self_of("exact.oracle_table"), ns),
        "exact.oracle_values": (count("exact.oracle_values"), cnt),
        "exact.compare_ns": (self_of("exact.max_abs_error"), ns),
        "exact.sweep_ns": (self_of("exact.precision_sweep"), ns),
        "exact.sweep_evals": (count("exact.sweep_evals"), cnt),
        "cli.self_ns": (layer("cli"), ns),
        "trace.coverage": (ratio(module_sum, untraced_sum), "ratio"),
        "trace.overhead_pct": (
            100.0 * ratio(float(traced[:matched].sum()) - untraced_sum, untraced_sum),
            "%",
        ),
    }
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}
