#!/usr/bin/env python3
"""CI perf-regression gate over bench_kernels JSON output.

Reads a google-benchmark JSON file (produced with
``bench_kernels --benchmark_format=json --benchmark_out=kernels.json``)
and enforces three properties:

1. **No throughput regression**: every benchmark that reports a
   ``flops_per_s`` counter and appears in the committed baseline
   (``scripts/perf_baseline.json``) must reach at least
   ``(1 - max_regression)`` of its baseline throughput. The baseline is
   machine-specific, so this check is strict on the machine that recorded
   it and advisory elsewhere (pass ``--max-regression 1`` to disable).
   Baseline entries missing from the current run (e.g. a filtered bench
   invocation, or renamed benchmarks) produce a warning, not a failure.

2. **Tiled beats naive**: for every benchmark name containing a
   ``/naive/`` segment with a ``/tiled/`` twin (the GeMM families), the
   tiled throughput must be at least ``--min-speedup`` times the naive
   one.

3. **Planned beats naive on large graphs**: every large
   (``n:<large-n>``) Spmm/SpmmSkew benchmark of the ``planned`` SpMM
   (the inspector-executor behind ``sparse::spmm``) must reach at least
   ``--min-planned-speedup`` times its ``naive`` twin, and at least one
   skewed-degree (SpmmSkew) large case must reach ``--min-skew-speedup``
   — the payoff on the heavy-tailed degree distributions it targets.
   The defaults (1.2x, 1.44x) are the products of the floors this gate
   replaced: tiled >= 1.2x naive times planned >= 1.0x tiled on every
   large case, and >= 1.2x tiled on the best skewed one.

4. **Compacted-exchange gate** (``--comm <json>``, from
   ``bench_comm_volume --json``): for every (machine, gpus, degree,
   permutation) group, the ``auto`` exchange mode must be at least
   ``--comm-min-speedup`` (default ~1.0) times as fast as ``dense`` —
   the cost-model selector must never regress a dense-friendly graph —
   and on the low-bandwidth gate rows (``--comm-gate-gpus``, degree
   ``<= --comm-gate-max-degree``) it must reach ``--comm-gate-speedup``
   (default 1.2x) with strictly fewer wire bytes than dense. When the
   committed baseline has a ``comm_volume`` section, each group's
   auto-over-dense speedup is also checked against it with the
   ``--max-regression`` allowance.

5. **Planner gate** (``--plan <json>``, from ``bench_planner --json``):
   for every (machine, gpus, n, degree, d) group, ``auto`` must be at
   least ``--plan-min-speedup`` (default ~1.0) times as fast as EVERY
   fixed strategy (1d / 15d / replicated) — the cost-model argmin must
   never lose to a strategy it could have chosen — and at least one
   group must exist where auto routes products to a non-1d executor and
   beats forced ``1d`` by ``--plan-win-speedup`` (default 1.15x): the
   mixture-of-parallelism payoff regimes the planner targets. When the
   committed baseline has a ``plan`` section, each group's auto-over-1d
   speedup is also checked against it with the ``--max-regression``
   allowance.

6. **Partitioner gate** (``--part <json>``, from
   ``bench_multinode_scaling --json``): for every (machine, gpus, nodes)
   group at ``gpus >= --part-gate-min-gpus``, the ``locality`` and
   ``hier`` partitioners must move strictly fewer wire bytes than
   ``random`` while keeping nnz imbalance at most
   ``--part-max-imbalance``; ``auto`` must never lose to ``random``
   (``--part-min-speedup``); and at least one group at
   ``--part-win-nodes`` nodes must show a locality/hier epoch win of
   ``--part-win-speedup`` (default 1.2x) over ``random`` — the
   cut-priced cluster scale-out payoff. When the committed baseline has
   a ``part`` section, each group's locality-over-random speedup is
   also checked against it with the ``--max-regression`` allowance.

7. **Sampled-pipeline gate** (``--cache <json>``, from
   ``bench_sampled_pipeline --json``): for every (dataset, gpus) group at
   ``gpus >= --cache-gate-min-gpus``, the pipelined engine under ``auto``
   cache pricing must beat the serialized cache-off baseline by
   ``--cache-pipe-speedup`` (default 1.3x); ``auto`` must never lose to
   the pipelined cache-off run (``--cache-min-speedup``); and the
   ``freq`` cache's hit rate must be monotone non-decreasing in the
   capacity fraction (within ``--cache-monotone-eps``). When the
   committed baseline has a ``cache`` section, each group's
   pipelined-auto-over-serialized speedup is also checked against it
   with the ``--max-regression`` allowance.

8. **Serving gate** (``--serve <json>``, from ``bench_serving --json``):
   for every (dataset, gpus, load, skew) group, the ``auto`` embedding
   cache must never lose QPS to ``off`` under the same batch policy
   (``--serve-min-speedup``), and at least one group at ``gpus >=
   --serve-gate-min-gpus`` must show the ``deadline`` micro-batcher
   beating ``per-request`` dispatch by ``--serve-batch-speedup``
   (default 1.2x) QPS at equal-or-better p99 — the batching payoff
   under saturating open-loop load. When the committed baseline has a
   ``serve`` section, each group's deadline-over-per-request QPS ratio
   is also checked against it with the ``--max-regression`` allowance.

9. **Workspace-pool gate** (``--mem <json>``, from
   ``bench_memory_pool --json``): on every (workload, dataset, gpus,
   layers) cell the pooled peak bytes must not exceed the static peak
   (the stream-ordered pool must never cost memory), every cell must
   report bit-identical numerics across ``MGGCN_POOL`` modes and the
   sched-fuzz seeds (``parity``) with a clean hazard ledger
   (``hazard_clean``), and at least one ``combined`` pipeline+serving
   cell at ``gpus >= --mem-gate-min-gpus`` must cut the footprint by
   ``--mem-combined-reduction`` (default 1.2x) — the cross-component
   reuse payoff of sharing one pool budget. When the committed baseline
   has a ``mem`` section, each cell's static-over-pooled reduction is
   also checked against it with the ``--max-regression`` allowance.

Checks 2 and 3 are machine-independent: both sides of each ratio come
from the same run on the same host. They are still noise-sensitive, so
CI runs the bench with ``--benchmark_enable_random_interleaving=true``
and ``--benchmark_repetitions=5``; this script prefers the ``median``
aggregate over per-iteration rows when repetitions are present. Check 4
runs in phantom mode, which is deterministic, so its ratios are exact;
so does check 5.

Refresh the baseline after an intentional perf change with::

    ./build/bench/bench_kernels --benchmark_format=json \
        --benchmark_out=kernels.json
    python3 scripts/check_perf.py kernels.json --update

Exit status is 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

DEFAULT_BASELINE = Path(__file__).resolve().parent / "perf_baseline.json"
COUNTER = "flops_per_s"


def load_throughputs(path: Path) -> dict[str, float]:
    """Maps benchmark name -> flops_per_s for every benchmark reporting it.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    skipped except the median, which replaces the per-iteration rows.
    """
    with open(path) as f:
        doc = json.load(f)
    plain: dict[str, float] = {}
    medians: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        if COUNTER not in bench:
            continue
        value = float(bench[COUNTER])
        run_type = bench.get("run_type", "iteration")
        if run_type == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name", bench["name"])] = value
            continue
        plain[bench["name"]] = value
    plain.update(medians)
    return plain


def check_regressions(current: dict[str, float], baseline: dict[str, float],
                      max_regression: float) -> list[str]:
    failures = []
    compared = 0
    for name, base in sorted(baseline.items()):
        if name not in current:
            # A filtered run or a renamed benchmark, not a perf problem:
            # warn so the gap is visible, but do not fail the gate.
            print(f"warning: baseline benchmark not in current run: {name}",
                  file=sys.stderr)
            continue
        compared += 1
        floor = base * (1.0 - max_regression)
        if current[name] < floor:
            failures.append(
                f"regression: {name}: {current[name]:.3e} {COUNTER} < "
                f"{floor:.3e} (baseline {base:.3e}, allowed -"
                f"{max_regression:.0%})")
    if baseline and compared == 0:
        print("warning: no overlap between baseline and current benchmark "
              "names; regression check skipped", file=sys.stderr)
    return failures


def check_speedups(current: dict[str, float],
                   min_speedup: float) -> tuple[list[str], list[str]]:
    failures, report = [], []
    for name, naive in sorted(current.items()):
        if "/naive/" not in name:
            continue
        twin = name.replace("/naive/", "/tiled/")
        if twin not in current:
            continue
        speedup = current[twin] / naive if naive > 0 else float("inf")
        report.append(f"{twin}: {speedup:.2f}x over naive")
        if speedup < min_speedup:
            failures.append(
                f"speedup below floor: {twin} is {speedup:.2f}x over naive "
                f"(required {min_speedup:.2f}x)")
    return failures, report


def check_planned(current: dict[str, float], min_planned: float,
                  min_skew: float, large_n: int) -> tuple[list[str],
                                                          list[str]]:
    """The inspector-executor gate: planned vs naive on large SpMM cases."""
    failures, report = [], []
    marker = f"/n:{large_n}/"
    best_skew: tuple[float, str] | None = None
    for name, naive in sorted(current.items()):
        family = name.split("/", 1)[0]
        if family not in ("Spmm", "SpmmSkew"):
            continue
        if "/naive/" not in name or marker not in name:
            continue
        twin = name.replace("/naive/", "/planned/")
        if twin not in current:
            print(f"warning: no planned twin for {name}; skipping",
                  file=sys.stderr)
            continue
        speedup = current[twin] / naive if naive > 0 else float("inf")
        report.append(f"{twin}: {speedup:.2f}x over naive")
        if speedup < min_planned:
            failures.append(
                f"planned below floor: {twin} is {speedup:.2f}x over naive "
                f"(required {min_planned:.2f}x)")
        if family == "SpmmSkew":
            if best_skew is None or speedup > best_skew[0]:
                best_skew = (speedup, twin)
    if best_skew is None:
        if report:
            print("warning: no large SpmmSkew planned/naive pair; skew gate "
                  "skipped", file=sys.stderr)
    elif best_skew[0] < min_skew:
        failures.append(
            f"skew gate: best skewed-degree planned speedup is "
            f"{best_skew[0]:.2f}x ({best_skew[1]}); at least one case must "
            f"reach {min_skew:.2f}x over naive")
    return failures, report


def load_rows(path: Path, bench: str) -> list[dict]:
    """The non-OOM rows of a bench ``--json`` document tagged ``bench``."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") != bench:
        program = "bench_" + bench.replace("-", "_")
        raise ValueError(f"{path} is not a {program} JSON "
                         f"(bench = {doc.get('bench')!r})")
    return [row for row in doc.get("rows", []) if not row.get("oom")]


def comm_groups(rows: list[dict]) -> dict[tuple, dict[str, dict]]:
    """(machine, gpus, avg_degree, permute) -> mode -> row."""
    groups: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        key = (row["machine"], row["gpus"], row["avg_degree"],
               row["permute"])
        groups.setdefault(key, {})[row["mode"]] = row
    return groups


def check_comm(rows: list[dict], min_everywhere: float, gate_gpus: int,
               gate_max_degree: int, gate_speedup: float
               ) -> tuple[list[str], list[str], dict[str, float]]:
    """The auto-vs-dense exchange gate over bench_comm_volume rows."""
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_rows = 0
    for key, modes in sorted(comm_groups(rows).items()):
        machine, gpus, degree, permute = key
        dense, auto = modes.get("dense"), modes.get("auto")
        if dense is None or auto is None:
            continue
        if auto["epoch_seconds"] <= 0 or dense["epoch_seconds"] <= 0:
            continue
        speedup = dense["epoch_seconds"] / auto["epoch_seconds"]
        name = (f"{machine}/gpus:{gpus}/deg:{degree}/"
                f"perm:{'on' if permute else 'off'}")
        speedups[name] = speedup
        report.append(f"comm {name}: auto {speedup:.2f}x over dense")
        if speedup < min_everywhere:
            failures.append(
                f"comm: auto slower than dense on {name}: {speedup:.3f}x "
                f"(required >= {min_everywhere:.3f}x everywhere)")
        if gpus == gate_gpus and degree <= gate_max_degree:
            gate_rows += 1
            if speedup < gate_speedup:
                failures.append(
                    f"comm gate: {name} is {speedup:.2f}x over dense "
                    f"(the low-density low-bandwidth config must reach "
                    f"{gate_speedup:.2f}x)")
            if auto["wire_bytes"] >= dense["wire_bytes"]:
                failures.append(
                    f"comm gate: {name} moved {auto['wire_bytes']} wire "
                    f"bytes, not fewer than dense's {dense['wire_bytes']}")
    if gate_rows == 0:
        failures.append(
            f"comm gate: no rows at gpus={gate_gpus} with avg_degree <= "
            f"{gate_max_degree}; the low-bandwidth gate did not run")
    return failures, report, speedups


def plan_groups(rows: list[dict]) -> dict[tuple, dict[str, dict]]:
    """(machine, gpus, n, avg_degree, d) -> plan mode -> row."""
    groups: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        key = (row["machine"], row["gpus"], row["n"], row["avg_degree"],
               row["d"])
        groups.setdefault(key, {})[row["plan"]] = row
    return groups


def check_plan(rows: list[dict], min_vs_fixed: float, win_speedup: float
               ) -> tuple[list[str], list[str], dict[str, float]]:
    """The auto-vs-fixed-strategy planner gate over bench_planner rows."""
    failures, report = [], []
    speedups: dict[str, float] = {}
    non_1d_wins = 0
    for key, modes in sorted(plan_groups(rows).items()):
        machine, gpus, n, degree, d = key
        auto = modes.get("auto")
        if auto is None or auto["epoch_seconds"] <= 0:
            continue
        name = f"{machine}/gpus:{gpus}/n:{n}/deg:{degree}/d:{d}"
        fixed = {mode: row for mode, row in modes.items()
                 if mode != "auto" and row["epoch_seconds"] > 0}
        for mode, row in sorted(fixed.items()):
            ratio = row["epoch_seconds"] / auto["epoch_seconds"]
            if ratio < min_vs_fixed:
                failures.append(
                    f"plan: auto slower than forced {mode} on {name}: "
                    f"{ratio:.3f}x (required >= {min_vs_fixed:.3f}x against "
                    f"every fixed strategy)")
        if "1d" in fixed:
            vs_1d = fixed["1d"]["epoch_seconds"] / auto["epoch_seconds"]
            speedups[name] = vs_1d
            plan = auto.get("plan_counters", {})
            routed = (plan.get("products_15d", 0) +
                      plan.get("products_replicated", 0))
            report.append(
                f"plan {name}: auto {vs_1d:.2f}x over 1d "
                f"(products 1d/15d/rep = {plan.get('products_1d', 0)}/"
                f"{plan.get('products_15d', 0)}/"
                f"{plan.get('products_replicated', 0)})")
            if routed > 0 and vs_1d >= win_speedup:
                non_1d_wins += 1
    if not speedups:
        failures.append("plan gate: no (auto, 1d) row pairs found; the "
                        "planner gate did not run")
    elif non_1d_wins == 0:
        failures.append(
            f"plan gate: no config where auto routes products off the 1d "
            f"path and beats forced 1d by {win_speedup:.2f}x; the "
            f"mixture-of-parallelism payoff regimes are gone")
    return failures, report, speedups


def part_groups(rows: list[dict]) -> dict[tuple, dict[str, dict]]:
    """(machine, gpus, nodes) -> partitioner mode -> row."""
    groups: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        key = (row["machine"], row["gpus"], row["nodes"])
        groups.setdefault(key, {})[row["part"]] = row
    return groups


def check_part(rows: list[dict], min_speedup: float, gate_min_gpus: int,
               max_imbalance: float, win_speedup: float, win_nodes: int
               ) -> tuple[list[str], list[str], dict[str, float]]:
    """The partitioner gate over bench_multinode_scaling rows."""
    failures, report = [], []
    speedups: dict[str, float] = {}
    best_win: tuple[float, str] | None = None
    win_groups = 0
    for key, modes in sorted(part_groups(rows).items()):
        machine, gpus, nodes = key
        random = modes.get("random")
        if random is None or random["epoch_seconds"] <= 0:
            continue
        name = f"{machine}/gpus:{gpus}/nodes:{nodes}"
        gated = gpus >= gate_min_gpus
        for mode in ("locality", "hier", "auto"):
            row = modes.get(mode)
            if row is None or row["epoch_seconds"] <= 0:
                continue
            speedup = random["epoch_seconds"] / row["epoch_seconds"]
            report.append(f"part {name}/{mode}: {speedup:.2f}x over random, "
                          f"wire {row['wire_bytes']} vs "
                          f"{random['wire_bytes']}, imbalance "
                          f"{row['imbalance']:.3f}")
            if mode == "locality":
                speedups[name] = speedup
            if not gated:
                continue
            if row["imbalance"] > max_imbalance:
                failures.append(
                    f"part gate: {name}/{mode} imbalance "
                    f"{row['imbalance']:.3f} exceeds the "
                    f"{max_imbalance:.2f} balance contract")
            if mode in ("locality", "hier"):
                if row["wire_bytes"] >= random["wire_bytes"]:
                    failures.append(
                        f"part gate: {name}/{mode} moved "
                        f"{row['wire_bytes']} wire bytes, not fewer than "
                        f"random's {random['wire_bytes']}")
                if nodes == win_nodes:
                    win_groups += 1
                    if best_win is None or speedup > best_win[0]:
                        best_win = (speedup, f"{name}/{mode}")
            if mode == "auto" and speedup < min_speedup:
                failures.append(
                    f"part gate: auto slower than random on {name}: "
                    f"{speedup:.3f}x (required >= {min_speedup:.3f}x; the "
                    f"cost-model selector must never lose)")
    if win_groups == 0:
        failures.append(
            f"part gate: no locality/hier rows at nodes={win_nodes} with "
            f"gpus >= {gate_min_gpus}; the cluster scale-out gate did not "
            f"run")
    elif best_win is not None and best_win[0] < win_speedup:
        failures.append(
            f"part gate: best locality/hier epoch win at nodes={win_nodes} "
            f"is {best_win[0]:.2f}x ({best_win[1]}); at least one must "
            f"reach {win_speedup:.2f}x over random")
    return failures, report, speedups


def cache_groups(rows: list[dict]) -> dict[tuple, list[dict]]:
    """(dataset, gpus) -> rows of that sweep cell."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["gpus"]), []).append(row)
    return groups


def check_cache(rows: list[dict], pipe_speedup: float, gate_min_gpus: int,
                min_vs_off: float, monotone_eps: float
                ) -> tuple[list[str], list[str], dict[str, float]]:
    """The sampled-pipeline gate over bench_sampled_pipeline rows."""
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_groups = 0
    for key, group in sorted(cache_groups(rows).items()):
        dataset, gpus = key
        name = f"{dataset}/gpus:{gpus}"

        def pick(engine: str, mode: str) -> dict | None:
            rows_ = [r for r in group if r["engine"] == engine
                     and r["cache_mode"] == mode and r["seconds"] > 0]
            return rows_[0] if rows_ else None

        serial = pick("serialized", "off")
        pipe_off = pick("pipelined", "off")
        pipe_auto = pick("pipelined", "auto")
        if serial is None or pipe_off is None or pipe_auto is None:
            print(f"warning: cache group {name} lacks a serialized/off/auto "
                  f"row; skipped", file=sys.stderr)
            continue

        speedup = serial["seconds"] / pipe_auto["seconds"]
        speedups[name] = speedup
        vs_off = pipe_off["seconds"] / pipe_auto["seconds"]
        report.append(
            f"cache {name}: pipelined+auto {speedup:.2f}x over serialized "
            f"({vs_off:.2f}x over cache-off, hit rate "
            f"{pipe_auto['hit_rate']:.3f}, resolved "
            f"{pipe_auto.get('resolved_mode', '?')})")

        if vs_off < min_vs_off:
            failures.append(
                f"cache: auto slower than cache-off on {name}: "
                f"{vs_off:.3f}x (required >= {min_vs_off:.3f}x; the "
                f"cost-model selector must never lose)")

        freq = sorted((r for r in group if r["engine"] == "pipelined"
                       and r["cache_mode"] == "freq"),
                      key=lambda r: r["capacity_fraction"])
        for lo, hi in zip(freq, freq[1:]):
            if hi["hit_rate"] < lo["hit_rate"] - monotone_eps:
                failures.append(
                    f"cache: hit rate not monotone in capacity on {name}: "
                    f"{lo['hit_rate']:.3f} @ {lo['capacity_fraction']} -> "
                    f"{hi['hit_rate']:.3f} @ {hi['capacity_fraction']}")

        if gpus >= gate_min_gpus:
            gate_groups += 1
            if speedup < pipe_speedup:
                failures.append(
                    f"cache gate: {name} pipelined+auto is {speedup:.2f}x "
                    f"over serialized (required {pipe_speedup:.2f}x)")
    if gate_groups == 0:
        failures.append(
            f"cache gate: no groups at gpus >= {gate_min_gpus}; the "
            f"pipeline-overlap gate did not run")
    return failures, report, speedups


def serve_groups(rows: list[dict]) -> dict[tuple, dict[tuple, dict]]:
    """(dataset, gpus, load_qps, skew) -> (policy, cache_mode) -> row."""
    groups: dict[tuple, dict[tuple, dict]] = {}
    for row in rows:
        if row.get("qps", 0) <= 0:
            continue
        key = (row["dataset"], row["gpus"], row["load_qps"], row["skew"])
        groups.setdefault(key, {})[(row["policy"], row["cache_mode"])] = row
    return groups


def check_mem(rows: list[dict], combined_reduction: float,
              gate_min_gpus: int) -> tuple[list[str], list[str],
                                           dict[str, float]]:
    """The workspace-pool gate over bench_memory_pool rows."""
    failures, report = [], []
    reductions: dict[str, float] = {}
    best_combined: tuple[float, str] | None = None
    combined_gate_rows = 0
    for row in rows:
        name = (f"{row['workload']}/{row['dataset']}/gpus:{row['gpus']}"
                f"/layers:{row['layers']}")
        reduction = row.get("reduction", 0.0)
        reductions[name] = reduction
        report.append(
            f"mem {name}: pooled {row['pooled_peak_bytes']} B vs static "
            f"{row['static_peak_bytes']} B ({reduction:.2f}x, "
            f"{row.get('reuse_hits', 0)} reuse hits)")

        # The pool must never cost memory: exact-size slabs, the
        # split-waste cap, and trim-before-grow keep the pooled ledger at
        # or below the static scheme's on every workload.
        if row["pooled_peak_bytes"] > row["static_peak_bytes"]:
            failures.append(
                f"mem: pooled peak exceeds static on {name}: "
                f"{row['pooled_peak_bytes']} B > "
                f"{row['static_peak_bytes']} B")
        # Recycling changes where scratch lives, never what it holds.
        if not row.get("parity", False):
            failures.append(
                f"mem: numerics not bit-identical across MGGCN_POOL modes "
                f"x sched-fuzz seeds on {name}")
        if not row.get("hazard_clean", False):
            failures.append(
                f"mem: hazard checker flagged the recycling on {name}")

        if row["workload"] == "combined" and row["gpus"] >= gate_min_gpus:
            combined_gate_rows += 1
            if best_combined is None or reduction > best_combined[0]:
                best_combined = (reduction, name)
    if combined_gate_rows == 0:
        failures.append(
            f"mem gate: no combined pipeline+serving cell at gpus >= "
            f"{gate_min_gpus}; the cross-component reuse gate did not run")
    elif best_combined is None or best_combined[0] < combined_reduction:
        where = (f" (best: {best_combined[1]} at {best_combined[0]:.2f}x)"
                 if best_combined else "")
        failures.append(
            f"mem gate: no combined cell reaches a "
            f"{combined_reduction:.2f}x reuse-driven footprint "
            f"reduction{where}")
    return failures, report, reductions


def check_serve(rows: list[dict], batch_speedup: float, gate_min_gpus: int,
                min_vs_off: float) -> tuple[list[str], list[str],
                                            dict[str, float]]:
    """The serving gate over bench_serving rows."""
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_groups = 0
    best_win: tuple[float, str] | None = None
    for key, cells in sorted(serve_groups(rows).items()):
        dataset, gpus, load, skew = key
        name = f"{dataset}/gpus:{gpus}/load:{load}/skew:{skew}"

        # The auto cache must never lose QPS to off under the same policy.
        for policy in ("per-request", "fixed", "deadline"):
            off = cells.get((policy, "off"))
            auto = cells.get((policy, "auto"))
            if off is None or auto is None or off["qps"] <= 0:
                continue
            ratio = auto["qps"] / off["qps"]
            if ratio < min_vs_off:
                failures.append(
                    f"serve: auto cache slower than off on {name}/{policy}: "
                    f"{ratio:.3f}x (required >= {min_vs_off:.3f}x; the "
                    f"cache planner must never lose)")

        per_request = cells.get(("per-request", "off"))
        deadline = cells.get(("deadline", "off"))
        if per_request is None or deadline is None or \
                per_request["qps"] <= 0:
            continue
        speedup = deadline["qps"] / per_request["qps"]
        speedups[name] = speedup
        p99_ok = deadline["p99"] <= per_request["p99"]
        report.append(
            f"serve {name}: deadline {speedup:.2f}x QPS over per-request "
            f"(p99 {deadline['p99'] * 1e6:.1f}us vs "
            f"{per_request['p99'] * 1e6:.1f}us, mean batch "
            f"{deadline['mean_batch']:.1f})")
        if gpus >= gate_min_gpus:
            gate_groups += 1
            if p99_ok and (best_win is None or speedup > best_win[0]):
                best_win = (speedup, name)
    if gate_groups == 0:
        failures.append(
            f"serve gate: no groups at gpus >= {gate_min_gpus}; the "
            f"micro-batching gate did not run")
    elif best_win is None or best_win[0] < batch_speedup:
        where = f" (best: {best_win[1]} at {best_win[0]:.2f}x)" \
            if best_win else ""
        failures.append(
            f"serve gate: no group where deadline batching reaches "
            f"{batch_speedup:.2f}x per-request QPS at equal-or-better "
            f"p99{where}")
    return failures, report, speedups


def check_baseline(section: str, label: str, regression: str,
                   values: dict[str, float], baseline_doc: dict,
                   max_regression: float) -> list[str]:
    """Each config's gate ratio against the baseline's ``section``, if any.

    ``regression`` formats the current ratio for the failure line, e.g.
    ``"auto is {:.2f}x over dense"``.
    """
    failures = []
    for name, base in sorted(baseline_doc.get(section, {}).items()):
        if name not in values:
            print(f"warning: baseline {label} config not in current run: "
                  f"{name}", file=sys.stderr)
            continue
        floor = base * (1.0 - max_regression)
        if values[name] < floor:
            failures.append(
                f"{label} regression: {name}: "
                f"{regression.format(values[name])} < {floor:.2f}x "
                f"(baseline {base:.2f}x, allowed -{max_regression:.0%})")
    return failures


class Gate(NamedTuple):
    """One bench gate: its CLI flag (also the failure-line label), the
    bench's JSON tag, its perf_baseline.json section, the noun its configs
    are counted by, the baseline-regression phrase, and the check."""
    flag: str
    bench: str
    section: str
    noun: str
    regression: str
    check: Callable[[list[dict], argparse.Namespace],
                    tuple[list[str], list[str], dict[str, float]]]


GATES = (
    Gate("comm", "comm_volume", "comm_volume", "comm configs",
         "auto is {:.2f}x over dense",
         lambda rows, a: check_comm(rows, a.comm_min_speedup,
                                    a.comm_gate_gpus, a.comm_gate_max_degree,
                                    a.comm_gate_speedup)),
    Gate("plan", "planner", "plan", "plan configs",
         "auto is {:.2f}x over 1d",
         lambda rows, a: check_plan(rows, a.plan_min_speedup,
                                    a.plan_win_speedup)),
    Gate("part", "multinode_scaling", "part", "part configs",
         "locality is {:.2f}x over random",
         lambda rows, a: check_part(rows, a.part_min_speedup,
                                    a.part_gate_min_gpus,
                                    a.part_max_imbalance, a.part_win_speedup,
                                    a.part_win_nodes)),
    Gate("cache", "sampled_pipeline", "cache", "cache configs",
         "pipelined+auto is {:.2f}x over serialized",
         lambda rows, a: check_cache(rows, a.cache_pipe_speedup,
                                     a.cache_gate_min_gpus,
                                     a.cache_min_speedup,
                                     a.cache_monotone_eps)),
    Gate("serve", "serving", "serve", "serve configs",
         "deadline is {:.2f}x over per-request",
         lambda rows, a: check_serve(rows, a.serve_batch_speedup,
                                     a.serve_gate_min_gpus,
                                     a.serve_min_speedup)),
    Gate("mem", "memory-pool", "mem", "mem cells",
         "footprint reduction is {:.2f}x",
         lambda rows, a: check_mem(rows, a.mem_combined_reduction,
                                   a.mem_gate_min_gpus)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, nargs="?", default=None,
                        help="bench_kernels JSON from this run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional throughput drop vs the "
                        "baseline (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="required tiled-over-naive GeMM throughput "
                        "ratio (default: %(default)s)")
    parser.add_argument("--min-planned-speedup", type=float, default=1.2,
                        help="required planned-over-naive ratio on every "
                        "large Spmm/SpmmSkew case (default: %(default)s)")
    parser.add_argument("--min-skew-speedup", type=float, default=1.44,
                        help="planned-over-naive ratio at least one large "
                        "SpmmSkew case must reach (default: %(default)s)")
    parser.add_argument("--large-n", type=int, default=16384,
                        help="row count that marks a case as large for the "
                        "planned gates (default: %(default)s)")
    parser.add_argument("--comm", type=Path, default=None,
                        help="bench_comm_volume JSON to gate (check 4)")
    parser.add_argument("--comm-min-speedup", type=float, default=0.999,
                        help="auto-over-dense epoch ratio required on every "
                        "comm config (default: %(default)s)")
    parser.add_argument("--comm-gate-gpus", type=int, default=2,
                        help="GPU count of the low-bandwidth gate config "
                        "(cube-mesh pairs see 2 of 6 links; default: "
                        "%(default)s)")
    parser.add_argument("--comm-gate-max-degree", type=int, default=2,
                        help="largest avg degree counted as the low-density "
                        "gate (default: %(default)s)")
    parser.add_argument("--comm-gate-speedup", type=float, default=1.2,
                        help="auto-over-dense ratio required on the gate "
                        "rows (default: %(default)s)")
    parser.add_argument("--plan", type=Path, default=None,
                        help="bench_planner JSON to gate (check 5)")
    parser.add_argument("--plan-min-speedup", type=float, default=0.999,
                        help="auto-over-fixed epoch ratio required against "
                        "every fixed strategy (default: %(default)s)")
    parser.add_argument("--plan-win-speedup", type=float, default=1.15,
                        help="auto-over-1d ratio at least one non-1d-routed "
                        "config must reach (default: %(default)s)")
    parser.add_argument("--part", type=Path, default=None,
                        help="bench_multinode_scaling JSON to gate (check 6)")
    parser.add_argument("--part-min-speedup", type=float, default=0.999,
                        help="auto-over-random epoch ratio required on every "
                        "gated partitioner config (default: %(default)s)")
    parser.add_argument("--part-gate-min-gpus", type=int, default=8,
                        help="smallest GPU count the partitioner gate "
                        "applies to (default: %(default)s)")
    parser.add_argument("--part-max-imbalance", type=float, default=1.15,
                        help="largest nnz imbalance a locality/hier/auto "
                        "partition may show (default: %(default)s)")
    parser.add_argument("--part-win-speedup", type=float, default=1.2,
                        help="locality/hier-over-random ratio at least one "
                        "multi-node config must reach (default: %(default)s)")
    parser.add_argument("--part-win-nodes", type=int, default=8,
                        help="node count of the cluster scale-out win rows "
                        "(default: %(default)s)")
    parser.add_argument("--cache", type=Path, default=None,
                        help="bench_sampled_pipeline JSON to gate (check 7)")
    parser.add_argument("--cache-pipe-speedup", type=float, default=1.3,
                        help="pipelined+auto-over-serialized epoch ratio "
                        "required on every gated group (default: %(default)s)")
    parser.add_argument("--cache-gate-min-gpus", type=int, default=4,
                        help="smallest device count the pipeline gate "
                        "applies to (default: %(default)s)")
    parser.add_argument("--cache-min-speedup", type=float, default=0.999,
                        help="auto-over-cache-off epoch ratio required on "
                        "every group (default: %(default)s)")
    parser.add_argument("--cache-monotone-eps", type=float, default=0.005,
                        help="allowed hit-rate dip between adjacent cache "
                        "capacities (default: %(default)s)")
    parser.add_argument("--serve", type=Path, default=None,
                        help="bench_serving JSON to gate (check 8)")
    parser.add_argument("--serve-batch-speedup", type=float, default=1.2,
                        help="deadline-over-per-request QPS ratio at least "
                        "one gated group must reach at equal-or-better p99 "
                        "(default: %(default)s)")
    parser.add_argument("--serve-gate-min-gpus", type=int, default=4,
                        help="smallest device count the micro-batching gate "
                        "applies to (default: %(default)s)")
    parser.add_argument("--serve-min-speedup", type=float, default=0.999,
                        help="auto-cache-over-off QPS ratio required on "
                        "every serving config (default: %(default)s)")
    parser.add_argument("--mem", type=Path, default=None,
                        help="bench_memory_pool JSON to gate (check 9)")
    parser.add_argument("--mem-combined-reduction", type=float, default=1.2,
                        help="static-over-pooled peak-bytes ratio at least "
                        "one combined pipeline+serving cell must reach "
                        "(default: %(default)s)")
    parser.add_argument("--mem-gate-min-gpus", type=int, default=4,
                        help="smallest device count the combined-reduction "
                        "gate applies to (default: %(default)s)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run "
                        "instead of checking against it")
    args = parser.parse_args()

    if args.current is None and all(getattr(args, g.flag) is None
                                    for g in GATES):
        flags = ", ".join(f"--{g.flag} <json>" for g in GATES)
        print(f"error: pass a bench_kernels JSON, {flags}, or a combination",
              file=sys.stderr)
        return 1

    current: dict[str, float] = {}
    if args.current is not None:
        current = load_throughputs(args.current)
        if not current:
            print(f"error: no '{COUNTER}' counters in {args.current}",
                  file=sys.stderr)
            return 1

    rows = {g.flag: load_rows(getattr(args, g.flag), g.bench)
            for g in GATES if getattr(args, g.flag) is not None}
    values: dict[str, dict[str, float]] = {}

    def counts() -> str:
        return ", ".join([f"{len(current)} benchmarks"] + [
            f"{len(values.get(g.flag, {}))} {g.noun}" for g in GATES])

    if args.update:
        payload = {}
        if args.baseline.exists():
            payload = json.loads(args.baseline.read_text())
        payload.setdefault(
            "_comment",
            "Recorded bench_kernels throughput; refresh with "
            "scripts/check_perf.py <json> --update after an "
            "intentional perf change.")
        payload["counter"] = COUNTER
        if current:
            payload["benchmarks"] = {k: current[k] for k in sorted(current)}
        for g in GATES:
            if g.flag in rows:
                _, _, values[g.flag] = g.check(rows[g.flag], args)
                payload[g.section] = {k: values[g.flag][k]
                                      for k in sorted(values[g.flag])}
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated: {args.baseline} ({counts()})")
        return 0

    failures: list[str] = []
    baseline_doc: dict = {}
    if args.baseline.exists():
        baseline_doc = json.loads(args.baseline.read_text())
        if current:
            failures += check_regressions(current,
                                          baseline_doc["benchmarks"],
                                          args.max_regression)
    else:
        print(f"warning: baseline {args.baseline} not found; skipping the "
              f"regression check", file=sys.stderr)

    report: list[str] = []
    if current:
        speedup_failures, speedup_report = check_speedups(current,
                                                          args.min_speedup)
        failures += speedup_failures
        planned_failures, planned_report = check_planned(
            current, args.min_planned_speedup, args.min_skew_speedup,
            args.large_n)
        failures += planned_failures
        report += speedup_report + planned_report

    for g in GATES:
        if g.flag not in rows:
            continue
        gate_failures, gate_report, values[g.flag] = g.check(rows[g.flag],
                                                             args)
        failures += gate_failures
        failures += check_baseline(g.section, g.flag, g.regression,
                                   values[g.flag], baseline_doc,
                                   args.max_regression)
        report += gate_report
    for line in report:
        print(line)

    if failures:
        print(f"\ncheck_perf: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_perf: OK ({counts()} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
