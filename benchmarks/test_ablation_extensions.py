"""Ablation: the extension features built on the NPD-index.

* **Top-k** (§8 future work) — cost vs k, and vs an equivalent-radius
  coverage query.
* **Incremental maintenance** — patching a keyword in vs rebuilding the
  fragment indexes from scratch.
* **Theorem-5 cost model** — predicted operation counts vs measured
  task times across a query batch (rank correlation).
"""

from __future__ import annotations

import statistics
import time

from repro.core import (
    KeywordMaintainer,
    KeywordSource,
    NPDBuildConfig,
    TopKQuery,
    build_all_indexes,
    build_npd_index,
    theorem5_cost,
)

from common import DEFAULT_FRAGMENTS, dataset, engine, sgkq_batch
from repro.bench_support import Table, print_experiment_header

LAMBDA = 20.0


def test_ablation_topk_cost(benchmark):
    print_experiment_header(
        "ABLATION",
        "§8 top-k extension",
        "AUS: top-k nearest-keyword query cost vs k.",
    )
    deployment = engine("aus_mini", DEFAULT_FRAGMENTS, LAMBDA)
    keyword = dataset("aus_mini").frequent_keywords(1)[0]
    radius = deployment.max_radius

    table = Table("Top-k query time (ms) vs k, AUS", ["k", "time (ms)", "saturated"])
    for k in (1, 10, 100, 1000):
        query = TopKQuery(KeywordSource(keyword), k, radius)
        started = time.perf_counter()
        result = deployment.top_k(query)
        ms = (time.perf_counter() - started) * 1000
        table.add_row(k, ms, result.saturated)
        # Ranking is sorted and within the radius.
        dists = [d for _n, d in result.ranking]
        assert dists == sorted(dists)
        assert all(d <= radius for d in dists)
    table.show()

    benchmark(lambda: deployment.top_k(TopKQuery(KeywordSource(keyword), 10, radius)))


def test_ablation_incremental_maintenance_vs_rebuild(benchmark):
    print_experiment_header(
        "ABLATION",
        "incremental maintenance",
        "AUS: patching one keyword update vs rebuilding all fragment indexes.",
    )
    deployment = engine("aus_mini", DEFAULT_FRAGMENTS, LAMBDA)
    net = dataset("aus_mini").network
    # Build fresh index copies so the memoised engine stays pristine.
    fresh_indexes = [
        build_npd_index(net, fragment, NPDBuildConfig(lambda_factor=LAMBDA))[0]
        for fragment in deployment.fragments
    ]
    maintainer = KeywordMaintainer(
        net, deployment.partition, list(deployment.fragments), fresh_indexes
    )
    node = next(iter(net.object_nodes()))

    started = time.perf_counter()
    maintainer.add_keyword(node, "bench-kw")
    patch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    build_all_indexes(
        maintainer.network, maintainer.fragments, NPDBuildConfig(lambda_factor=LAMBDA)
    )
    rebuild_seconds = time.perf_counter() - started

    table = Table(
        "One keyword addition: incremental patch vs full rebuild (AUS)",
        ["approach", "seconds"],
    )
    table.add_row("incremental patch", patch_seconds)
    table.add_row("full rebuild", rebuild_seconds)
    table.show()

    assert patch_seconds < rebuild_seconds / 5, (
        f"patching ({patch_seconds:.3f}s) should beat rebuilding "
        f"({rebuild_seconds:.3f}s) comfortably"
    )

    benchmark(lambda: maintainer.add_keyword(node, "bench-kw"))  # idempotent no-op path


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation, computed by hand (no scipy needed)."""

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        for rank, i in enumerate(order):
            result[i] = float(rank)
        return result

    rx, ry = ranks(xs), ranks(ys)
    n = len(rx)
    mean_x, mean_y = statistics.mean(rx), statistics.mean(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry)) / n
    var_x = sum((a - mean_x) ** 2 for a in rx) / n
    var_y = sum((b - mean_y) ** 2 for b in ry) / n
    return cov / (var_x * var_y) ** 0.5


def test_ablation_theorem5_cost_model(benchmark):
    print_experiment_header(
        "ABLATION",
        "Theorem 5 cost model",
        "AUS: predicted per-fragment operation count vs measured task time.",
    )
    deployment = engine("aus_mini", DEFAULT_FRAGMENTS, LAMBDA)
    batch = sgkq_batch("aus_mini", 7, deployment.max_radius, seed=5)

    predictions: list[float] = []
    measurements: list[float] = []
    for query in batch:
        report = deployment.execute(query)
        keywords = query.keywords()
        for index in deployment.indexes:
            fragment_id = index.fragment_id
            sizes = report.coverage_sizes[fragment_id]
            predictions.append(theorem5_cost(index, keywords, list(sizes)))
            measurements.append(report.fragment_seconds[fragment_id])

    rho = spearman(predictions, measurements)

    # The same model against exact work: the settled nodes and seeds of
    # each task's bounded searches, which no timer noise can reorder.
    work_predictions: list[float] = []
    work: list[float] = []
    for query in batch:
        response = deployment.cluster.execute(query)
        for task in response.task_results:
            index = deployment.indexes[task.fragment_id]
            work_predictions.append(
                theorem5_cost(index, query.keywords(), list(task.coverage_sizes))
            )
            stats = task.stats
            work.append(stats.settled_nodes + stats.seeds_from_dl + stats.seeds_local)
    work_rho = spearman(work_predictions, work)

    table = Table("Theorem-5 model fidelity", ["against", "samples", "Spearman rho"])
    table.add_row("task seconds", len(predictions), rho)
    table.add_row("settled + seeds", len(work), work_rho)
    table.show()

    assert rho > 0.5, f"cost model should rank fragment costs usefully, rho={rho:.2f}"
    assert work_rho >= 0.9, f"cost model should rank exact work, rho={work_rho:.2f}"

    query = batch[0]
    benchmark(lambda: deployment.execute(query))
