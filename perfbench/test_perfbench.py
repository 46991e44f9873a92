"""Self-tests of the benchmark: deterministic, no wall-clock thresholds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import common, run, serve, tracing, worker

common.require_source()


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    bounds = {m["name"]: m.pop("bound") for m in spec["end_to_end"]}
    assert bounds.pop("setup_s") == 0.25 > max(bounds.values())


def test_segment_rates_use_fixed_size_segments():
    stamps = [1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 7.5]
    assert common.segment_rates(0.0, stamps, 3) == [1.0, 0.75]
    assert common.segment_rates(0.0, stamps[:2], 3) == []


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert common.percentile(values, 50) == 2.5
    assert common.percentile(values, 100) == 4.0
    assert common.percentile(values, 99) == pytest.approx(3.97)


def _synthetic_spans():
    # pass [0, 10] > placement [1, 3]; session [3, 9] > group_index [4, 7] > topology [5, 6]
    rows = [("pass", 0, 10, -1), ("placement", 1, 3, 0), ("session", 3, 9, 0),
            ("group_index", 4, 7, 2), ("topology", 5, 6, 3)]
    return [(name, float(start), float(end), parent, 1, "cold") for name, start, end, parent in rows]


def test_self_times_subtract_direct_children():
    assert tracing.self_times(_synthetic_spans()) == [2.0, 2.0, 3.0, 2.0, 1.0]


def test_phase_shares_add_up_to_the_wall():
    seconds, wall = tracing.self_seconds(_synthetic_spans(), phase="cold")
    assert wall == 10.0
    metrics = tracing.phase_metrics("cold", seconds, wall, Counter())
    assert metrics["cold.placement.share"] == 0.2
    assert metrics["cold.group_index.share"] == 0.2
    assert metrics["cold.topology.share"] == 0.1
    assert metrics["cold.session.self_share"] == 0.5  # session 3 s + pass glue 2 s
    assert sum(v for k, v in metrics.items() if "share" in k) == pytest.approx(1.0)
    windowed, _ = tracing.self_seconds(_synthetic_spans(), windows=[(3.5, 9.0)])
    assert set(windowed) == {"group_index", "topology"}


def test_tiny_figure_sweep_checks_its_table():
    tracer = tracing.Tracer(enabled=False)
    first = worker.figure_sweep(0, 0.0, tracer, worker.UnitSpeed, sweep=worker.TINY_FIGURE)
    assert first["attempted"] > 0 and first["problems"] == []
    from repro.experiments.figures import figure5_spec
    from repro.experiments.runner import run_experiment

    spec = figure5_spec(**worker.TINY_FIGURE)
    golden = {str(seed): worker.figure_table(run_experiment(spec, seed=seed), (1,)) for seed in range(2)}
    assert worker.figure_sweep(0, 0.0, tracer, worker.UnitSpeed, sweep=worker.TINY_FIGURE, golden=golden)["failed"] == 0
    table = golden["0"]
    wrong = [[*table[0][:2], table[0][2] + 1, table[0][3]]]
    assert worker.table_problems(table, wrong)
    assert worker.table_problems(table, None)


def test_golden_tables_cover_every_seed():
    golden = json.loads(worker.GOLDEN.read_text())
    assert golden["sweep"] == json.loads(json.dumps(worker.FIGURE))
    assert sorted(map(int, golden["tables"])) == list(range(worker.GOLDEN_SEEDS))


def test_tiny_supermarket_checks_rows_and_arrivals():
    out = worker.supermarket(2, 0.0, tracing.Tracer(enabled=False), worker.UnitSpeed, size=worker.TINY_SUPERMARKET)
    assert out["problems"] == [] and out["attempted"] == worker.COLD_REPEATS + 2 * 6
    cold = {"completed": 10, "avg hops": 1.0}
    cycle = {point: dict(cold) for point in ((r, d) for r in worker.RATES for d in worker.CHOICES)}
    arrivals = {0.5: 32, 0.7: 45, 0.9: 58}
    size = worker.TINY_SUPERMARKET
    assert worker.supermarket_problems([cold], [cycle], arrivals, size) == []
    drifted = {**cycle, worker.COLD_POINT: {"completed": 10, "avg hops": 1.5}}
    assert worker.supermarket_problems([cold], [cycle, drifted], arrivals, size)
    assert worker.supermarket_problems([cold], [cycle], {**arrivals, 0.9: 5}, size)


def test_tiny_serve_replays_bit_identically():
    out = serve.run(seed=1, seconds=1, traced=False, probes=0)
    assert out["problems"] == [] and out["failed"] == 0
    assert out["attempted"] == 2 * serve.CHUNK + int(serve.OPEN_RATE * serve.OPEN_SHARE)


def test_replay_check_catches_a_wrong_decision(tmp_path):
    from repro.service.journal import DispatchJournal, recover_session

    journal = tmp_path / "journal.jsonl"
    spec = {"kind": "assignment", "seed": 4, "engine": "auto", "topology": "torus",
            "nodes": serve.NODES, "files": serve.FILES, "cache": serve.CACHE, "popularity": "uniform",
            "gamma": None, "placement": "proportional", "mu": 1.0, "radius": serve.RADIUS,
            "choices": serve.CHOICES, "strategy": "proximity_two_choice"}
    origins, files = serve.draw_requests(4, 0, 8)
    with DispatchJournal.create(journal, kind="assignment", spec=spec, seed=4) as writer:
        writer.append_batch(0, origins, files, None, [(8, None)])
    recovered = recover_session(journal)
    from repro.service.journal import build_session_from_spec

    result = build_session_from_spec(spec).dispatch_batch(origins, files)
    log = serve.ClientLog()
    log.decisions.append((0, origins, files, list(result.servers), list(result.distances)))
    assert serve.replay_problems(journal, log, recovered, 4) == []
    log.decisions[0][3][0] = (log.decisions[0][3][0] + 1) % serve.NODES
    assert serve.replay_problems(journal, log, recovered, 4)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "correct" not in done.stdout
