"""The ``serve`` workload: ``repro serve`` in its own process, driven from this one.

The server is a static d-choice session (torus n = 4096, K = 128, M = 8,
r = 8) with the write-ahead journal on.  This process is the one client.
Requests pick origins uniformly and files from Zipf(0.8): a 524,288-key
(origin, file) space, which fits the server's 1M-row ``GroupStore``.  Three
phases, sized from ``--seconds``:

1. closed loop: ``CONNECTIONS`` connections send ``BATCH``-request
   ``POST /dispatch/batch`` calls back to back.  Its rate is the service's
   saturation throughput.  It runs in chunks with a host-speed probe (see
   ``common``) between them.
2. open loop: single ``POST /dispatch`` calls on a seeded Poisson schedule
   at ``OPEN_RATE`` req/s, each timed from its scheduled send time.  The rate
   sits well below what two keep-alive connections carry for single
   requests (~440 req/s at a ~4.5 ms round trip on a 2-core Xeon guest, 2 ms
   of it flush patience), so the latency is the service's, not the client
   pool's.
3. recovery: the server is stopped (SIGINT, a graceful drain) and
   ``recover_session`` rebuilds its session from the journal, verifying every
   checkpoint fingerprint, ``RECOVERIES`` times.  The median wall time is the
   workload's ``cold_s``.

Then the output check: an offline session replays the journaled batches in
``seq`` order and must reproduce every served server and distance, and its
final ``state_digest()`` must equal the recovered session's.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import common, tracing

HERE = Path(__file__).resolve().parent
NODES, FILES, CACHE, RADIUS, CHOICES = 4096, 128, 8, 8.0, 2
ZIPF = 0.8
BATCH = 64
CONNECTIONS = 2
#: Closed-loop batches per second of ``--seconds`` (~3 s of saturation at 30 s).
CLOSED_BATCHES_PER_S = 21
#: The closed loop runs in chunks of this many batches with a host-speed
#: probe between chunks; each chunk is two rate segments.
CHUNK = 64
#: Completed batches per segment of the saturation rate.
SEGMENT = 32
OPEN_RATE = 150.0
#: Share of ``--seconds`` spent in the open loop (1125 samples at 30 s, so
#: eleven lie beyond the p99).
OPEN_SHARE = 0.25
#: Recoveries of the one journal (~2 s each at 30 s); ``cold_s`` is their median.
RECOVERIES = 8
REQUEST_TIMEOUT_S = 5.0


def server_args(seed: int, journal: Path) -> list[str]:
    return [
        "serve", "--nodes", str(NODES), "--files", str(FILES), "--cache", str(CACHE),
        "--radius", str(RADIUS), "--choices", str(CHOICES), "--seed", str(seed),
        "--port", "0", "--journal", str(journal),
    ]


def start_server(seed: int, journal: Path, spans: Path | None) -> tuple[common.Spawned, int]:
    """Spawn ``repro serve`` (via the tracing launcher when ``spans`` is set)."""
    if spans is None:
        cmd = [sys.executable, "-m", "repro.cli", *server_args(seed, journal)]
    else:
        cmd = [sys.executable, str(HERE / "serve_launcher.py"), str(spans), *server_args(seed, journal)]
    path = os.pathsep.join(filter(None, [str(common.SRC), os.environ.get("PYTHONPATH")]))
    server = common.Spawned(cmd, env={**os.environ, "PYTHONPATH": path})
    try:
        line = server.wait_line(lambda text: text.startswith("serving"))
    except BaseException:
        server.kill()
        raise
    return server, int(re.search(r"http://[^\s]+:(\d+)", line).group(1))


def stop_server(server: common.Spawned) -> None:
    server.proc.send_signal(signal.SIGINT)
    code, _ = server.finish()
    if code != 0:
        raise RuntimeError(f"repro serve exited with code {code}")


def draw_requests(seed: int, stream: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform origins and Zipf(ZIPF) files, reproducible from the seed."""
    rng = np.random.default_rng([seed, stream])
    weights = np.arange(1, FILES + 1, dtype=np.float64) ** -ZIPF
    origins = rng.integers(0, NODES, size=count)
    files = rng.choice(FILES, size=count, p=weights / weights.sum())
    return origins, files


class ClientLog:
    """What the client sent and was told, for the offline replay check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        # (seq of the first request, origins, files, servers, distances)
        self.decisions: list[tuple] = []


async def closed_loop(client, batches, log: ClientLog, failures) -> tuple[float, list[float]]:
    stamps: list[float] = []

    async def lane(lane_batches) -> None:
        for origins, files in lane_batches:
            log.attempted += 1
            try:
                response = await client.dispatch_batch(origins, files)
            except failures:
                log.failed += 1
                continue
            stamps.append(perf_counter())
            log.decisions.append((response.seq_start, origins, files, response.servers, response.distances))

    start = perf_counter()
    await asyncio.gather(*(lane(batches[i::CONNECTIONS]) for i in range(CONNECTIONS)))
    return start, stamps


async def open_loop(client, offsets, origins, files, log: ClientLog, failures):
    """Fire one request per scheduled offset; latency counts from the schedule."""
    latency: list[float] = []
    late: list[float] = []

    async def one(index: int, due: float) -> None:
        log.attempted += 1
        try:
            response = await client.dispatch(int(origins[index]), int(files[index]))
        except failures:
            log.failed += 1
            return
        latency.append(perf_counter() - due)
        log.decisions.append(
            (response.seq, origins[index : index + 1], files[index : index + 1], [response.server], [response.distance])
        )

    start = perf_counter()
    tasks = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(perf_counter() - due)
        tasks.append(asyncio.create_task(one(index, due)))
    await asyncio.gather(*tasks)
    return latency, late


async def drive(port: int, server_pid: int, seed: int, seconds: int, traced: bool, speed) -> dict:
    from repro.service.client import DispatchClient, DispatchServiceError
    from repro.service.protocol import ProtocolError

    # Timeouts, connection errors, 4xx and 503 all count as failed requests.
    failures = (DispatchServiceError, ProtocolError, OSError, EOFError)
    log = ClientLog()
    chunks = max(2, round(CLOSED_BATCHES_PER_S * seconds / CHUNK))
    origins, files = draw_requests(seed, 0, chunks * CHUNK * BATCH)
    batches = [(origins[i : i + BATCH], files[i : i + BATCH]) for i in range(0, origins.size, BATCH)]
    open_count = int(OPEN_RATE * OPEN_SHARE * seconds)
    rng = np.random.default_rng([seed, 2])
    offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=open_count))
    open_origins, open_files = draw_requests(seed, 1, open_count)

    # A traced run measures the first half of the chunks before SIGUSR1
    # turns the server's tracing on and the second half after it: the
    # difference is the tracing overhead.
    rates = {False: [], True: []}
    raw_rates, traced_windows = [], []
    async with DispatchClient("127.0.0.1", port, pool_size=CONNECTIONS, timeout=REQUEST_TIMEOUT_S) as client:
        for index in range(chunks):
            tracing_on = traced and index >= chunks // 2
            if tracing_on and index == chunks // 2:
                os.kill(server_pid, signal.SIGUSR1)
                await asyncio.sleep(0.2)
            start, stamps = await closed_loop(client, batches[index * CHUNK : (index + 1) * CHUNK], log, failures)
            if tracing_on:
                traced_windows.append((start, perf_counter()))
            chunk_rates = [BATCH * rate for rate in common.segment_rates(start, stamps, SEGMENT)]
            factor = speed.factor()
            raw_rates += chunk_rates
            rates[tracing_on] += [rate / factor for rate in chunk_rates]
        latency, late = await open_loop(client, offsets, open_origins, open_files, log, failures)
        server_metrics = await client.metrics()
    return {
        "log": log,
        "rates": rates,
        "raw_rates": raw_rates,
        "traced_windows": traced_windows,
        "latency": latency,
        "late": late,
        "server": server_metrics,
    }


def replay_problems(journal: Path, log: ClientLog, recovered, seed: int) -> list[str]:
    """Check the served decisions against an offline replay in ``seq`` order."""
    from repro.service.journal import read_journal
    from repro.session.core import open_session
    from repro.simulation.config import SimulationConfig

    total = sum(len(entry[1]) for entry in log.decisions)
    seen = np.full((4, total), -1, dtype=np.int64)  # origin, file, server, distance
    for seq, *columns in log.decisions:
        if seq < 0 or seq + len(columns[0]) > total:
            return [f"seq {seq} lies outside the {total} committed requests"]
        seen[:, seq : seq + len(columns[0])] = columns
    if (seen < 0).any():
        return ["the client's committed seqs are not 0..N-1 exactly once"]

    config = SimulationConfig(
        num_nodes=NODES, num_files=FILES, cache_size=CACHE, topology="torus",
        popularity="uniform", placement="proportional", strategy="proximity_two_choice",
        strategy_params={"radius": RADIUS, "num_choices": CHOICES},
    )
    offline = open_session(config, seed=seed)
    problems, replayed = [], 0
    for batch in read_journal(journal).batches:
        window = slice(batch.seq, batch.seq + batch.total)
        if batch.seq + batch.total > total:
            problems.append(f"journal batch at seq {batch.seq} was never acknowledged")
            break
        result = offline.dispatch_batch(batch.origins, batch.files)
        if not (np.array_equal(seen[0, window], batch.origins) and np.array_equal(seen[1, window], batch.files)):
            problems.append(f"journal batch at seq {batch.seq} holds other requests than were sent")
        if not (np.array_equal(seen[2, window], result.servers) and np.array_equal(seen[3, window], result.distances)):
            problems.append(f"served decisions at seq {batch.seq} differ from the offline replay")
        replayed += batch.total
    if replayed != total or recovered.requests != total:
        problems.append(f"client saw {total} commits, journal replayed {replayed}, recovery {recovered.requests}")
    if offline.state_digest() != recovered.session.state_digest():
        problems.append("recover_session's state_digest differs from the offline replay's")
    return problems


def server_layers(spans_path: Path, windows, server_metrics: dict) -> dict[str, float]:
    """Per-layer metrics of the server, over the traced closed-loop chunks."""
    trace = json.loads(spans_path.read_text())
    spans, counts = [tuple(span) for span in trace["spans"]], Counter(trace["counts"])
    seconds, _ = tracing.self_seconds(spans, windows=windows)
    wall = sum(end - start for start, end in windows)
    return {
        **tracing.phase_metrics("warm", seconds, wall, counts),
        **tracing.commit_metrics(spans, counts),
        "journal.append_share": tracing.share(seconds["journal.append"], wall),
        "journal.checkpoint_share": tracing.share(seconds["journal.checkpoint"] + seconds["journal.digest"], wall),
        "service.self_share": tracing.share(wall - sum(seconds.values()), wall),
        "service.flushes": server_metrics["flushes"],
        "service.batch_size_mean": server_metrics["batch_size"]["mean"],
        "service.dispatch_p99_ms": server_metrics["dispatch_latency"]["p99_ms"],
    }


def recovery_layers(tracer: tracing.Tracer, recovered) -> dict[str, float]:
    seconds, wall = tracing.self_seconds(tracer.spans, phase="cold")
    return {
        **tracing.phase_metrics("cold", seconds, wall, tracer.counts),
        "journal.replay_share": tracing.share(seconds["journal.replay"], wall),
        "journal.replay_read_share": tracing.share(seconds["journal.replay_read"], wall),
        "journal.verify_share": tracing.share(seconds["journal.digest"], wall),
        "journal.checkpoints_verified": recovered.checkpoints_verified,
    }


def run(seed: int, seconds: int, traced: bool, probes: int) -> dict:
    """One serve run; returns the same result shape as ``worker.py``."""
    tracer = tracing.Tracer(enabled=traced)
    if traced:
        tracing.install(tracer)  # before this process's first resolve_engine
    from repro.service.journal import recover_session

    speed = common.HostSpeed()
    scratch = common.ROOT / f".perfbench-tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        # The server idles after binding, so the probe does not overlap it.
        setups, raw_setups = [], []
        for probe in range(probes):
            server, _ = start_server(seed, scratch / f"probe{probe}.jsonl", None)
            raw_setups.append(perf_counter() - server.started)
            setups.append(raw_setups[-1] * speed.factor())
            stop_server(server)
        journal, spans = scratch / "journal.jsonl", scratch / "spans.json"
        server, port = start_server(seed, journal, spans if traced else None)
        raw_setups.append(perf_counter() - server.started)
        setups.append(raw_setups[-1] * speed.factor())
        try:
            driven = asyncio.run(drive(port, server.proc.pid, seed, seconds, traced, speed))
            peak_rss = common.peak_rss_mb(server.proc.pid)
            stop_server(server)
        finally:
            server.kill()

        tracer.phase = "cold"
        speed.factor()
        recoveries, recoveries_scaled = [], []
        for _ in range(RECOVERIES):
            begin = perf_counter()
            recovered = tracer.call("journal.replay", recover_session, journal)
            recoveries.append(perf_counter() - begin)
            recoveries_scaled.append(recoveries[-1] * speed.factor())
        tracer.enabled = False
        log = driven["log"]
        problems = replay_problems(journal, log, recovered, seed)
        out = {
            "samples": {
                "throughput_per_s": driven["rates"][False] + driven["rates"][True],
                "cold_s": recoveries_scaled,
                "setup_s": setups,
            },
            "raw": {"throughput_per_s": driven["raw_rates"], "cold_s": recoveries, "setup_s": raw_setups},
            "peak_rss_mb": peak_rss,
            "attempted": log.attempted,
            "failed": log.failed + len(problems),
            "problems": problems,
            "provenance": common.provenance(seed),
        }
        if traced:
            latency_ms = [value * 1e3 for value in driven["latency"]]
            out["layers"] = {
                **server_layers(spans, driven["traced_windows"], driven["server"]),
                **recovery_layers(tracer, recovered),
                "journal.bytes": journal.stat().st_size,
                "client.latency_p50_ms": common.percentile(latency_ms, 50),
                "client.latency_p99_ms": common.percentile(latency_ms, 99),
                "client.late_p99_ms": common.percentile(driven["late"], 99) * 1e3,
                "client.samples": len(latency_ms),
                "trace.overhead_share": common.median(driven["rates"][False]) / common.median(driven["rates"][True]) - 1.0,
            }
            out["layers"]["trace.spans"] += len(tracer.spans)
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
