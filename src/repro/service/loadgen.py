"""Open-loop load generator for the dispatch service (``repro loadgen``).

Arrivals are scheduled *before* the run from a Poisson process — constant
rate, or time-varying via inhomogeneous-Poisson thinning (candidates drawn
at the peak rate, kept with probability ``rate(t)/rate_max``).  Each arrival
then fires at its scheduled wall-clock offset whether or not earlier
requests have completed: the generator never waits for responses to send
the next request, so a slow server accumulates in-flight work instead of
silently lowering the offered rate (the classic closed-loop coordination
omission).

Request content is synthetic workload in the paper's setting: origins drawn
uniformly from the torus nodes, files from a Zipf(``gamma``) popularity over
the catalog — both from one seeded generator, so a load profile is exactly
reproducible.

The run reports offered vs achieved rate and the client-observed latency
histogram (p50/p99) — the numbers ``benchmarks/test_bench_service.py``
persists next to the PR 6 host header.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.catalog.popularity import UniformPopularity, ZipfPopularity
from repro.service.client import (
    DispatchClient,
    DispatchServiceError,
    DispatchTimeout,
)
from repro.service.metrics import LatencyHistogram

__all__ = ["LoadGenConfig", "LoadGenReport", "generate_arrivals", "run_loadgen"]


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generation run against a dispatch server.

    ``rate`` is the mean offered rate in requests/second.  With
    ``wave_amplitude > 0`` the instantaneous rate is the sinusoid
    ``rate * (1 + wave_amplitude * sin(2*pi*t / wave_period))`` realised by
    IPPP thinning; ``rate_fn`` overrides the shape entirely (it must stay
    within ``[0, rate * (1 + wave_amplitude)]``).
    """

    rate: float
    duration: float
    gamma: float = 0.8
    concurrency: int = 64
    batch: int = 1
    wave_amplitude: float = 0.0
    wave_period: float = 1.0
    seed: int = 0
    timeout: float | None = 5.0
    retries: int = 0
    rate_fn: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 <= self.wave_amplitude <= 1.0:
            raise ValueError(
                f"wave_amplitude must be in [0, 1], got {self.wave_amplitude}"
            )
        if self.wave_period <= 0:
            raise ValueError(f"wave_period must be positive, got {self.wave_period}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    def instantaneous_rate(self, t: float) -> float:
        """The target arrival rate at offset ``t`` seconds into the run."""
        if self.rate_fn is not None:
            return max(0.0, float(self.rate_fn(t)))
        if self.wave_amplitude == 0.0:
            return self.rate
        return self.rate * (
            1.0 + self.wave_amplitude * np.sin(2.0 * np.pi * t / self.wave_period)
        )

    @property
    def peak_rate(self) -> float:
        """The thinning envelope (must dominate ``instantaneous_rate``)."""
        return self.rate * (1.0 + self.wave_amplitude)


@dataclass(frozen=True)
class LoadGenReport:
    """What one run observed from the client side.

    ``errors`` is the total failed request count; the four breakdown fields
    partition it by *cause* — timeouts and connection errors are transport
    failures (the server may or may not have committed), 4xx are
    deterministic protocol rejections, and ``degraded_503`` counts requests
    the server turned away while draining or degraded.  Conflating them
    hides exactly the distinction fault-tolerance work cares about.
    """

    offered: int
    completed: int
    errors: int
    duration: float
    target_rate: float
    achieved_rate: float
    latency: LatencyHistogram = field(compare=False)
    timeouts: int = 0
    connection_errors: int = 0
    rejected_4xx: int = 0
    degraded_503: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "connection_errors": self.connection_errors,
            "rejected_4xx": self.rejected_4xx,
            "degraded_503": self.degraded_503,
            "duration_seconds": self.duration,
            "target_rate": self.target_rate,
            "achieved_rate": self.achieved_rate,
            "latency": self.latency.summary(),
        }

    def format(self) -> str:
        """A human-readable run summary for the CLI."""
        latency = self.latency.summary()
        return (
            f"offered {self.offered} requests over {self.duration:.2f}s "
            f"(target {self.target_rate:.1f}/s)\n"
            f"completed {self.completed}  errors {self.errors} "
            f"(timeouts {self.timeouts}, connection {self.connection_errors}, "
            f"4xx {self.rejected_4xx}, 503 {self.degraded_503})  "
            f"achieved {self.achieved_rate:.1f}/s\n"
            f"latency p50 {latency['p50_ms']:.3f} ms  "
            f"p90 {latency['p90_ms']:.3f} ms  "
            f"p99 {latency['p99_ms']:.3f} ms  "
            f"max {latency['max_ms']:.3f} ms"
        )


def generate_arrivals(config: LoadGenConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds from run start) for one run.

    Homogeneous Poisson at the peak rate, thinned to the instantaneous rate
    (Lewis–Shedler); with a constant rate the acceptance probability is 1
    and this degenerates to a plain Poisson process.
    """
    peak = config.peak_rate
    expected = peak * config.duration
    # Over-draw the exponential gaps in one vectorised shot; top up in the
    # (rare) tail case where the draw fell short of the horizon.
    chunk = max(16, int(expected + 6.0 * np.sqrt(expected) + 16))
    gaps = rng.exponential(1.0 / peak, size=chunk)
    times = np.cumsum(gaps)
    while times.size and times[-1] < config.duration:
        more = rng.exponential(1.0 / peak, size=chunk)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    times = times[times < config.duration]
    if config.wave_amplitude == 0.0 and config.rate_fn is None:
        return times
    accept = rng.random(times.size) * peak
    keep = np.fromiter(
        (accept[i] < config.instantaneous_rate(t) for i, t in enumerate(times)),
        dtype=bool,
        count=times.size,
    )
    return times[keep]


async def run_loadgen(
    host: str,
    port: int,
    config: LoadGenConfig,
) -> LoadGenReport:
    """Drive one open-loop run against a live dispatch server."""
    async with DispatchClient(
        host,
        port,
        pool_size=config.concurrency,
        timeout=config.timeout,
        retries=config.retries,
        jitter_seed=config.seed,
    ) as client:
        health = await client.healthz()
        num_nodes = int(health["nodes"])
        num_files = int(health["files"])
        rng = np.random.default_rng(config.seed)
        offsets = generate_arrivals(config, rng)
        total = int(offsets.size)
        if total == 0:
            return LoadGenReport(
                offered=0,
                completed=0,
                errors=0,
                duration=config.duration,
                target_rate=config.rate,
                achieved_rate=0.0,
                latency=LatencyHistogram(),
            )
        origins = rng.integers(0, num_nodes, size=total)
        popularity = (
            ZipfPopularity(num_files, config.gamma)
            if config.gamma > 0
            else UniformPopularity(num_files)
        )
        files = popularity.sample(total, rng)

        latency = LatencyHistogram()
        completed = 0
        errors = 0
        timeouts = 0
        connection_errors = 0
        rejected_4xx = 0
        degraded_503 = 0
        loop = asyncio.get_running_loop()
        start = loop.time()

        async def fire(index: int, size: int) -> None:
            nonlocal completed, errors, timeouts, connection_errors
            nonlocal rejected_4xx, degraded_503
            delay = offsets[index] - (loop.time() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            try:
                if size == 1:
                    await client.dispatch(int(origins[index]), int(files[index]))
                else:
                    window = slice(index, index + size)
                    await client.dispatch_batch(origins[window], files[window])
            # DispatchTimeout subclasses OSError (as ConnectionError does),
            # so the catch order below is load-bearing.
            except DispatchTimeout:
                errors += size
                timeouts += size
                return
            except DispatchServiceError as exc:
                errors += size
                if exc.status == 503:
                    degraded_503 += size
                elif 400 <= exc.status < 500:
                    rejected_4xx += size
                return
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                errors += size
                connection_errors += size
                return
            latency.record(loop.time() - sent)
            completed += size

        tasks = [
            asyncio.create_task(fire(i, min(config.batch, total - i)))
            for i in range(0, total, config.batch)
        ]
        await asyncio.gather(*tasks)
        elapsed = loop.time() - start

    return LoadGenReport(
        offered=total,
        completed=completed,
        errors=errors,
        duration=elapsed,
        target_rate=config.rate,
        achieved_rate=completed / elapsed if elapsed > 0 else 0.0,
        latency=latency,
        timeouts=timeouts,
        connection_errors=connection_errors,
        rejected_4xx=rejected_4xx,
        degraded_503=degraded_503,
    )
