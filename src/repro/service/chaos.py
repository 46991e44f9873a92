"""Deterministic fault injection for the dispatch service (test-only).

Chaos here is *seeded*, never random-by-default: every scenario a test (or
``make test-chaos``) runs is reproducible bit for bit, which is what lets
the suite end each scenario in an equality assertion instead of a shrug.
Two injection surfaces:

* :class:`ServerChaos` — hooks the :class:`~repro.service.server.
  DispatchServer` writer.  ``stall_after_batches`` wedges the writer for
  ``stall_seconds`` (driving the watchdog into degraded mode);
  ``crash_after_batches`` SIGKILLs the *process* right after the N-th batch
  hits the journal — the canonical crash-between-ack-and-nothing scenario
  recovery must survive.  Wired into ``repro serve`` via
  ``--chaos-crash-after-batches`` so subprocess tests can kill a real
  server mid-stream.
* :class:`ChaosClient` — a :class:`~repro.service.client.DispatchClient`
  whose attempts are perturbed by a seeded RNG: deliveries are duplicated
  (send twice, count once), dropped *after* the server processed them (the
  client sees a transport error and retries — exactly the ambiguity
  idempotency keys resolve), or delayed.  Only dispatch POSTs are
  perturbed; reads stay clean.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
from typing import Any

from repro.service.client import DispatchClient

__all__ = ["ChaosClient", "ServerChaos"]


class ServerChaos:
    """Deterministic fault hooks for the server's writer task.

    Parameters
    ----------
    stall_after_batches, stall_seconds:
        Once ``flush_index`` reaches ``stall_after_batches``, every
        subsequent flush is preceded by an (asyncio) stall of
        ``stall_seconds`` — long enough past the watchdog deadline and the
        server degrades.  ``None`` disables.
    crash_after_batches:
        After the N-th batch was appended to the journal (and is therefore
        durable), SIGKILL the current process — no atexit handlers, no
        flushes, the honest crash.  ``None`` disables.
    """

    def __init__(
        self,
        *,
        stall_after_batches: int | None = None,
        stall_seconds: float = 0.0,
        crash_after_batches: int | None = None,
    ) -> None:
        if stall_after_batches is not None and stall_after_batches < 0:
            raise ValueError("stall_after_batches must be >= 0")
        if crash_after_batches is not None and crash_after_batches < 1:
            raise ValueError("crash_after_batches must be >= 1")
        self.stall_after_batches = stall_after_batches
        self.stall_seconds = float(stall_seconds)
        self.crash_after_batches = crash_after_batches
        self.stalls_injected = 0

    async def before_flush(self, flush_index: int) -> None:
        """Awaited by the writer between collecting and committing a batch."""
        if (
            self.stall_after_batches is not None
            and flush_index >= self.stall_after_batches
            and self.stall_seconds > 0
        ):
            self.stalls_injected += 1
            await asyncio.sleep(self.stall_seconds)

    def after_journal(self, batches_journaled: int) -> None:
        """Called right after a batch became durable in the journal."""
        if (
            self.crash_after_batches is not None
            and batches_journaled >= self.crash_after_batches
        ):
            # The real thing: no Python teardown, no buffered goodbye.
            os.kill(os.getpid(), signal.SIGKILL)


class ChaosClient(DispatchClient):
    """A dispatch client whose deliveries misbehave deterministically.

    Each dispatch POST attempt rolls the seeded RNG once per fault type:

    * ``duplicate_rate`` — the request is sent *twice* (the duplicate's
      response is read and discarded), modelling an at-least-once network.
    * ``drop_rate`` — the request is sent, the server processes it, but the
      response is thrown away and a ``ConnectionResetError`` raised: the
      client cannot know whether the server committed.  With retries + an
      idempotency key the retry returns the original decision; without a
      key this is exactly how double-commits happen.
    * ``delay_rate`` / ``delay_seconds`` — the attempt is preceded by an
      asyncio sleep (reordering pressure for concurrent callers).

    Reads (``GET`` endpoints) are never perturbed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        chaos_seed: int = 0,
        duplicate_rate: float = 0.0,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(host, port, **kwargs)
        for name, rate in (
            ("duplicate_rate", duplicate_rate),
            ("drop_rate", drop_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self._chaos_rng = random.Random(chaos_seed)
        self._duplicate_rate = duplicate_rate
        self._drop_rate = drop_rate
        self._delay_rate = delay_rate
        self._delay_seconds = float(delay_seconds)
        self.duplicates_injected = 0
        self.drops_injected = 0
        self.delays_injected = 0

    async def _perform(self, method: str, path: str, body: bytes):
        if method != "POST" or not path.startswith("/dispatch"):
            return await super()._perform(method, path, body)
        if self._delay_rate and self._chaos_rng.random() < self._delay_rate:
            self.delays_injected += 1
            await asyncio.sleep(self._delay_seconds)
        if self._duplicate_rate and self._chaos_rng.random() < self._duplicate_rate:
            # At-least-once delivery: the duplicate is fully processed by
            # the server; only its response is discarded here.
            self.duplicates_injected += 1
            await super()._perform(method, path, body)
        result = await super()._perform(method, path, body)
        if self._drop_rate and self._chaos_rng.random() < self._drop_rate:
            # The server committed; the client will never know.  Raising a
            # transport error here forces the retry path.
            self.drops_injected += 1
            raise ConnectionResetError("chaos: response dropped after commit")
        return result

