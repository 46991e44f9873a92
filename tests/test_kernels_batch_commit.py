"""The speculate-and-repair batch commit engine.

Three layers of guarantees:

* **bit-identity** — the static commits of :mod:`repro.kernels.batch_commit`
  must match the scalar loops of :mod:`repro.kernels.commit`
  element-for-element on any input, including the adversarial windows where
  speculation is maximally wrong (every request fighting over one candidate
  pair, all-shared candidate sets, heavy ties at tie-uniform boundaries), on
  every route (forced, pairs, CSR); its queueing ``commit_window`` — the
  event loop of :mod:`repro.kernels.queueing`, which ``batch`` runs — must
  match a per-arrival transcription of the reference dispatcher on each of
  its routes (pairs, any widths, and the route of windows whose arrivals
  sampled one or two servers, committed or given up), state included;
* **the repair-round structure** — with the progress fallback disabled, the
  number of repair rounds on disjoint contention groups is exactly (and in
  general at most) the longest per-node collision chain;
* **the engine-table surface** — ``batch`` is an engine of both families,
  between ``numba`` and ``reference`` in ``"auto"`` order, and ``repro
  engines`` lists it in text and JSON mode.

The cross-engine differential suites (``tests/test_kernels_differential.py``,
``tests/test_kernels_queueing_differential.py``) parametrise over the
available engines and therefore already hold ``batch`` to reference
equality on every strategy and topology; this file adds the adversarial and
structural cases those suites cannot express.
``tests/test_backends_registry.py`` pins that the queueing ``batch`` table
commits through that event loop.
"""

from __future__ import annotations

import dataclasses
import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.registry import engines_payload, resolve_engine_name
from repro.cli import main
from repro.kernels import batch_commit as bc
from repro.kernels import commit as scalar
from repro.kernels import queueing as q

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ---------------------------------------------------------------- CSR helpers
def _uniform_csr(pairs):
    """CSR arrays for a fixed-width candidate layout."""
    cand = np.asarray(pairs, dtype=np.int64)
    m, width = cand.shape
    counts = np.full(m, width, dtype=np.int64)
    indptr = width * np.arange(m + 1, dtype=np.int64)
    return cand.ravel(), counts, indptr


def _random_csr(rng, m, n, dmin, dmax):
    counts = rng.integers(dmin, dmax + 1, size=m).astype(np.int64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    for i in range(m):
        nodes[indptr[i] : indptr[i + 1]] = rng.choice(n, size=counts[i], replace=False)
    return nodes, counts, indptr


def _assert_of_sample_identical(n, nodes, counts, indptr, uniforms, init=None, **kw):
    la = None if init is None else np.asarray(init, dtype=np.int64).copy()
    lb = None if init is None else np.asarray(init, dtype=np.int64).copy()
    expected = scalar.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms, la)
    actual = bc.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms, lb, **kw)
    np.testing.assert_array_equal(actual, expected)
    if init is not None:
        np.testing.assert_array_equal(lb, la)
    return actual


# ------------------------------------------------------- adversarial windows
class TestAdversarialCollisions:
    def test_all_requests_one_pair(self):
        # Every request speculates on the same two nodes: exactly one commit
        # per round until the progress fallback takes the remainder — either
        # way the result must match the scalar loop bit for bit.
        m = 200
        rng = np.random.default_rng(0)
        nodes, counts, indptr = _uniform_csr([[3, 7]] * m)
        _assert_of_sample_identical(16, nodes, counts, indptr, rng.random(m))
        assert bc.get_last_stats().fallbacks >= 1

    def test_all_shared_candidate_set(self):
        # radius = inf style: every request sees the same full candidate set.
        m, n = 150, 6
        rng = np.random.default_rng(1)
        nodes, counts, indptr = _uniform_csr([list(range(n))] * m)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m))

    def test_heavy_ties_boundary_uniforms(self):
        # All-zero loads make every candidate tie; uniforms sit on the
        # floor(u * t) decision boundaries.
        m, n = 64, 32
        rng = np.random.default_rng(2)
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 4)
        eps = np.finfo(np.float64).eps
        uniforms = np.tile(
            np.array([0.0, 0.5 - eps, 0.5, 1.0 - eps]), m // 4
        )
        _assert_of_sample_identical(n, nodes, counts, indptr, uniforms)

    def test_scan_shared_rows_and_distance_ties(self):
        # Scan layout with *shared* group rows (requests of one group point
        # at the same flat segment) and distance ties layered on load ties.
        rng = np.random.default_rng(3)
        n, rows, m = 40, 5, 180
        row_counts = rng.integers(2, 6, size=rows).astype(np.int64)
        row_iptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_iptr[1:])
        nodes = np.empty(int(row_iptr[-1]), dtype=np.int64)
        for g in range(rows):
            nodes[row_iptr[g] : row_iptr[g + 1]] = rng.choice(
                n, size=row_counts[g], replace=False
            )
        dists = rng.integers(0, 2, size=nodes.size).astype(np.int64)
        gid = rng.integers(0, rows, size=m)
        starts = row_iptr[:-1][gid]
        counts = row_counts[gid]
        uniforms = rng.random(m)
        expected = scalar.commit_least_loaded_scan(
            n, nodes, dists, starts, counts, uniforms
        )
        actual = bc.commit_least_loaded_scan(n, nodes, dists, starts, counts, uniforms)
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.5, 2.0])
    def test_hybrid_thresholds(self, threshold):
        # Negative thresholds can empty the eligible set (the scalar loop
        # keeps its initial pick) — the corner the vectorised round must
        # reproduce exactly.
        rng = np.random.default_rng(4)
        m, n = 120, 24
        nodes, counts, indptr = _random_csr(rng, m, n, 1, 4)
        dists = rng.integers(0, 4, size=nodes.size).astype(np.int64)
        uniforms = rng.random(m)
        init = rng.integers(0, 3, size=n).astype(np.int64)
        la, lb = init.copy(), init.copy()
        expected = scalar.commit_threshold_hybrid(
            n, nodes, dists, indptr, threshold, uniforms, la
        )
        actual = bc.commit_threshold_hybrid(
            n, nodes, dists, indptr, threshold, uniforms, lb
        )
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(lb, la)

    @pytest.mark.parametrize("max_rounds", [1, 2, 32])
    def test_round_cap_forces_fallback_identically(self, max_rounds, monkeypatch):
        monkeypatch.setattr(bc, "DEFAULT_MAX_ROUNDS", max_rounds)
        rng = np.random.default_rng(5)
        m, n = 300, 8  # tiny n => massive contention
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 3)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m))

    def test_forced_single_candidate_fast_path(self):
        rng = np.random.default_rng(6)
        m, n = 100, 12
        nodes, counts, indptr = _random_csr(rng, m, n, 1, 1)
        _assert_of_sample_identical(
            n, nodes, counts, indptr, rng.random(m), init=np.zeros(n, dtype=np.int64)
        )
        stats = bc.get_last_stats()
        assert stats.committed_vectorised == m and stats.rounds == 0

    @pytest.mark.parametrize("dmin, dmax", [(3, 3), (4, 4), (1, 5)], ids=["3", "4", "1to5"])
    def test_csr_route_any_widths(self, dmin, dmax):
        # Every window that is neither forced nor all-pairs takes the CSR
        # driver: fixed widths above two, and mixed widths with singletons.
        # m spans two chunks, so loads must carry across the chunk boundary.
        rng = np.random.default_rng(15)
        m, n = 3000, 96
        nodes, counts, indptr = _random_csr(rng, m, n, dmin, dmax)
        init = rng.integers(0, 4, size=n)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m), init=init)
        stats = bc.get_last_stats()
        assert stats.chunks == 2 and stats.rounds >= 1
        assert stats.committed_vectorised > 0
        assert stats.committed_vectorised + stats.committed_scalar == m


# ------------------------------------------------------------------ round cap
class TestRoundCap:
    """With the progress fallback off, ``DEFAULT_MAX_ROUNDS`` is every chunk
    driver's only exit: it bounds the repair rounds and hands the remainder
    to the scalar loop without changing a single pick."""

    @pytest.mark.parametrize("max_rounds", [1, 2, 32])
    @pytest.mark.parametrize("layout", ["pairs", "width3", "scan", "hybrid"])
    def test_cap_bounds_rounds_and_falls_back_identically(
        self, layout, max_rounds, monkeypatch
    ):
        monkeypatch.setattr(bc, "DEFAULT_MAX_ROUNDS", max_rounds)
        monkeypatch.setattr(bc, "_PROGRESS_SHIFT", 63)
        rng = np.random.default_rng(10)
        m, n = 300, 8  # a few commits per round => even 32 rounds bind
        width = 2 if layout == "pairs" else 3
        nodes, counts, indptr = _random_csr(rng, m, n, width, width)
        dists = rng.integers(0, 3, size=nodes.size).astype(np.int64)
        uniforms = rng.random(m)
        if layout in ("pairs", "width3"):
            _assert_of_sample_identical(n, nodes, counts, indptr, uniforms)
        elif layout == "scan":
            starts = indptr[:-1]
            expected = scalar.commit_least_loaded_scan(
                n, nodes, dists, starts, counts, uniforms
            )
            actual = bc.commit_least_loaded_scan(n, nodes, dists, starts, counts, uniforms)
            np.testing.assert_array_equal(actual, expected)
        else:
            expected = scalar.commit_threshold_hybrid(n, nodes, dists, indptr, 0.5, uniforms)
            actual = bc.commit_threshold_hybrid(n, nodes, dists, indptr, 0.5, uniforms)
            np.testing.assert_array_equal(actual, expected)
        stats = bc.get_last_stats()
        assert stats.rounds <= stats.chunks * max_rounds
        assert stats.fallbacks >= 1
        assert stats.committed_vectorised + stats.committed_scalar == m


# -------------------------------------------------- windowed load persistence
class TestLoadPersistence:
    def test_windowed_equals_one_shot(self):
        rng = np.random.default_rng(7)
        m, n = 400, 64
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 3)
        uniforms = rng.random(m)
        one_shot = bc.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms)
        loads = np.zeros(n, dtype=np.int64)
        cut = 173
        first_half = bc.commit_least_loaded_of_sample(
            n,
            nodes[: indptr[cut]],
            counts[:cut],
            indptr[: cut + 1],
            uniforms[:cut],
            loads,
        )
        second_half = bc.commit_least_loaded_of_sample(
            n,
            nodes[indptr[cut] :],
            counts[cut:],
            indptr[cut:] - indptr[cut],
            uniforms[cut:],
            loads,
        )
        np.testing.assert_array_equal(first_half, one_shot[:cut])
        np.testing.assert_array_equal(second_half + indptr[cut], one_shot[cut:])
        np.testing.assert_array_equal(loads, np.bincount(nodes[one_shot], minlength=n))

    def test_load_vector_shared_between_scalar_and_batch(self):
        # A session switching engines mid-stream must see one load history.
        rng = np.random.default_rng(8)
        n = 32
        loads = np.zeros(n, dtype=np.int64)
        reference = np.zeros(n, dtype=np.int64)
        for step, fn in enumerate(
            [
                scalar.commit_least_loaded_of_sample,
                bc.commit_least_loaded_of_sample,
                scalar.commit_least_loaded_of_sample,
                bc.commit_least_loaded_of_sample,
            ]
        ):
            nodes, counts, indptr = _random_csr(rng, 50, n, 2, 2)
            uniforms = rng.random(50)
            expected = scalar.commit_least_loaded_of_sample(
                n, nodes, counts, indptr, uniforms, reference
            )
            actual = fn(n, nodes, counts, indptr, uniforms, loads)
            np.testing.assert_array_equal(actual, expected, err_msg=f"step {step}")
        np.testing.assert_array_equal(loads, reference)


# ------------------------------------------------------ repair-round structure
class TestRepairRounds:
    @staticmethod
    def _disable_fallback(monkeypatch):
        # active >> 63 == 0 for any realistic window: every round that
        # commits at least one request counts as progress.
        monkeypatch.setattr(bc, "_PROGRESS_SHIFT", 63)

    def test_all_one_node_rounds_equal_chain(self, monkeypatch):
        self._disable_fallback(monkeypatch)
        monkeypatch.setattr(bc, "DEFAULT_MAX_ROUNDS", 10**6)
        m = 60
        nodes, counts, indptr = _uniform_csr([[0, 1]] * m)
        uniforms = np.random.default_rng(9).random(m)
        _assert_of_sample_identical(4, nodes, counts, indptr, uniforms)
        stats = bc.get_last_stats()
        assert stats.rounds == m  # the chain *is* the window
        assert stats.fallbacks == 0 and stats.committed_vectorised == m

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rounds_bounded_by_longest_chain(self, sizes, seed):
        # Disjoint contention groups (group g owns nodes {2g, 2g+1}): each
        # round commits exactly the head of every live group, so the repair
        # rounds equal the largest group — the longest per-node collision
        # chain.  hypothesis drives the group-size profile.
        old_shift, old_cap = bc._PROGRESS_SHIFT, bc.DEFAULT_MAX_ROUNDS
        bc._PROGRESS_SHIFT, bc.DEFAULT_MAX_ROUNDS = 63, 10**6
        try:
            rng = np.random.default_rng(seed)
            pairs = []
            for g, c in enumerate(sizes):
                pairs.extend([[2 * g, 2 * g + 1]] * c)
            order = rng.permutation(len(pairs))
            pairs = [pairs[i] for i in order]
            nodes, counts, indptr = _uniform_csr(pairs)
            uniforms = rng.random(len(pairs))
            n = 2 * len(sizes)
            _assert_of_sample_identical(n, nodes, counts, indptr, uniforms)
            stats = bc.get_last_stats()
            longest_chain = max(sizes)
            assert stats.rounds == longest_chain
            assert stats.fallbacks == 0
        finally:
            bc._PROGRESS_SHIFT, bc.DEFAULT_MAX_ROUNDS = old_shift, old_cap

    def test_low_contention_needs_few_rounds(self, monkeypatch):
        self._disable_fallback(monkeypatch)
        rng = np.random.default_rng(10)
        m, n = 2000, 4096
        nodes, counts, indptr = _random_csr(rng, m, n, 2, 2)
        _assert_of_sample_identical(n, nodes, counts, indptr, rng.random(m))
        stats = bc.get_last_stats()
        assert stats.rounds <= 8  # sparse collisions resolve almost at once
        assert stats.committed_scalar == 0


# --------------------------------------------------------- queueing windows
def _fresh_state(n):
    return q.QueueingState(queue_lengths=[0] * n, busy_until=[0.0] * n, events=[])


def _queueing_case(seed, n, m, rate_per_server, dmin=2, dmax=2):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / (rate_per_server * n), size=m))
    services = rng.exponential(1.0, size=m)
    uniforms = rng.random(m)
    return (times, services, uniforms, *_random_csr(rng, m, n, dmin, dmax))


def _scalar_window(state, times, services, uniforms, nodes, counts, indptr):
    """Per-arrival transcription of the reference dispatcher's commit step."""
    picks = []
    for i, now in enumerate(times.tolist()):
        q.drain_departures(state, now)
        state.area_queue += state.in_system * (now - state.clock)
        state.clock = now
        segment = range(int(indptr[i]), int(indptr[i + 1]))
        loads = [state.queue_lengths[int(nodes[j])] for j in segment]
        tied = [j for j, load in zip(segment, loads) if load == min(loads)]
        pick = tied[int(float(uniforms[i]) * len(tied))]
        server = int(nodes[pick])
        svc_start = max(state.busy_until[server], now)
        finish = svc_start + float(services[i])
        state.busy_until[server] = finish
        state.sum_wait += svc_start - now
        state.sum_sojourn += finish - now
        state.queue_lengths[server] += 1
        state.in_system += 1
        state.max_queue = max(state.max_queue, state.queue_lengths[server])
        heapq.heappush(state.events, (finish, state.next_event_id, server))
        state.next_event_id += 1
        picks.append(pick)
    state.num_arrivals += len(picks)
    return np.asarray(picks, dtype=np.int64)


def _assert_window_identical(sa, sb, case, msg=""):
    expected = _scalar_window(sa, *case)
    actual = bc.commit_window(sb, *case)
    np.testing.assert_array_equal(actual, expected, err_msg=msg)
    assert dataclasses.asdict(sa) == dataclasses.asdict(sb), msg


def _assert_forced_identical(sa, sb, case, msg=""):
    """``_assert_window_identical`` for windows the forced route may commit.

    The route pushes its pending departures in its own order, so the heaps
    hold the same events but may be laid out differently: they are compared
    as sorted lists, and ``sb``'s must keep the ``heapq`` invariant.
    """
    expected = _scalar_window(sa, *case)
    actual = bc.commit_window(sb, *case)
    np.testing.assert_array_equal(actual, expected, err_msg=msg)
    fields_a, fields_b = dataclasses.asdict(sa), dataclasses.asdict(sb)
    assert sorted(fields_a.pop("events")) == sorted(fields_b.pop("events")), msg
    assert fields_a == fields_b, msg
    heap = sb.events
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap))), msg


def _forced_case(seed, n, m, rate_per_server):
    """A window in which every arrival has exactly one sampled server."""
    return _queueing_case(seed, n, m, rate_per_server, dmin=1, dmax=1)


def _single_csr(servers):
    """All-ones widths: arrival ``i`` samples ``servers[i]`` alone."""
    return _uniform_csr(np.asarray(servers, dtype=np.int64)[:, None])


def _pairs_case(seed, n, m, rate_per_server, one_share=0.06):
    """The paper's d = 2 shape: arrival ``i`` samples two distinct servers,
    or, with probability ``one_share``, one (a one-member candidate set)."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / (rate_per_server * n), size=m))
    services = rng.exponential(1.0, size=m)
    uniforms = rng.random(m)
    counts = np.where(rng.random(m) < one_share, 1, 2).astype(np.int64)
    first = rng.integers(0, n, size=m)
    other = (first + rng.integers(1, max(n, 2), size=m)) % n
    return (times, services, uniforms, *_pair_csr(first, other, counts))


def _pair_csr(first, other, counts):
    """CSR arrays of arrivals sampling ``first[i]``, then ``other[i]`` when
    ``counts[i] == 2``."""
    counts = np.asarray(counts, dtype=np.int64)
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    nodes[indptr[:-1]] = first
    two = counts == 2
    nodes[indptr[1:][two] - 1] = np.asarray(other)[two]
    return nodes, counts, indptr


def _warm_states(n, seed, m=400, rate_per_server=0.9):
    """Two identical states that carry a heap, and the time they reached.

    The scalar dispatcher commits one width-2 window of ``m`` arrivals on
    both, so a window starting after it finds departures due in it and
    departures after it."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / (rate_per_server * n), size=m))
    case = (times, rng.exponential(1.0, size=m), rng.random(m), *_random_csr(rng, m, n, 2, 2))
    states = _fresh_state(n), _fresh_state(n)
    for state in states:
        _scalar_window(state, *case)
    return states, float(times[-1])


#: ``FORCED_MIN_ARRIVALS`` and ``ROUNDS_MIN_ARRIVALS`` for windows of
#: ``smallest`` to ``largest`` arrivals: every window below them (the event
#: loop commits them), the smallest at them, or all above them (the route
#: commits them).
FORCED_SIZES = {
    "below": lambda smallest, largest: largest + 1,
    "at": lambda smallest, largest: smallest,
    "above": lambda smallest, largest: max(1, smallest // 3),
}


@pytest.fixture(params=list(FORCED_SIZES))
def forced_route(request, monkeypatch):
    """Patch the route's two minimums around the test's window size.

    Returns ``(setup, calls)``: ``setup(smallest, largest=smallest)`` sets
    the minimums for windows of that many arrivals and returns whether the
    route must run; ``calls`` lists the window size of every commit the
    route's replay made.
    """
    calls = []
    original = q._commit_forced

    def spy(state, times, *rest):
        calls.append(int(times.size))
        return original(state, times, *rest)

    monkeypatch.setattr(q, "_commit_forced", spy)

    def setup(smallest, largest=None):
        minimum = FORCED_SIZES[request.param](smallest, largest or smallest)
        monkeypatch.setattr(q, "FORCED_MIN_ARRIVALS", minimum)
        monkeypatch.setattr(q, "ROUNDS_MIN_ARRIVALS", minimum)
        return request.param != "below"

    return setup, calls


class TestQueueingWindow:
    """``batch_commit.commit_window`` is the event loop ``batch`` runs, with
    its route for windows whose arrivals sampled one or two servers."""

    @pytest.mark.parametrize("rate", [0.2, 0.95, 2.0])
    def test_window_identical_to_scalar(self, rate):
        case = _queueing_case(12, 48, 600, rate)
        _assert_window_identical(_fresh_state(48), _fresh_state(48), case)

    def test_mixed_widths_identical_to_scalar(self):
        # Widths 1..4 keep the loop off its d = 2 fast path.
        case = _queueing_case(16, 48, 600, 0.95, dmin=1, dmax=4)
        _assert_window_identical(_fresh_state(48), _fresh_state(48), case)

    def test_multi_window_state_carries(self):
        n = 64
        sa, sb = _fresh_state(n), _fresh_state(n)
        t0 = 0.0
        rng = np.random.default_rng(13)
        for w in range(5):
            m = int(rng.integers(1, 250))
            times = t0 + np.cumsum(rng.exponential(0.01, size=m))
            t0 = float(times[-1])
            services = rng.exponential(1.0, size=m)
            uniforms = rng.random(m)
            case = (times, services, uniforms, *_random_csr(rng, m, n, 2, 2))
            _assert_window_identical(sa, sb, case, f"window {w}")
            q.drain_departures(sa, t0)
            q.drain_departures(sb, t0)
        assert dataclasses.asdict(sa) == dataclasses.asdict(sb)

    def test_adversarial_one_pair_arrivals(self):
        # Every arrival contends on the same pair and nothing departs inside
        # the window: each arrival joins the shorter queue, so the pair
        # stays balanced to within one.
        m, n = 300, 8
        rng = np.random.default_rng(14)
        times = np.cumsum(rng.exponential(0.001, size=m))
        case = (times, np.full(m, 1e9), rng.random(m), *_uniform_csr([[2, 5]] * m))
        sb = _fresh_state(n)
        _assert_window_identical(_fresh_state(n), sb, case)
        assert sb.queue_lengths[2] + sb.queue_lengths[5] == m
        assert abs(sb.queue_lengths[2] - sb.queue_lengths[5]) <= 1

    def test_empty_window(self):
        empty_f = np.empty(0)
        empty_i = np.empty(0, dtype=np.int64)
        case = (empty_f, empty_f, empty_f, empty_i, empty_i, np.zeros(1, dtype=np.int64))
        _assert_window_identical(_fresh_state(4), _fresh_state(4), case)

    # Forced route: every arrival has one sampled server (d = 1, or candidate
    # sets of one member), so the window commits without the event loop.
    @pytest.mark.parametrize("rate", [0.2, 0.95, 2.0])
    def test_forced_window_identical_to_scalar(self, rate, forced_route):
        setup, calls = forced_route
        m = 1200
        forced = setup(m)
        case = _forced_case(17, 256, m, rate)
        _assert_forced_identical(_fresh_state(256), _fresh_state(256), case)
        assert calls == ([m] if forced else [])

    @pytest.mark.parametrize("chunk", [1 << 16, 97])
    def test_forced_multi_window_carry(self, chunk, forced_route, monkeypatch):
        # A width-2 window first fills the heap, so the forced windows start
        # from pending departures; a small chunk carries departures between
        # chunks of one window too.
        setup, calls = forced_route
        monkeypatch.setattr(q, "_FORCED_CHUNK", chunk)
        n = 128
        sa, sb = _fresh_state(n), _fresh_state(n)
        rng = np.random.default_rng(18)
        sizes = [int(m) for m in rng.integers(500, 900, size=5)]
        forced = setup(min(sizes[1:]), max(sizes[1:]))
        t0 = 0.0
        for w, m in enumerate(sizes):
            times = t0 + np.cumsum(rng.exponential(1.0 / n, size=m))
            t0 = float(times[-1])
            services = rng.exponential(1.0, size=m)
            width = 2 if w == 0 else 1
            case = (times, services, rng.random(m), *_random_csr(rng, m, n, width, width))
            if w == 0:
                _assert_window_identical(sa, sb, case, "window 0")
                assert sb.events
            else:
                _assert_forced_identical(sa, sb, case, f"window {w}")
            q.drain_departures(sa, t0)
            q.drain_departures(sb, t0)
        assert calls == (sizes[1:] if forced else [])

    def test_forced_arrivals_at_one_time(self, forced_route):
        # The dispatch_batch(times=None) shape: every arrival at the clock.
        setup, calls = forced_route
        n, m = 256, 1200
        forced = setup(m)
        rng = np.random.default_rng(19)
        case = (np.full(m, 2.5), rng.exponential(1.0, size=m), rng.random(m),
                *_single_csr(rng.integers(0, n, size=m)))
        _assert_forced_identical(_fresh_state(n), _fresh_state(n), case)
        assert calls == ([m] if forced else [])

    @pytest.mark.parametrize("zero_share", [0.3, 1.0])
    def test_forced_zero_service_departs_at_next_arrival(self, zero_share, forced_route):
        # A zero service time on an idle server finishes at its own arrival:
        # the loop pops it before the next arrival, never before its own, so
        # the arrival still sees its own job in the queue.
        setup, calls = forced_route
        n, m = 256, 1200
        forced = setup(m)
        rng = np.random.default_rng(20)
        times = np.repeat(np.cumsum(rng.exponential(0.01, size=m // 4)), 4)
        services = rng.exponential(1.0, size=m)
        services[rng.random(m) < zero_share] = 0.0
        case = (times, services, rng.random(m), *_single_csr(rng.integers(0, n, size=m)))
        sb = _fresh_state(n)
        _assert_forced_identical(_fresh_state(n), sb, case)
        assert sb.completed > 0
        if zero_share == 1.0:
            assert sb.max_queue == 1 and sb.completed == m - 1
        assert calls == ([m] if forced else [])

    def test_forced_equal_finish_times_pop_by_event_id(self, forced_route):
        # Dyadic times and services: every server of a block finishes at the
        # same instant, and the heap already holds departures at it with
        # smaller ids.  Later arrivals pop all of them in event-id order.
        setup, calls = forced_route
        n, m = 512, 1200
        forced = setup(m)
        state_a, state_b = _fresh_state(n), _fresh_state(n)
        for state in (state_a, state_b):
            for server in (3, 1, 2):
                heapq.heappush(state.events, (4.0, state.next_event_id, server))
                state.queue_lengths[server] += 1
                state.busy_until[server] = 4.0
                state.in_system += 1
                state.next_event_id += 1
        rng = np.random.default_rng(21)
        times = np.sort(rng.integers(0, 16, size=m) * 0.25)
        services = np.where(times < 4.0, 4.0 - times, rng.integers(1, 8, size=m) * 0.5)
        servers = rng.permutation(n)[np.arange(m) % 400]
        case = (times, services, rng.random(m), *_single_csr(servers))
        _assert_forced_identical(state_a, state_b, case)
        assert calls == ([m] if forced else [])

    def test_forced_route_gates(self, monkeypatch):
        # Unsorted times, a negative service time or a crowded server keep a
        # window on the event loop, which still commits it exactly.
        calls = []
        original = q._commit_forced
        monkeypatch.setattr(q, "_commit_forced", lambda *args: calls.append(args) or original(*args))
        monkeypatch.setattr(q, "FORCED_MIN_ARRIVALS", 1)
        rng = np.random.default_rng(22)
        m = 1200
        times, services, uniforms, nodes, counts, indptr = _forced_case(23, 256, m, 0.95)
        shuffled = (rng.permutation(times), services, uniforms, nodes, counts, indptr)
        negative = (times, np.where(np.arange(m) == 7, -0.5, services), uniforms, nodes, counts, indptr)
        crowded = (times, services, uniforms, *_single_csr(rng.integers(0, 4, size=m)))
        for case in (shuffled, negative, crowded):
            _assert_window_identical(_fresh_state(256), _fresh_state(256), case)
        assert calls == []

    # Decision rounds: arrivals of one or two sampled servers (the paper's
    # d = 2) are decided in first-toucher rounds, then replayed as above.
    @pytest.mark.parametrize("one_share", [0.06, 0.5])
    @pytest.mark.parametrize("rate", [0.2, 0.95, 2.0])
    def test_rounds_window_identical_to_scalar(self, rate, one_share, forced_route):
        setup, calls = forced_route
        n, m = 4096, 1500
        routed = setup(m)
        case = _pairs_case(30, n, m, rate, one_share)
        _assert_forced_identical(_fresh_state(n), _fresh_state(n), case)
        assert calls == ([m] if routed else [])

    @pytest.mark.parametrize("chunk", [1 << 16, 97])
    def test_rounds_carry_due_and_later_departures(self, chunk, forced_route, monkeypatch):
        # The heap holds departures due inside the window and after it; a
        # small chunk makes the replay carry both across its chunks.
        setup, calls = forced_route
        monkeypatch.setattr(q, "_FORCED_CHUNK", chunk)
        n, m = 4096, 1500
        routed = setup(m)
        (sa, sb), start = _warm_states(n, 31, m=3000)
        times, *rest = _pairs_case(32, n, m, 0.95)
        case = (start + times, *rest)
        departures = [event[0] for event in sb.events]
        assert min(departures) <= case[0][-1] < max(departures)
        _assert_forced_identical(sa, sb, case)
        assert calls == ([m] if routed else [])

    def test_rounds_arrivals_at_one_time(self, forced_route):
        # The dispatch_batch(times=None) shape, against a carried heap.
        setup, calls = forced_route
        n, m = 4096, 1200
        routed = setup(m)
        (sa, sb), start = _warm_states(n, 33)
        _, services, uniforms, *csr = _pairs_case(34, n, m, 0.95)
        case = (np.full(m, start + 0.2), services, uniforms, *csr)
        _assert_forced_identical(sa, sb, case)
        assert calls == ([m] if routed else [])

    @pytest.mark.parametrize("zero_share", [0.3, 1.0])
    def test_rounds_zero_service(self, zero_share, forced_route):
        # A zero service time on an idle server finishes at its own arrival,
        # so the arrivals after it (four share each time) find it idle.
        setup, calls = forced_route
        n, m = 4096, 1200
        routed = setup(m)
        rng = np.random.default_rng(35)
        times, services, uniforms, *csr = _pairs_case(36, n, m, 0.95)
        services[rng.random(m) < zero_share] = 0.0
        case = (np.repeat(times[::4], 4), services, uniforms, *csr)
        sb = _fresh_state(n)
        _assert_forced_identical(_fresh_state(n), sb, case)
        assert sb.completed > 0
        assert calls == ([m] if routed else [])

    @pytest.mark.parametrize("tie", [0.5, float(np.nextafter(0.5, 0.0)), 0.0])
    def test_rounds_tie_uniform_boundary(self, tie, forced_route):
        # Idle servers tie: u < 0.5 takes the first sampled server, exactly
        # 0.5 the second, as floor(u * 2) does in the loop.
        setup, calls = forced_route
        n, m = 4096, 1200
        routed = setup(m)
        times, services, _, *csr = _pairs_case(37, n, m, 2.0)
        case = (times, services, np.full(m, tie), *csr)
        _assert_forced_identical(_fresh_state(n), _fresh_state(n), case)
        assert calls == ([m] if routed else [])

    def test_rounds_departures_at_an_arrival_time(self, forced_route):
        # The loop pops a departure at an arrival's own time before that
        # arrival decides.  Servers 0-99 each hold a departure at 4.0 from
        # before the window; arrivals at 3.5 start half-unit jobs on idle
        # servers 200-599, which end at 4.0 too.  Arrivals at 4.0 then find
        # every one of those servers empty, tie with an idle partner, and
        # take the first sampled server (u = 0.25).
        setup, calls = forced_route
        n = 2048
        states = _fresh_state(n), _fresh_state(n)
        for state in states:
            for server in range(100):
                heapq.heappush(state.events, (4.0, state.next_event_id, server))
                state.queue_lengths[server] = 1
                state.busy_until[server] = 4.0
                state.in_system += 1
                state.next_event_id += 1
        early = np.column_stack((200 + 2 * np.arange(200), 201 + 2 * np.arange(200)))
        held = np.column_stack((np.arange(100), 100 + np.arange(100)))
        after = np.column_stack((200 + 2 * np.arange(200), 1000 + np.arange(200)))
        pairs = np.concatenate([early, held, after])
        m = pairs.shape[0]
        routed = setup(m)
        times = np.repeat([3.5, 4.0], [200, 300])
        case = (times, np.full(m, 0.5), np.full(m, 0.25), *_uniform_csr(pairs))
        _assert_forced_identical(*states, case)
        assert states[1].queue_lengths[:100] == [1] * 100  # each took its first server
        assert calls == ([m] if routed else [])

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([8, 64, 1024]),
        m=st.integers(1, 800),
        warm=st.integers(0, 600),
        rate=st.sampled_from([0.2, 0.95, 2.0]),
        one_share=st.sampled_from([0.0, 0.06, 0.5, 1.0]),
    )
    def test_route_matches_scalar_property(self, seed, n, m, warm, rate, one_share):
        # Every window may take the route; it commits or gives up, and
        # either way the state equals the scalar dispatcher's.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(q, "FORCED_MIN_ARRIVALS", 1)
            patch.setattr(q, "ROUNDS_MIN_ARRIVALS", 1)
            if warm:
                (sa, sb), start = _warm_states(n, seed, m=warm, rate_per_server=rate)
            else:
                (sa, sb), start = (_fresh_state(n), _fresh_state(n)), 0.0
            times, *rest = _pairs_case(seed + 1, n, m, rate, one_share)
            _assert_forced_identical(sa, sb, (start + times, *rest))

    @staticmethod
    def _assert_gives_up(monkeypatch, states, case, rounds_run):
        """The route leaves ``states[1]`` untouched, heap layout included, and
        the loop commits the window exactly as the scalar dispatcher."""
        commits, rounds = [], []
        commit, decide = q._commit_forced, q._decide_rounds
        monkeypatch.setattr(q, "_commit_forced", lambda *args: commits.append(args) or commit(*args))
        monkeypatch.setattr(q, "_decide_rounds", lambda *args: rounds.append(args) or decide(*args))
        monkeypatch.setattr(q, "FORCED_MIN_ARRIVALS", 1)
        monkeypatch.setattr(q, "ROUNDS_MIN_ARRIVALS", 1)
        _assert_window_identical(*states, case)
        assert commits == []
        assert len(rounds) == rounds_run

    @pytest.mark.parametrize("m,rounds_run", [(40, 1), (4096, 0)])
    def test_rounds_give_up_on_one_pair(self, m, rounds_run, monkeypatch):
        # Every arrival samples servers 2 and 5: a round decides one arrival,
        # and 4,096 arrivals on two servers never start a round.
        states, start = _warm_states(8, 40, m=60)
        rng = np.random.default_rng(41)
        times = start + np.cumsum(rng.exponential(0.01, size=m))
        case = (times, rng.exponential(1.0, size=m), rng.random(m), *_uniform_csr([[2, 5]] * m))
        assert states[1].events[0][0] <= times[-1]
        self._assert_gives_up(monkeypatch, states, case, rounds_run)

    def test_rounds_give_up_on_a_path(self, monkeypatch):
        # Arrival i samples servers i and i + 1: only arrival 0 is a first
        # toucher, so the first round gives up.
        n, m = 1024, 1000
        states, start = _warm_states(n, 42)
        rng = np.random.default_rng(43)
        times = start + np.cumsum(rng.exponential(1.0 / n, size=m))
        pairs = np.column_stack((np.arange(m), np.arange(1, m + 1)))
        case = (times, rng.exponential(1.0, size=m), rng.random(m), *_uniform_csr(pairs))
        assert states[1].events[0][0] <= times[-1]
        self._assert_gives_up(monkeypatch, states, case, rounds_run=1)

    def test_rounds_skip_windows_on_few_servers(self, monkeypatch):
        # 1,200 arrivals on 64 servers touch fewer than m / 16 of them.
        n, m = 64, 1200
        states, start = _warm_states(n, 44)
        times, *rest = _pairs_case(45, n, m, 0.95)
        self._assert_gives_up(monkeypatch, states, (start + times, *rest), rounds_run=0)

    def test_rounds_decided_window_still_gated(self, monkeypatch):
        # Arrival i < 200 samples servers 2i and 2i + 1, so one round decides
        # every pair; unsorted times, a negative service time or a crowded
        # one-server tail then fail the replay's gate, and the popped due
        # departures go back onto the heap as they were.
        n, m = 2048, 600
        rng = np.random.default_rng(46)
        evens = 2 * np.arange(m)
        first = np.where(np.arange(m) < 200, evens, n - 1)
        counts = np.where(np.arange(m) < 200, 2, 1)
        csr = _pair_csr(first, evens + 1, counts)
        spread = _pair_csr(evens % n, (evens + 1) % n, np.full(m, 2))
        for seed, (order, services, nodes) in enumerate([
            (rng.permutation(m), rng.exponential(1.0, size=m), spread),
            (np.arange(m), np.where(np.arange(m) == 7, -0.5, 1.0), spread),
            (np.arange(m), rng.exponential(1.0, size=m), csr),
        ]):
            states, start = _warm_states(n, 47 + seed)
            times = (start + np.cumsum(rng.exponential(1.0 / n, size=m)))[order]
            assert min(event[0] for event in states[1].events) <= times[-1]
            with pytest.MonkeyPatch.context() as patch:
                self._assert_gives_up(patch, states, (times, services, rng.random(m), *nodes), 1)

    @pytest.mark.parametrize("one_share", [0.06, 0.5, 1.0])
    def test_pairs_loop_takes_widths_one_and_two(self, one_share):
        # Below the route's minimums the loop's d = 2 fast path serves
        # one-member candidate sets too, against a carried heap.
        n, m = 48, 600
        (sa, sb), start = _warm_states(n, 48)
        times, *rest = _pairs_case(49, n, m, 0.95, one_share)
        _assert_window_identical(sa, sb, (start + times, *rest))


# ---------------------------------------------------------- engine table/CLI
class TestEngineRegistration:
    @pytest.mark.parametrize("family", ["assignment", "queueing"])
    def test_auto_order_between_numba_and_reference(self, family):
        assert resolve_engine_name("batch", family) == "batch"
        payload = {e["name"]: e for e in engines_payload(family)}
        assert payload["batch"]["available"] is True
        assert payload["numba"]["auto_order"] < payload["batch"]["auto_order"] < payload["reference"]["auto_order"]

    def test_cli_engines_lists_batch(self, capsys):
        assert main(["engines"]) == 0
        assert "batch" in capsys.readouterr().out

    def test_cli_engines_json_lists_batch(self, capsys):
        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {(e["family"], e["name"]): e for e in payload}
        for family in ("assignment", "queueing"):
            row = rows[(family, "batch")]
            assert row["available"] is True
            assert row["auto_order"] == 2


class TestThreads:
    """Commits of independent sessions on several threads share no scratch."""

    def test_threaded_commits_match_sequential(self):
        # Width 2 runs the epoch-stamped pairs driver, width 3 the sentinel
        # scratch of the CSR driver; every window has the same n, so shared
        # scratch would be the same array.  More threads than cores and a
        # short switch interval make the threads interleave inside a
        # commit: with shared scratch this fails in nearly every repetition.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        n, m = 2048, 8192
        rng = np.random.default_rng(12)
        windows = []
        for width in (2, 3, 2, 3, 2, 3):
            nodes, counts, indptr = _uniform_csr(rng.integers(0, n, size=(m, width)))
            windows.append((nodes, counts, indptr, rng.random(m)))

        def commit(window):
            nodes, counts, indptr, uniforms = window
            return bc.commit_least_loaded_of_sample(n, nodes, counts, indptr, uniforms)

        expected = [commit(window) for window in windows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(3) as pool:
                for _ in range(12):
                    for got, want in zip(pool.map(commit, windows, timeout=60), expected):
                        np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
