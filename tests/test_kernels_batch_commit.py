"""The speculate-and-repair batch commit engine.

Three layers of guarantees:

* **bit-identity** — the static commits of :mod:`repro.kernels.batch_commit`
  must match the scalar loops of :mod:`repro.kernels.commit`
  element-for-element on any input, including the adversarial windows where
  speculation is maximally wrong (every request fighting over one candidate
  pair, all-shared candidate sets, heavy ties at tie-uniform boundaries), on
  every route (forced, pairs, CSR); its queueing ``commit_window`` — the
  event loop of :mod:`repro.kernels.queueing`, which ``batch`` runs — must
  match a per-arrival transcription of the reference dispatcher on both of
  its routes (pairs, any widths), state included;
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


class TestQueueingWindow:
    """``batch_commit.commit_window`` is the event loop ``batch`` runs."""

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
