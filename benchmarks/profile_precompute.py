"""Profile the precompute phase: group-index build + batched distances.

``make profile-precompute`` runs the Strategy II precompute at the
figure-scale n = 4096 under ``cProfile`` and prints the top entries by
cumulative time — the quickest way to see whether the ball gather, the flat
replica scan's ``distances_between`` calls or the CSR scatter dominates
before touching the kernels.

``--warm`` profiles the *second* window instead: the same request batch
rebuilt against a populated :class:`~repro.kernels.group_index.GroupStore`,
i.e. the store-backed ``get_many`` path every streaming window, trial wave
and ``repro serve`` micro-batch converges to once its working set recurs.

Either way the top entries are also written to the untracked
``.benchmarks/timings/precompute_profile.txt`` with the standard ``host:``
header: a wall-clock profile changes on every run, so it is not an artifact.

Usage::

    PYTHONPATH=src python benchmarks/profile_precompute.py \
        [--nodes N] [--top K] [--warm]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

from _bench_utils import host_header, timings_dir

from repro.catalog.library import FileLibrary
from repro.kernels.group_index import GroupStore, build_group_index
from repro.placement.partition import PartitionPlacement
from repro.strategies.base import FallbackPolicy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload

NUM_FILES = 128
CACHE_SIZE = 8
RADIUS = 8.0


def _system(num_nodes: int):
    topology = Torus2D(num_nodes)
    library = FileLibrary(NUM_FILES)
    cache = PartitionPlacement(CACHE_SIZE).place(topology, library, seed=0)
    requests = UniformOriginWorkload(5 * num_nodes).generate(topology, library, seed=1)
    return topology, cache, requests


def _build(topology, cache, requests, store=None):
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=RADIUS,
        fallback=FallbackPolicy.NEAREST,
        need_dists=True,
        store=store,
    )
    assert index.num_groups > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=4096)
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--warm",
        action="store_true",
        help="profile the second window against a populated GroupStore "
        "(the batch get_many path) instead of the cold build",
    )
    args = parser.parse_args()

    topology, cache, requests = _system(args.nodes)
    store = None
    if args.warm:
        store = GroupStore()
        _build(topology, cache, requests, store=store)  # populate, unprofiled

    profiler = cProfile.Profile()
    profiler.enable()
    _build(topology, cache, requests, store=store)
    profiler.disable()

    mode = "warm (store-backed get_many)" if args.warm else "cold (fused build)"
    header = (
        f"{host_header()}\n"
        f"precompute profile [{mode}] @ n={args.nodes}, K={NUM_FILES}, "
        f"M={CACHE_SIZE}, r={RADIUS:g}, m={5 * args.nodes} requests"
    )
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(args.top)
    report = f"{header}\n{buffer.getvalue()}"
    print(report)
    (timings_dir() / "precompute_profile.txt").write_text(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
