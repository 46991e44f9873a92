"""Profile the precompute phase: group-index build + batched distances.

``make profile-precompute`` runs two cold Strategy II precompute shapes under
``cProfile`` and prints the top entries of each by cumulative time — the
quickest way to see whether the ball gather, the flat replica scan's
distance calls or the CSR assembly dominates before touching the kernels:

* the ball route: torus n = 4096, K = 128, M = 8 (partition placement),
  r = 8, 5 n requests — most files have more replicas than ``|B_8|``;
* the replica scan: Figure 5's heaviest point, torus n = 2025, K = 500,
  M = 100 (proportional placement), r = 22, 2025 requests — every file has
  fewer replicas than ``|B_22|``, so every group takes the scan.

``--warm`` profiles the *second* window of each instead: the same request
batch rebuilt against a populated
:class:`~repro.kernels.group_index.GroupStore`, i.e. the store-backed
``get_many`` path every streaming window, trial wave and ``repro serve``
micro-batch converges to once its working set recurs.

Either way the top entries are also written to the untracked
``.benchmarks/timings/precompute_profile.txt`` with the standard ``host:``
header: a wall-clock profile changes on every run, so it is not an artifact.

Usage::

    PYTHONPATH=src python benchmarks/profile_precompute.py \
        [--nodes N] [--top K] [--warm]

``--nodes`` sizes the ball-route shape only.
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
from repro.placement.proportional import ProportionalPlacement
from repro.strategies.base import FallbackPolicy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload


def _ball_system(num_nodes: int):
    """The ball-route shape: K = 128, M = 8, r = 8, 5 n requests."""
    topology = Torus2D(num_nodes)
    library = FileLibrary(128)
    cache = PartitionPlacement(8).place(topology, library, seed=0)
    requests = UniformOriginWorkload(5 * num_nodes).generate(topology, library, seed=1)
    label = f"ball route @ n={num_nodes}, K=128, M=8, r=8, m={requests.num_requests} requests"
    return label, topology, cache, requests, 8.0


def _scan_system():
    """Figure 5's replica-scan shape: n = 2025, K = 500, M = 100, r = 22."""
    topology = Torus2D(2025)
    library = FileLibrary(500)
    cache = ProportionalPlacement(100).place(topology, library, seed=0)
    requests = UniformOriginWorkload(2025).generate(topology, library, seed=1)
    label = f"replica scan @ n=2025, K=500, M=100, r=22, m={requests.num_requests} requests"
    return label, topology, cache, requests, 22.0


def _build(topology, cache, requests, radius, store=None):
    index = build_group_index(
        topology,
        cache,
        requests,
        radius=radius,
        fallback=FallbackPolicy.NEAREST,
        need_dists=True,
        store=store,
    )
    assert index.num_groups > 0


def _profile(system, warm: bool, top: int) -> str:
    label, topology, cache, requests, radius = system
    store = None
    if warm:
        store = GroupStore()
        _build(topology, cache, requests, radius, store=store)  # populate, unprofiled
    profiler = cProfile.Profile()
    profiler.enable()
    _build(topology, cache, requests, radius, store=store)
    profiler.disable()
    mode = "warm (store-backed get_many)" if warm else "cold (fused build)"
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(top)
    return f"precompute profile [{mode}] {label}\n{buffer.getvalue()}"


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

    sections = [
        _profile(system, args.warm, args.top)
        for system in (_ball_system(args.nodes), _scan_system())
    ]
    report = "\n".join([host_header(), *sections])
    print(report)
    (timings_dir() / "precompute_profile.txt").write_text(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
