"""Record ``golden.json``, the figure_sweep tables the benchmark checks against.

Run from the repository root only when a change is meant to alter the
simulated results: ``python3 perfbench/record_golden.py``.  It runs the
figure_sweep pass once for every seed in ``range(GOLDEN_SEEDS)``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, worker  # noqa: E402


def main() -> int:
    common.require_source()
    from repro.experiments.figures import figure5_spec
    from repro.experiments.runner import run_experiment

    spec = figure5_spec(**worker.FIGURE)
    tables = {
        str(seed): worker.figure_table(run_experiment(spec, seed=seed), worker.FIGURE["cache_sizes"])
        for seed in range(worker.GOLDEN_SEEDS)
    }
    # One line per seed keeps the file readable and its diffs small.
    rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(table)}" for seed, table in tables.items())
    worker.GOLDEN.write_text(f'{{"sweep": {json.dumps(worker.FIGURE)},\n "tables": {{\n{rows}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
