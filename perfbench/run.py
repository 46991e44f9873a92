"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing installed; ``--trace 1`` is a separate run that wraps every layer
boundary and reports the per-layer metrics instead.  Human-readable lines
(provenance, each metric's median and sample count, failed checks) come
first; the last stdout line is the JSON result.  The exit code is 1 when an
output check failed and 2 when the program source is missing.

Set-up time is the wall time from spawning the workload's process until its
first timed operation can start.  Each run spawns that process
``SETUP_PROBES`` extra times, only to set up, and reports the median.  Times
and rates are scaled to a reference host speed (see ``common``); the
unscaled medians are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("figure_sweep", "supermarket", "serve")
SETUP_PROBES = 3


def run_worker(args) -> dict:
    """figure_sweep / supermarket: set-up probes, then the measured process."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    speed = common.HostSpeed()
    setups, raw_setups = [], []
    for probe in range(SETUP_PROBES + 1):
        measured = probe == SETUP_PROBES
        child = common.Spawned(cmd if measured else cmd + ["--setup-only"], stdin=subprocess.PIPE)
        try:
            child.wait_line(lambda line: line.startswith("READY"))
            raw_setups.append(perf_counter() - child.started)
            # Probe while the child is idle: a set-up-only child once it has
            # exited, the measured one while it waits for GO.
            if measured:
                setups.append(raw_setups[-1] * speed.factor())
                child.proc.stdin.write("GO\n")
            child.proc.stdin.close()
            code, rest = child.finish()
            if not measured:
                setups.append(raw_setups[-1] * speed.factor())
        finally:
            child.kill()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
    out = json.loads(rest[-1])
    out["samples"]["setup_s"] = setups
    out["raw"]["setup_s"] = raw_setups
    return out


def report(out: dict, args) -> tuple[dict, bool]:
    """Human-readable lines, then the metrics the result JSON carries."""
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        values = {name: 0.0 for name in common.PER_LAYER}
        values.update(out["layers"])
        units = common.PER_LAYER
    else:
        samples = out["samples"]
        values = {name: common.median(samples[name]) for name in samples}
        values["peak_rss_mb"] = out["peak_rss_mb"]
        units = common.END_TO_END
    for name, unit in units.items():
        line = f"{args.workload:>12}  {name:<34} {values[name]:>14.6g} {unit:<6}"
        if not args.trace:
            line += f" n={len(out['samples'].get(name, ())) or 1}"
            if name in out["raw"]:
                line += f" unscaled={common.median(out['raw'][name]):.6g}"
        print(line)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, not out["problems"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()

    if args.workload == "serve":
        from perfbench import serve

        out = serve.run(args.seed, args.seconds, bool(args.trace), SETUP_PROBES)
    else:
        out = run_worker(args)
    metrics, correct = report(out, args)
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
