"""Benchmark for evomapf: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload train-town --seed 1 --seconds 40 --trace 0

`--trace 0` measures the end-to-end metrics with nothing patched but the
episode counters (and, in suite-small, a timer around `bench.evaluate`).
`--trace 1` alternates untraced and traced runs of the
same unit of work and reports per-layer calls, total and self seconds
(per unit), layer counters and the tracing overhead.  `--smoke` shrinks
every workload to a few episodes, for the benchmark's own tests.

Units of work run until the next one would end after `--seconds`; at
least one always runs.  Set-up runs once before the first unit and is
then repeated, on throwaway copies of the workload, between units until
it has taken `SETUP_SHARE` of the time so far; its median is `setup_s`.
Spreading the set-ups over the whole run lets their median see the same
host as the units do: on a shared host the speed drifts from second to
second, and set-ups taken in one burst spread by over 25% between runs.
The second-to-last line of standard output describes the run (machine,
versions, git SHA, seed); the last line is the result:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 13.1, "unit": "s"}, ...}}
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

from tracing import Tracer, package_modules
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "mean_timesteps": "steps",
    "collisions_per_episode": "count/episode",
}

SETUP_SHARE = 0.08  # of the run spent repeating set-up between units
MIN_SETUPS = 15


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(ROOT),
        "machine": platform.machine(),
    }


def measure(make_workload, seconds: float, tracer, min_setups: int):
    """Set up, then run units until the next would end past the deadline.

    Returns the measured workload, the set-up times, the untraced
    outputs, the traced outputs (empty without a tracer), and the
    operations attempted and failed by the unit checks.  In a traced run
    each unit runs untraced and then traced, on the same inputs, so the
    two walls measure the same work.
    """
    started = time.perf_counter()
    deadline = started + seconds
    setup_times: list[float] = []

    def set_up():
        workload = make_workload()
        begun = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - begun)
        return workload

    workload = set_up()
    measured_modules = {module.__name__: module for module in package_modules()}

    def repeat_set_up(until_seconds: float, until_count: int = 0) -> None:
        while sum(setup_times) < until_seconds or len(setup_times) < until_count:
            set_up()
        # Every set-up re-imports the package; the units keep running on the first import.
        for module in package_modules():
            del sys.modules[module.__name__]
        sys.modules.update(measured_modules)
        gc.collect()

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    index = 0
    while True:
        outs = [workload.unit(index)]
        plain.append(outs[0])
        if tracer is not None:
            with tracer.installed():
                outs.append(workload.unit(index))
            traced.append(outs[1])
        for out in outs:
            a, f = workload.check(out)
            attempted += a
            failed += f
        index += 1
        repeat_set_up(SETUP_SHARE * (time.perf_counter() - started))
        per_round = statistics.median(o["wall_s"] for o in plain)
        if traced:
            per_round += statistics.median(o["wall_s"] for o in traced)
        if time.perf_counter() + per_round * (1 + SETUP_SHARE) > deadline:
            repeat_set_up(0.0, min_setups)
            return workload, setup_times, plain, traced, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "evomapf" / "__init__.py").is_file():
        print(f"error: no evomapf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        workload, setup_times, plain, traced, attempted, failed = measure(
            lambda: WORKLOADS[args.workload](args.seed, args.smoke, str(workdir)),
            args.seconds, tracer, 2 if args.smoke else MIN_SETUPS)
        a, f = workload.final_checks()
        attempted += a
        failed += f
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            **workload.metrics(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        units = len(traced)
        traced_wall = statistics.fmean(o["wall_s"] for o in traced)
        untraced_wall = statistics.fmean(o["wall_s"] for o in plain)
        layer = tracer.metrics(units)
        layer["trace.wall_s"] = (traced_wall, "s")
        layer["trace.untraced_wall_s"] = (untraced_wall, "s")
        layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        layer["trace.unattributed_s"] = (traced_wall - tracer.self_seconds() / units, "s")
        layer["trace.units"] = (units, "count")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}

    info = run_info(args, numpy.__version__)
    info["unit_walls_s"] = [o["wall_s"] for o in plain]
    info["setup_times_s"] = setup_times
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
