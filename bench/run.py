"""Benchmark for the l2x package: end-to-end times and quality, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload fit_switch --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations on the same
inputs and prints the per-layer metrics instead.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.bench_run/`` under the repository root; the span log of a traced run
is left there as ``trace-<workload>.json``.

The package is imported from ``src/`` next to this directory and from
nowhere else.  The run is one closed-loop client in one process with one
BLAS thread.  End-to-end times are scaled to a nominal host speed read
from a fixed reference kernel (:class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import contextlib
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

sys.dont_write_bytecode = True
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

MAX_UNACCOUNTED = 0.05  # share of a traced iteration the stage spans may leave out
REFERENCE_S = 0.05  # time of reference_s() at the nominal host speed
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def reference_s() -> float:
    """Time a fixed kernel that does not touch l2x, as a reading of host speed.

    Half pure-Python arithmetic, half 128x128 matmuls into preallocated
    arrays, with the garbage collector off, so nothing the program leaves
    in memory changes it.
    """
    import numpy as np

    a = np.full((128, 128), 1.0 / 128)
    x, y = np.ones((128, 128)), np.empty((128, 128))
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(250_000):
            s = (s + i * 7) % 1009
        for _ in range(150):
            np.matmul(x, a, out=y)
            np.tanh(y, out=x)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales wall times to the nominal host speed.

    On a shared virtual CPU (the 2-vCPU Xeon of BASELINE.json) speed
    drifts by up to 1.8x over seconds to minutes, for the l2x code and a
    fixed kernel alike.  Each timed region is scaled by
    ``REFERENCE_S`` over the mean of the reference times taken just before
    and just after it.
    """

    def __init__(self):
        self.last = reference_s()
        self.walls: list[float] = []
        self.references: list[float] = []

    def scale(self, wall: float) -> float:
        after = reference_s()
        reference = (self.last + after) / 2
        self.last = after
        self.walls.append(wall)
        self.references.append(reference)
        return wall * REFERENCE_S / reference


def _iterate(workload, i: int, tracer=None, host=None):
    """One timed iteration, then its checks.

    Returns (wall seconds, scaled by ``host`` if given, failure messages,
    outcome or None, root span index or None).  An exception in the
    iteration or in its checks is a failed operation; it is counted,
    never dropped.
    """
    recording = tracer.recording() if tracer is not None else contextlib.nullcontext()
    with recording as root:
        t0 = time.perf_counter()
        try:
            state, error = workload.run(i), None
        except Exception as e:
            state, error = None, e
        wall = time.perf_counter() - t0
    if host is not None:
        wall = host.scale(wall)
    try:
        if error is not None:
            raise error
        failures, outcome = workload.check(i, state)
    except Exception as e:
        return wall, [f"{workload.name}[{i}]: {type(e).__name__}: {e}"], None, root
    return wall, failures, outcome, root


def run(args, spec: dict) -> dict:
    from workloads import SETUPS, WORKLOADS

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        host = HostSpeed()
        setup_s = []
        for r in range(SETUPS):
            t0 = time.perf_counter()
            workload.setup(r)
            setup_s.append(host.scale(time.perf_counter() - t0))

        if args.trace:
            return traced(workload, args, spec)

        walls, outcomes, all_failures = [], [], []
        start = time.perf_counter()
        i = 0
        # every input set at least once and the first one twice, so the
        # same-input check always compares two real runs
        while i <= workload.inputs or time.perf_counter() - start < args.seconds:
            wall, failures, outcome, _ = _iterate(workload, i, host=host)
            walls.append(wall)
            all_failures.append(failures)
            if outcome is not None:
                outcomes.append(outcome)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"unscaled: setup median {statistics.median(host.walls[:SETUPS]):.4f} s, iteration median "
          f"{statistics.median(host.walls[SETUPS:]):.4f} s, reference median "
          f"{statistics.median(host.references):.4f} s", file=sys.stderr)
    first = [o["quality"] for o in outcomes[:workload.inputs]]
    measured = {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(walls),
        "rank_mean.l2x": statistics.fmean(q[0] for q in first),
        "posthoc_acc.l2x": statistics.fmean(q[1] for q in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result(all_failures, workload.ops_per_iteration, measured, spec["end_to_end"])


def traced(workload, args, spec: dict) -> dict:
    """Pairs of untraced and traced iterations on the same inputs."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    plain, timed, per_iteration, all_failures = [], [], [], []
    try:
        start = time.perf_counter()
        pair = 0
        while pair < 1 or time.perf_counter() - start < args.seconds:
            wall, failures, base, _ = _iterate(workload, pair)
            plain.append(wall)
            all_failures.append(failures)
            wall, failures, outcome, root = _iterate(workload, pair, tracer)
            timed.append(wall)
            per_iteration.append(layer_metrics(tracer, root))
            unaccounted = per_iteration[-1]["pipeline.unaccounted_s"] / wall
            if unaccounted > MAX_UNACCOUNTED:
                failures = failures + [f"{workload.name}[{pair}]: stage spans leave {unaccounted:.1%} "
                                       f"of the iteration unaccounted"]
            # tracing must change no result: same quality, same stable outputs
            if base is not None and outcome is not None and (
                base["quality"] != outcome["quality"] or base["digest"] != outcome["digest"]
            ):
                failures = failures + [f"{workload.name}[{pair}]: traced run changed the results"]
            all_failures.append(failures)
            pair += 1
    finally:
        tracer.uninstall()
        shutil.rmtree(workload.workdir, ignore_errors=True)
    tracer.dump(ROOT / ".bench_run" / f"trace-{workload.name}.json")

    measured = {name: statistics.median([m[name] for m in per_iteration]) for name in per_iteration[0]}
    measured["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    return result(all_failures, workload.ops_per_iteration, measured, spec["per_layer"])


def result(all_failures, ops_per_iteration: int, measured: dict, wanted: list) -> dict:
    for failures in all_failures:
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
    failed = sum(min(len(f), ops_per_iteration) for f in all_failures)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": ops_per_iteration * len(all_failures),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "l2x" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no l2x sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import l2x

    if Path(l2x.__file__).resolve().parent != SRC / "l2x":
        print(f"error: imported l2x from {l2x.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment()}))
    out = run(args, spec)
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
