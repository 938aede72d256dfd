"""Benchmark for hyperind: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ./src.  After
set-up (repeated, median reported), one caller runs the workload's fixed
instance list back to back, cycling through it until --seconds have passed
and at least one whole pass is done.  Every returned set is re-verified by
the benchmark's own edge scan, and every output count must repeat exactly
each time an instance recurs.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then one pass with spans around every layer's public functions (spans.py),
and prints the per-layer metrics.  The last line of standard output is a
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it give the environment, every metric with its unit, and the output counts.
The exit code is 1 when a returned set fails verification or an output count
does not repeat, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PHASES = ("input", "check", "solve")
END_TO_END_UNITS = {
    "setup_s": "s",
    "instance_s_p50": "s",
    "instances_per_s": "1/s",
    "input_s_p50": "s",
    "check_s_p50": "s",
    "solve_s_p50": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Abandoned(Exception):
    """An operation raised, so the rest of its instance cannot run."""


class Ops:
    """Times each call into hyperind under its phase and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.phase_s = dict.fromkeys(PHASES, 0.0)

    def __call__(self, phase: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Abandoned from exc
        finally:
            self.phase_s[phase] += time.perf_counter() - start


def verify(n: int, edges, returned) -> bool:
    """Whether the returned vertices are distinct ids in 0..n-1 spanning no edge."""
    chosen = set(returned)
    if len(chosen) != len(returned) or any(not (0 <= v < n) for v in chosen):
        return False
    return not any(all(v in chosen for v in e) for e in edges)


class Loop:
    """The closed loop over one workload's instance list."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.done = 0
        self.attempted = 0
        self.failed = 0
        self.sets = 0
        self.unverified = 0
        self.first_pass: list = [None] * workload.instances
        self.mismatches: list[int] = []
        self.samples: dict[str, list[float]] = {p: [] for p in ("instance", *PHASES)}

    def step(self) -> None:
        index = self.done % self.workload.instances
        gc.collect()
        ops = Ops()
        try:
            counts, checks = self.workload.instance(self.state, index, ops)
        except Abandoned:
            counts, checks = {"abandoned": True}, []
        else:
            for phase in PHASES:
                self.samples[phase].append(ops.phase_s[phase])
            self.samples["instance"].append(sum(ops.phase_s.values()))
        self.attempted += ops.attempted
        self.failed += ops.failed
        for n, edges, returned in checks:
            self.sets += 1
            if not verify(n, edges, returned):
                self.unverified += 1
                print(f"unverified: instance {index} returned a set spanning an edge", file=sys.stderr)
        counts["set_sizes"] = [len(returned) for _, _, returned in checks]
        if self.first_pass[index] is None:
            self.first_pass[index] = counts
        elif self.first_pass[index] != counts:
            self.mismatches.append(index)
            print(f"output counts of instance {index} did not repeat", file=sys.stderr)
        self.done += 1

    def run_pass(self) -> float:
        start = time.perf_counter()
        for _ in range(self.workload.instances):
            self.step()
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> float:
        start = time.perf_counter()
        while True:
            self.step()
            elapsed = time.perf_counter() - start
            if self.done >= self.workload.instances and elapsed >= seconds:
                return elapsed

    @property
    def correct(self) -> bool:
        return self.unverified == 0 and not self.mismatches


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperind").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "load1_start": load,
        "loaded_at_start": load > nproc,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(loop: Loop, wall: float, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "instance_s_p50": _median(loop.samples["instance"]),
        "instances_per_s": len(loop.samples["instance"]) / wall,
        "input_s_p50": _median(loop.samples["input"]),
        "check_s_p50": _median(loop.samples["check"]),
        "solve_s_p50": _median(loop.samples["solve"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperind" / "__init__.py").is_file():
        print(f"perfbench: no hyperind sources under {SRC}", file=sys.stderr)
        return 2
    # one thread: keep numpy's math libraries from starting their own pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import hyperind
    import spans
    import workloads

    import_s = time.perf_counter() - import_start
    if Path(hyperind.__file__).resolve().parent != SRC / "hyperind":
        print(f"perfbench: imported hyperind from {hyperind.__file__}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if env["loaded_at_start"]:
        print(f"warning: load {env['load1_start']:.2f} above nproc {env['nproc']} at start")
    workload = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=HERE) as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        loop = Loop(workload, state)
        if args.trace:
            untraced_s = loop.run_pass()
            with spans.Tracer() as tracer:
                traced_s = loop.run_pass()
            values = tracer.metrics()
            values.update(
                {
                    "trace.untraced_s": untraced_s,
                    "trace.traced_s": traced_s,
                    "trace.overhead": traced_s / untraced_s - 1.0,
                    "trace.coverage": tracer.top_level_s / traced_s,
                }
            )
            units = {**spans.metric_units(), **TRACE_UNITS}
        else:
            wall = loop.run_for(args.seconds)
            values = end_to_end(loop, wall, setup_s)
            units = END_TO_END_UNITS

    env["load1_end"] = os.getloadavg()[0]
    sizes = [sum(c["set_sizes"]) for c in loop.first_pass]
    report = {
        "env": env,
        "instances_run": loop.done,
        "samples": {k: len(v) for k, v in loop.samples.items()},
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "failed_frac": loop.failed / max(1, loop.attempted),
        "unverified_frac": loop.unverified / max(1, loop.sets),
        "set_size_sum": sum(sizes),
        "setup_counts": state.counts,
        "counts": loop.first_pass,
    }
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric failed_frac {report['failed_frac']!r} ratio")
    print(f"metric unverified_frac {report['unverified_frac']!r} ratio")
    print(f"metric set_size_sum {report['set_size_sum']} count")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if loop.correct else 1


if __name__ == "__main__":
    sys.exit(main())
