"""Benchmark of the approxud CLI: one command, one workload per run.

    python3 benchmark/run.py --workload solve-dense --seed 1 --seconds 25 --trace 0

Run from the repository root. The CLI (`approxud.cli.main`) is driven in
this process by one client in a closed loop, `--parallel 1`, on inputs drawn
from `--seed`. Whole rounds of the workload's calls are timed until the
calls have used `--seconds` of CPU time; every output is checked against `oracles`
between calls, outside the timed region. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones from a run
with spans around each layer (see README.md).
"""

from __future__ import annotations

import ctypes
import os

# One BLAS thread: the machine has two cores, and a threaded BLAS on the
# small dense blocks of this program spends more CPU than it saves wall time.
# This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _pin_allocator() -> None:
    """Fix glibc's malloc trim and mmap thresholds for this process.

    By default glibc moves both thresholds as blocks are freed, and returns
    the top of the heap to the system whenever enough of it is free. The
    channel kernel allocates megabytes of temporaries per call, so whether
    they are page-faulted in afresh on every call depends on what else sits
    on the heap: the same channel sweep ran 1.9x faster with tracing on than
    off. Fixed thresholds keep freed blocks in the process, so the rate no
    longer depends on heap layout.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_trim_threshold, 1 << 30)
    libc.mallopt(m_mmap_threshold, 32 << 20)


_pin_allocator()

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 3


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve-dense", "binary-surface", "channel-ports"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up, print the CPU time used so far and exit")
    return p.parse_args(argv)


def import_program():
    """Import approxud from this checkout's source tree, never from elsewhere."""
    if not (SRC / "approxud" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'approxud'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from approxud import cli

    if Path(cli.__file__).resolve().parent != (SRC / "approxud").resolve():
        sys.exit(f"error: approxud imported from {cli.__file__}, not from {SRC}")
    return cli


def run_group(main, group, problems: list[str]) -> tuple[int, int, list[int], list[int]]:
    """Run one group's calls; return (points, failed points, CPU ns and wall
    ns per call).

    A call fails when main returns non-zero or raises; a point fails when
    its call failed or its output fails a check. Check failures on calls
    that reported success are also collected in `problems`.
    """
    from workloads import WHOLE_CALL

    outputs, cpu, wall, failed = [], [], [], 0
    for call in group.calls:
        c0, w0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            code = main(call.argv)
        except Exception:  # a crash of the program is a failed point, not a benchmark error
            code = None
            print(f"call {call.argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
        cpu.append(time.process_time_ns() - c0)
        wall.append(time.perf_counter_ns() - w0)
        if code == 0:
            outputs.append(call.out.read_text())
        else:
            outputs.append(None)
            failed += call.points
            print(f"call {call.argv[0]} {call.out.name} exited {code}", file=sys.stderr)
    for call, text, bad in zip(group.calls, outputs, group.check(outputs)):
        if text is None or not bad:
            continue
        failed += call.points if WHOLE_CALL in bad else len(bad)
        for key, msgs in bad.items():
            problems.append(f"{call.out.name}[{key}]: {'; '.join(msgs)}")
    return sum(c.points for c in group.calls), failed, cpu, wall


def reference_job() -> int:
    """CPU time (ns) of a fixed job that does not use approxud: a Python
    loop and small eigendecompositions, about 50 ms on an idle core. Its
    spread across rounds and runs shows how much the machine's own speed
    moved, apart from any change in the program; it is recorded in the
    result file, not reported as a metric."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((60, 60))
    a = a + a.T
    t0 = time.process_time_ns()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    for _ in range(300):
        np.linalg.eigvalsh(a)
    return time.process_time_ns() - t0


def setup(cli, workload: str, seed: int, workdir: Path):
    """Input generation and the untimed warm-up point."""
    from workloads import WORKLOADS

    plan = WORKLOADS[workload](seed, workdir)
    problems: list[str] = []
    _, failed, _, _ = run_group(cli.main, plan.warmup, problems)
    if failed:
        problems.append("warm-up call failed")
    return plan, problems


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Set-up time of fresh processes: the CPU time each spends from its
    start to the point where the first timed call would begin."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_program()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan, problems = setup(cli, args.workload, args.seed, workdir)
        if args.setup_probe:
            print(time.process_time())
            return 0
        setup_samples = [] if args.trace else probe_setup(args)

        tracer = None
        entry = cli.main
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            entry = tracer.wrap("cli.main", cli.main)

        attempted = failed = rounds = output_bytes = busy_ns = 0
        call_ns: list[list[int]] = []  # per round, the CPU time of each call
        wall_ns: list[list[int]] = []  # per round, the wall time of each call
        reference_ns: list[int] = []
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        patch = tracer.patch() if tracer else contextlib.nullcontext()
        with patch:
            while busy_ns < args.seconds * 1e9 or rounds == 0:
                reference_ns.append(reference_job())
                round_ns, round_wall = [], []
                for group in plan.round:
                    points, bad, cpu, wall = run_group(entry, group, problems)
                    attempted += points
                    failed += bad
                    round_ns += cpu
                    round_wall += wall
                    output_bytes += sum(c.out.stat().st_size for c in group.calls if c.out.exists())
                    for c in group.calls:
                        c.out.unlink(missing_ok=True)
                call_ns.append(round_ns)
                wall_ns.append(round_wall)
                busy_ns += sum(round_ns)
                rounds += 1

        # a round's typical time: each call's median over the rounds, summed,
        # so a burst of load from outside that slows one round is not counted
        typical_round_ns = sum(statistics.median(ts) for ts in zip(*call_ns))
        if tracer:
            metrics = tracer.metrics(rounds, sum(map(sum, wall_ns)) * 1e-9, output_bytes)
            metrics["trace.points_per_s"] = attempted / rounds / (typical_round_ns * 1e-9)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
            metrics["process.minor_faults"] = faults / rounds
            tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "points_per_s": attempted / rounds / (typical_round_ns * 1e-9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = declared_units("per_layer" if args.trace else "end_to_end")
        if set(units) != set(metrics):
            sys.exit(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "rounds": rounds,
                  "round_cpu_s": [sum(r) * 1e-9 for r in call_ns],
                  "round_wall_s": [sum(r) * 1e-9 for r in wall_ns],
                  "reference_job_s": [t * 1e-9 for t in reference_ns],
                  "setup_samples": setup_samples, **result}
        (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


if __name__ == "__main__":
    sys.exit(main())
