"""Benchmark of the polydisc CLI, run against this checkout's src tree.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Load comes from one closed-loop client: one operation at a time, each made of
one or more CLI invocations (see workloads.py). Before anything is timed the
operation runs once untimed, so .pyc compilation and a cold file cache stay
out of the samples.

--trace 0 runs the CLI entry point in child processes and reports set-up time,
wall time and CPU time, calibrated for the core's speed (see
REFERENCE_KERNEL_S), and peak RSS. --trace 1 runs the same operation in this
process, alternating untraced and traced passes, and reports per-layer calls
and self times from the traced passes (see tracing.py). Every output is
checked. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run and the
machine. --smoke shrinks every size, for a quick test of the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Start-ups timed for setup_s, in groups between speed calibrations; the
# median is reported.
SETUP_GROUPS, SETUP_GROUP_SIZE = 3, 5
# Other tenants of a shared host slow a core by up to 2x for minutes at a
# time, more than the regressions the bounds must catch. So every time is
# taken on one pinned CPU and scaled by REFERENCE_KERNEL_S over the time of a
# fixed kernel run on that CPU right before and right after it: the reported
# seconds are seconds on a core where the kernel takes REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.3
# One operation that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 70.0

# Runs the CLI entry point from the given src tree, as the installed
# `polydisc` script would, and refuses any other copy of the package. At exit
# it writes its peak RSS to the report pipe: the rusage a parent collects also
# counts the parent's own peak, which a child inherits across fork and exec.
LAUNCHER = """
import os, sys
report, src = int(sys.argv.pop(1)), sys.argv.pop(1)
sys.path.insert(0, src)
try:
    import polydisc
    if not polydisc.__file__.startswith(os.path.join(src, "")):
        sys.exit(f"polydisc was imported from {polydisc.__file__}, outside {src}")
    from polydisc.cli import main
    sys.exit(main(sys.argv[1:]))
finally:
    with open("/proc/self/status") as status:
        os.write(report, next(line for line in status if line.startswith("VmHWM:")).encode())
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.note(f"{what}: {problem}")

    def note(self, problem: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(problem)


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    timed_out: bool


def spawn(args: list[str], src: Path, deadline: float) -> Child:
    """Run the CLI to exit; wall time is spawn to exit, CPU and RSS its own."""
    report_fd, report_w = os.pipe()
    argv = [sys.executable, "-c", LAUNCHER, str(report_w), str(src), *args]
    with open(report_fd, "rb") as report:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, pass_fds=(report_w,)
            )
        finally:
            os.close(report_w)
        with proc:
            chunks = {proc.stdout: [], proc.stderr: [], report: []}
            timed_out = False
            with selectors.DefaultSelector() as selector:
                for pipe in chunks:
                    selector.register(pipe, selectors.EVENT_READ)
                while selector.get_map():
                    timeout = None if timed_out else max(deadline - time.perf_counter(), 0.0)
                    for key, _ in selector.select(timeout):
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            selector.unregister(key.fileobj)
                    if not timed_out and time.perf_counter() >= deadline:
                        proc.kill()
                        timed_out = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    hwm = b"".join(chunks[report]).split()  # [b"VmHWM:", kB, b"kB"] when reported
    return Child(
        code=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        stderr=b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=int(hwm[1]) if len(hwm) == 3 else 0,
        timed_out=timed_out,
    )


def run_children(calls: list[workloads.Call], src: Path, tally: Tally) -> Optional[tuple[float, float, int]]:
    """One operation in child processes: (wall s, CPU s, peak RSS KB), None if killed."""
    deadline = time.perf_counter() + OP_TIMEOUT_S
    wall = cpu = 0.0
    rss = 0
    for call in calls:
        child = spawn(list(call.argv), src, deadline)
        if child.timed_out:
            tally.record(" ".join(call.argv), f"killed after {OP_TIMEOUT_S:.0f} s")
            return None
        tally.record(" ".join(call.argv), call.problem(child.code, child.stdout, child.stderr))
        wall += child.wall_s
        cpu += child.cpu_s
        rss = max(rss, child.rss_kb)
    return wall, cpu, rss


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the oracle's residue check; it uses
    nothing from polydisc, so changes to the program do not move it."""
    collisions = 0
    for m in range(17400, 18600):
        seen = bytearray(m)
        for x in range(1, 601):
            r = 0
            for c in (29, -1, 0):
                r = (r * x + c) % m
            collisions += seen[r]
            seen[r] = 1
    return collisions


class Calibration:
    """Core speed from kernel runs bracketing each group of timed samples."""

    def __init__(self) -> None:
        self.kernel_s = [self._time_kernel()]

    @staticmethod
    def _time_kernel() -> float:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale for the samples taken since the previous kernel run."""
        self.kernel_s.append(self._time_kernel())
        return REFERENCE_KERNEL_S / statistics.mean(self.kernel_s[-2:])


def measure_setup(src: Path, groups: int, calibration: Calibration, tally: Tally) -> list[float]:
    """Fresh-interpreter start-up to a ready CLI, timed as a `--help` run."""
    times = []
    for _ in range(groups):
        group = []
        for _ in range(SETUP_GROUP_SIZE):
            child = spawn(["--help"], src, time.perf_counter() + OP_TIMEOUT_S)
            ok = child.code == 0 and child.stdout.startswith("usage: polydisc")
            tally.record("--help", None if ok else f"exit code {child.code}: {child.stderr.strip()[-300:]}")
            group.append(child.wall_s)
        factor = calibration.factor()
        times += [t * factor for t in group]
    return times


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, when there is one."""
    n = len(samples)
    if n <= 20:
        return "no tail percentile below 21 samples"
    k = n - 10
    return f"p{100 * k // n} {sorted(samples)[k - 1]:.4f} s"


def untraced_run(calls: list[workloads.Call], src: Path, seconds: float, smoke: bool) -> tuple[Tally, dict]:
    """End-to-end metrics from CLI child processes, in calibrated seconds."""
    tally = Tally()
    # untimed: compiles .pyc and fills the file cache
    if run_children(calls, src, tally) is None:
        return tally, {}
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    calibration = Calibration()
    setup = measure_setup(src, 1 if smoke else SETUP_GROUPS, calibration, tally)
    samples: list[tuple[float, float, int]] = []
    raw_walls: list[float] = []
    start = time.perf_counter()
    while True:
        sample = run_children(calls, src, tally)
        if sample is None:
            break
        wall, cpu, rss = sample
        factor = calibration.factor()
        samples.append((wall * factor, cpu * factor, rss))
        raw_walls.append(wall)
        # stop before an operation that would end past the measuring time
        if time.perf_counter() - start + statistics.median(raw_walls) > seconds:
            break
    if not samples:
        tally.note("no timed operation finished")
        return tally, {}
    walls = [s[0] for s in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s[1] for s in samples),
        "peak_rss_mb": statistics.median(s[2] for s in samples) / 1024,
        "setup_s": statistics.median(setup),
    }
    print(f"kernel median {statistics.median(calibration.kernel_s):.4f} s over {len(calibration.kernel_s)} runs "
          f"(reference {REFERENCE_KERNEL_S} s); uncalibrated wall median {statistics.median(raw_walls):.4f} s")
    print(f"setup_s median {metrics['setup_s']:.4f} s over {len(setup)} start-ups")
    print(f"wall_s median {metrics['wall_s']:.4f} s over {len(walls)} operations; {tail_note(walls)}")
    print(f"cpu_s median {metrics['cpu_s']:.4f} s; peak_rss_mb median {metrics['peak_rss_mb']:.2f} MB")
    return tally, metrics


def in_process_op(cli, calls: list[workloads.Call], tally: Tally) -> float:
    """One operation through cli.main in this process; returns its wall time."""
    wall = 0.0
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed invocation, not a benchmark error
                code = -1
                err.write(traceback.format_exc())
        wall += time.perf_counter() - start
        tally.record(" ".join(call.argv), call.problem(code, out.getvalue(), err.getvalue()))
    return wall


def import_checkout(src: Path):
    """Import polydisc.cli from src, refusing any other copy of the package."""
    sys.path.insert(0, str(src))
    import polydisc
    import polydisc.cli

    if not polydisc.__file__.startswith(os.path.join(str(src), "")):
        raise BenchError(f"polydisc was imported from {polydisc.__file__}, outside {src}")
    return polydisc.cli


def traced_run(workload: workloads.Workload, calls: list[workloads.Call], src: Path, seconds: float) -> tuple[Tally, dict]:
    """Per-layer metrics from traced passes, with untraced passes for the overhead."""
    tally = Tally()
    cli = import_checkout(src)
    in_process_op(cli, calls, tally)  # untimed warm-up
    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[tracing.Tracer] = []
    start = time.perf_counter()
    while True:
        untraced.append(in_process_op(cli, calls, tally))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(in_process_op(cli, calls, tally))
        tracers.append(tracer)
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break

    counts = tracers[0].counts()
    if any(t.counts() != counts for t in tracers[1:]):
        tally.note("per-layer counts differ between traced passes")
    if workload.search_only and counts["discriminator.candidates"] != counts["discriminator.is_discriminating.calls"]:
        tally.note(
            f"discriminator.candidates {counts['discriminator.candidates']} != "
            f"is_discriminating calls {counts['discriminator.is_discriminating.calls']}: a binding site is unwrapped"
        )
    per_pass = [t.metrics() for t in tracers]
    # median_low picks one pass's value, so counts stay whole numbers
    metrics = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    print(f"traced passes {len(traced)}; overhead ratio {metrics['trace.overhead_ratio']:.3f}")
    for (parent, child), n in sorted(tracers[0].edges.items()):
        print(f"span {parent} -> {child}: {n} calls")
    return tally, metrics


def describe_machine(src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git here; src_sha256 still identifies the code
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to test the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    try:
        if not (src / "polydisc" / "cli.py").is_file():
            raise BenchError(f"no polydisc source tree at {src}")
        if not (ROOT / "tests" / "tables.py").is_file():
            raise BenchError("tests/tables.py, the golden tables, is missing")
        # execution is sequential whatever this says; keep it out of the runs
        os.environ.pop("DISCRIM_THREADS", None)
        registry = workloads.workloads(workloads.load_table3(ROOT))
        if args.workload not in registry:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(registry)}")
        workload = registry[args.workload]
        calls = workloads.operation(workload, args.seed, args.smoke)
        print("meta " + json.dumps({"workload": args.workload, "seed": args.seed, **describe_machine(src)}))
        if args.trace:
            tally, metrics = traced_run(workload, calls, src, args.seconds)
        else:
            tally, metrics = untraced_run(calls, src, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    units = tracing.metric_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": not tally.problems and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
