"""Benchmark of votebounds: four seeded, closed-loop workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload {exact,sampling,decide,cli} \\
        --seed N --seconds S --trace {0,1}

One client sends the next operation only after the previous one has
finished. Every output is checked (see workloads.py). With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it runs the
stream untraced for half the time and traced for the other half and
reports the per-layer metrics. The second-to-last line of stdout is the
full result record (machine, counts, failures, metric details); the last
line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
README.md documents both.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up runs this many times in fresh processes, spread over the timed
# loop; setup_s is the median.
SETUP_REPEATS = 7
# Timing probes of the cli layer metrics, median of this many.
CLI_PROBE_REPEATS = 5
# Calls into every layer, for layers the traced workload skips.
LAYER_PROBE_REPEATS = 5
# Tail percentile: the highest one with at least this many samples beyond.
TAIL_BEYOND = 10

E2E_UNITS = {
    "work_rate": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def import_package() -> SimpleNamespace:
    """Import votebounds from this checkout's src/, never from elsewhere."""
    if not (SRC / "votebounds" / "__init__.py").is_file():
        raise BenchError(f"no votebounds package under {SRC}; run from a full checkout")
    # Workers stay at the library default unless a workload passes them.
    os.environ.pop("VOTEBOUNDS_THREADS", None)
    sys.path.insert(0, str(SRC))
    import votebounds
    from votebounds import bounds, cli, core, exact, montecarlo, rule

    if Path(votebounds.__file__).resolve().parent != (SRC / "votebounds").resolve():
        raise BenchError(f"imported votebounds from {votebounds.__file__}, not from {SRC}")
    return SimpleNamespace(bounds=bounds, cli=cli, core=core, exact=exact,
                           montecarlo=montecarlo, rule=rule)


def set_up(name: str, seed: int, workdir: Path):
    """Import, build the inputs and run one untimed warm-up op."""
    vb = import_package()
    workload = wl.make_workload(name, vb, seed, ROOT, workdir)
    op = workload.warmup()
    op.prepare()
    status, reason = op.check(*_call(op))
    if status == wl.FAIL:
        raise BenchError(f"warm-up op {op.key} failed: {reason}")
    return vb, workload


@dataclass
class Phase:
    """Outcome of one timed loop over a stream."""

    latencies: list = field(default_factory=list)
    busy_s: float = 0.0
    cpu_s: float = 0.0
    work: float = 0.0
    counts: dict = field(default_factory=lambda: {wl.OK: 0, wl.DEFECT: 0, wl.FAIL: 0})
    failures: list = field(default_factory=list)
    defects: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def work_rate(self) -> float:
        return self.work / self.busy_s if self.busy_s > 0 else 0.0


def _call(op):
    """(result, None) or (None, exception); the op's check classifies both."""
    try:
        return op.run(), None
    except Exception as exc:
        return None, exc


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where it is missing.

    Called with 0 between ops, outside the timed region, so that every op starts
    from the same allocator state: peak RSS then follows what ops hold,
    not what freed memory the allocator happened to keep.
    """
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda _pad: 0


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(blocks, seconds: float, inprocess: bool = False, between=None) -> Phase:
    """Run whole blocks of ops until ``seconds`` have passed; time and
    check each op.

    ``between(elapsed)``, if given, runs after each op with the loop time
    so far. The time it takes does not count toward ``seconds``.
    """
    phase = Phase()
    trim = _heap_trimmer()
    start = time.perf_counter()
    paused = 0.0
    for block in blocks:
        for op in block:
            trim(0)
            op.prepare()
            cpu0 = _cpu()
            t0 = time.perf_counter()
            result, exc = _call(op)
            dt = time.perf_counter() - t0
            phase.cpu_s += _cpu() - cpu0
            phase.busy_s += dt
            status, reason = op.check(result, exc)
            phase.counts[status] += 1
            if status == wl.OK:
                phase.work += op.work
                phase.latencies.append(dt)
            else:
                # A failed op misses every latency limit.
                phase.latencies.append(math.inf)
                if status == wl.DEFECT:
                    phase.defects[reason] = phase.defects.get(reason, 0) + 1
                elif len(phase.failures) < 20:
                    phase.failures.append({"op": op.key, "reason": reason})
            if inprocess and op.inprocess is not None:
                op.inprocess()
            if between is not None:
                t = time.perf_counter()
                between(t - start - paused)
                paused += time.perf_counter() - t
        if time.perf_counter() - start - paused >= seconds:
            break
    return phase


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    return max(0, math.floor(100 - 100 * TAIL_BEYOND / n)) if n else 0


def latency_stats(latencies: list) -> dict:
    """The median over every attempted op, a failed op counting as +inf.

    The tail is taken over the ops that succeeded. Otherwise the failed
    ops, a fixed share of every block, would fill the top ranks once a run
    holds enough of them, and the tail would read +inf.
    """
    values = sorted(latencies)
    done = [v for v in values if math.isfinite(v)]
    n = len(done)
    q = tail_percentile(n)
    rank = max(1, math.ceil(q * n / 100))
    return {"p50_ms": statistics.median(values) * 1e3,
            "tail_ms": done[rank - 1] * 1e3 if done else math.inf,
            "tail_percentile": q, "samples": n, "beyond_tail": n - rank,
            "failed_ops": len(values) - n}


def peak_rss_mib(workload) -> float:
    """Peak RSS of the process doing the work: ourselves, or the largest CLI child."""
    children = getattr(workload, "child_rusage", None)
    if children:
        return max(r.ru_maxrss for r in children) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbes:
    """Wall time of set-up in fresh processes, from spawn to warm-up done.

    The probes run between ops, spread evenly over the timed loop, so
    that one slow spell of a shared host does not move all of them.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(seed), "--setup-probe"]
        self.due = [seconds * (i + 0.5) / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.times: list[float] = []

    def run_due(self, elapsed: float) -> None:
        """Run the probes due by ``elapsed`` seconds of the loop."""
        while len(self.times) < SETUP_REPEATS and self.due[len(self.times)] <= elapsed:
            t0 = time.perf_counter()
            with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                dt = time.perf_counter() - t0
                proc.stdout.read()
            if proc.returncode != 0 or line.strip() != "ready":
                raise BenchError(f"set-up probe exited {proc.returncode}")
            self.times.append(dt)


def _median_ms(cmd: list[str], env: dict, parse=None) -> float | dict:
    walls, parsed = [], []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError(f"{cmd} exited {done.returncode}: {done.stderr.strip()}")
        if parse:
            parsed.append(parse(done.stderr))
    if parse:
        return {k: statistics.median(p[k] for p in parsed) for k in parsed[0]}
    return statistics.median(walls) * 1e3


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")


def _import_times(stderr: str) -> dict:
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) in ("numpy", "votebounds"):
            cumulative[m.group(2)] = max(cumulative.get(m.group(2), 0), int(m.group(1)))
    return {"numpy": cumulative["numpy"] / 1e3, "votebounds": cumulative["votebounds"] / 1e3}


def cli_probe_metrics() -> dict:
    env = wl.cli_env(ROOT)
    imports = _median_ms([sys.executable, "-X", "importtime", "-c", "import votebounds"],
                         env, _import_times)
    return {
        "cli.interpreter_ms": _median_ms([sys.executable, "-c", "pass"], env),
        "cli.import_numpy_ms": imports["numpy"],
        "cli.import_votebounds_ms": imports["votebounds"],
    }


def machine_info(args, workers: int) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return ""

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{index}/size")
    mem = next((line.split(":", 1)[1].strip() for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    commit = "unknown"
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    import numpy

    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "l2": caches.get("L2", ""), "l3": caches.get("L3", ""),
        "ram": mem, "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "commit": commit, "seed": args.seed,
        "workers": workers, "trace": bool(args.trace),
    }


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_work/ at the root, removed on exit."""
    work_root = ROOT / wl.WORK_DIR_NAME
    work_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=work_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def run(args) -> dict:
    """One benchmark run; returns the full result record."""
    with scratch_dir() as workdir:
        vb, workload = set_up(args.workload, args.seed, workdir)
        if args.trace:
            return traced_run(args, vb, workload, workdir)
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        phase = measure(workload.stream(), args.seconds, between=probes.run_due)
        probes.run_due(math.inf)
        rss = peak_rss_mib(workload)
    lat = latency_stats(phase.latencies)
    values = {
        "work_rate": phase.work_rate,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "cpu_ms_per_op": phase.cpu_s / phase.attempted * 1e3,
        "peak_rss_mib": rss,
        "setup_s": statistics.median(probes.times),
    }
    details = {
        "work_rate": {"work_unit": workload.work_unit},
        "latency_tail_ms": {"percentile": lat["tail_percentile"], "samples": lat["samples"],
                            "beyond": lat["beyond_tail"], "failed_ops": lat["failed_ops"]},
        "latency_p50_ms": {"samples": phase.attempted},
        "setup_s": {"runs_s": probes.times},
    }
    return record(args, workload, [phase], values, E2E_UNITS, details)


def _traced(vb, fn, *args):
    tracer = tracing.Tracer()
    tracer.install(vb)
    try:
        return tracer, fn(*args)
    finally:
        tracer.uninstall()


def traced_run(args, vb, workload, workdir: Path) -> dict:
    """Half the time untraced, then the same stream traced.

    A layer the workload never calls is measured instead on small calls
    into every layer made after the traced phase, so every per-layer
    metric holds a measured value; ``source`` in the record says which.
    """
    half = args.seconds / 2
    plain = measure(workload.stream(), half)
    tracer, traced = _traced(vb, measure, workload.stream(), half, True)
    values = tracing.layer_metrics(tracer, traced.attempted, vb.montecarlo.BLOCK_SIZE)
    probe, _ = _traced(vb, lambda: [tracing.call_every_layer(vb, workdir, wl.SAMPLING_WORKERS)
                                    for _ in range(LAYER_PROBE_REPEATS)])
    fallback = tracing.layer_metrics(probe, LAYER_PROBE_REPEATS, vb.montecarlo.BLOCK_SIZE)
    probed = [k for k, v in values.items() if v is None]
    values.update({k: fallback[k] for k in probed})
    values.update(cli_probe_metrics())
    values["trace.overhead_frac"] = (1.0 - traced.work_rate / plain.work_rate
                                     if plain.work_rate > 0 else 0.0)
    phases = [plain, traced]
    attempted = sum(p.attempted for p in phases)
    values["failure_ratio"] = sum(p.counts[wl.FAIL] + p.counts[wl.DEFECT]
                                  for p in phases) / attempted
    details = {k: {"source": "layer probe" if k in probed else "workload"} for k in values}
    for k in ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_votebounds_ms"):
        details[k] = {"source": "fresh interpreters", "repeats": CLI_PROBE_REPEATS}
    details["trace.overhead_frac"].update(untraced_work_rate=plain.work_rate,
                                          traced_work_rate=traced.work_rate,
                                          spans=len(tracer.spans))
    return record(args, workload, phases, values, tracing.LAYER_UNITS, details)


def record(args, workload, phases, values, units, details) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.counts[wl.FAIL] for p in phases)
    defects = sum(p.counts[wl.DEFECT] for p in phases)
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise BenchError(f"non-finite metrics {bad}; too many ops failed")
    known = {}
    for p in phases:
        for reason, count in p.defects.items():
            known[reason] = known.get(reason, 0) + count
    return {
        "benchmark": "votebounds",
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": machine_info(
            args, wl.SAMPLING_WORKERS if args.workload == "sampling" else 1),
        "inputs_sha256": wl.stream_digest(workload.stream(), 1),
        "attempted": attempted,
        "ok": attempted - failed - defects,
        "failed": failed,
        "known_defects": defects,
        "failure_ratio": (failed + defects) / attempted,
        "defect_reasons": known,
        "failures": [f for p in phases for f in p.failures][:20],
        "metrics": {k: {"value": values[k], "unit": units[k], **details.get(k, {})}
                    for k in units},
    }


def summary(rec: dict) -> dict:
    """The last stdout line: known defects count in failure_ratio, not in failed."""
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in rec["metrics"].items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit; times setup_s")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that scratch files and child processes are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.setup_probe:
            with scratch_dir() as workdir:
                set_up(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        rec = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(rec))
    print(json.dumps(summary(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
