"""sgflow benchmark: run one workload as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

The client sends the next request only after the previous one finished.
A run sets up its seeded pool of requests SETUP_REPEATS times, then sends
whole passes over the pool: as many as fill --seconds at the workload's
nominal pass time, so that runs on any commit repeat the same requests
equally often.  End-to-end times are scaled to a reference host speed by a
calibration chunk timed between ops (Clock).  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; the line before it, starting with
"record ", holds the full record (inputs digest, machine, sample counts),
which --out also writes to a file and --compare reads.  The exit code is 1
when any output fails its independent check.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
TAIL_BEYOND = 10
MAX_OVERRUN = 4  # a run stops sending passes after this many times --seconds
FAIL_KINDS = ("value_error", "desk_scale", "assertion", "wrong_result", "other")
CLI_IMPORT_REPEATS = 5
# Seconds one calibration chunk takes at the reference host speed: about its
# time on 2 vCPUs of an Intel Xeon, Python 3.11, when that shared host was at
# its slower speed.
CAL_REF_S = 0.004
SPAN_CHUNKS = 5  # chunks timed on each side of the import and of a set-up


def calibration_chunk() -> float:
    """Seconds one fixed chunk of pure-Python work takes now: set lookups,
    integer shifts and a sort, the kind of work sgflow's searches do.

    When the host slows, this chunk slows by the same share as sgflow's ops
    (the slope of log op time on log chunk time was 0.95 to 1.01 for three
    ops); a chunk of dict and string work slowed a fifth more than they did.
    The garbage collector is off meanwhile, so that the chunk never pays for
    collecting the heap of the ops around it."""
    gc.disable()
    t0 = time.perf_counter()
    seen, acc = set(), 0
    for i in range(16000):
        x = (i * 31) & 1023
        if x not in seen:
            seen.add(x)
        acc ^= x << (i & 15)
    sorted(seen, reverse=True)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Clock:
    """Scales wall times to the reference host speed.

    The benchmark shares a host whose speed for one process changes by up
    to 2x with the load of other tenants; a speed lasts from tens of
    milliseconds to a few seconds.  So calibration chunks are timed between
    the timed intervals, never inside one, and an interval of T seconds is
    reported as T * CAL_REF_S / c: the time it would have taken at the
    reference speed.  c is the mean time of the chunks that ended within T
    of the interval, and at least of the last chunk before it and the first
    after it: a short op is scaled by the speed just around it, a long one
    by the speed over a stretch of the run as long as itself.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.chunks: list[float] = []

    def tick(self, n: int = 1) -> None:
        """Time n chunks now."""
        for _ in range(n):
            chunk = calibration_chunk()
            self.ends.append(time.perf_counter())
            self.chunks.append(chunk)

    def scale(self, span: tuple[float, float]) -> float:
        """The interval span = (start, end) at the reference speed; call it
        once the chunks after the interval have been timed."""
        t0, t1 = span
        lo = min(bisect.bisect_right(self.ends, t0 - (t1 - t0)),
                 bisect.bisect_right(self.ends, t0) - 1)
        hi = max(bisect.bisect_right(self.ends, t1 + (t1 - t0)),
                 bisect.bisect_right(self.ends, t1) + 1)
        return (t1 - t0) * CAL_REF_S / statistics.mean(self.chunks[lo:hi])


def import_sgflow(clock: Clock) -> tuple[float, float]:
    """Put the checkout's sources first on the path; return the import's
    span (start, end)."""
    if not (SRC / "sgflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    clock.tick(SPAN_CHUNKS)
    t0 = time.perf_counter()
    import sgflow.cli  # noqa: F401  (imports every sgflow module)
    t1 = time.perf_counter()
    clock.tick(SPAN_CHUNKS)
    if Path(sys.modules["sgflow"].__file__).resolve().parent != SRC / "sgflow":
        sys.exit("perfbench: imported an sgflow other than the checkout's")
    return t0, t1


# -- running ops -------------------------------------------------------------------

class Tally:
    """Outcomes of the ops a run attempted; timed ops keep their spans
    (start, end), each followed by a calibration chunk."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.fails: Counter[str] = Counter()
        self.spans: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)

    @property
    def failed(self) -> int:
        return sum(self.fails.values())

    def run(self, op, timed: bool = True) -> float:
        """Run and check one op; return its measured wall time."""
        from sgflow.core import DeskScaleError

        self.attempted += 1
        kind, err = None, None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except DeskScaleError as exc:
            kind, err = "desk_scale", exc
        except ValueError as exc:
            kind, err = "value_error", exc
        except AssertionError as exc:
            kind, err = "assertion", exc
        except Exception as exc:  # a failed op is counted, and the run goes on
            kind, err = "other", exc
        t1 = time.perf_counter()
        if timed:
            self.clock.tick()
            self.spans[id(op)].append((t0, t1))
        if kind is None:
            try:
                op.check(out)
            except Exception as exc:  # malformed output fails its check too
                kind, err = "wrong_result", exc
        if kind is not None:
            self.fails[kind] += 1
            print(f"FAILED ({kind}) {op.label}", file=sys.stderr)
            traceback.print_exception(err, limit=3, file=sys.stderr)
        return t1 - t0

    def raw(self) -> dict[int, list[float]]:
        """Every timed op's wall times as measured."""
        return {k: [t1 - t0 for t0, t1 in v] for k, v in self.spans.items()}

    def scaled(self) -> dict[int, list[float]]:
        """Every timed op's wall times at the reference speed."""
        return {k: list(map(self.clock.scale, v)) for k, v in self.spans.items()}


def more_passes(done: int, want: int, start: float, seconds: float) -> bool:
    """Send `want` passes; stop early only if the run overruns badly."""
    return done < want and (
        done < 2 or time.perf_counter() - start < MAX_OVERRUN * seconds)


def one_pass(pool, tally: Tally) -> float:
    gc.collect()
    tally.clock.tick()
    return sum(tally.run(op) for op in pool)


def set_up(workloads, name: str, seed: int, ctx,
           tally: Tally) -> tuple[list, str, tuple[float, float]]:
    """Build the pool and warm it up, counting the warm-up ops in tally;
    return pool, inputs digest and the set-up's span (start, end)."""
    tally.clock.tick(SPAN_CHUNKS)
    t0 = time.perf_counter()
    pool = workloads.build(name, seed, ctx)
    for op in pool:
        if op.warm:
            tally.run(op, timed=False)
    t1 = time.perf_counter()
    tally.clock.tick(SPAN_CHUNKS)
    text = "\n".join([name] + [op.inputs for op in pool])
    return pool, "sha256:" + hashlib.sha256(text.encode()).hexdigest(), (t0, t1)


# -- metrics -----------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (percentile, value): the sample of rank N - TAIL_BEYOND."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        sys.exit(f"perfbench: {len(xs)} samples leave no tail percentile")
    return 100 * (len(xs) - TAIL_BEYOND) / len(xs), xs[-TAIL_BEYOND - 1]


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else list(xs) * 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical_times(samples: dict[int, list[float]]) -> list[float]:
    """Every sample of an op replaced by the median of that op's samples.

    An op repeats the same work in every pass, so the spread of its samples
    is the host's, not the program's.  The percentiles are then taken
    across ops, whose inputs differ, not across repeats of one.
    """
    out = []
    for ts in samples.values():
        out += [statistics.median(ts)] * len(ts)
    return out


def end_to_end(tally: Tally, samples: dict[int, list[float]],
               setup_s: float) -> tuple[dict, dict]:
    times = typical_times(samples)
    pct, tail_s = tail(times)
    op_s = sum(map(sum, samples.values()))
    metrics = {
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "throughput_ops_s": metric(len(times) / op_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    extra = {"tail_percentile": pct, "samples": len(times),
             "fail_frac": tally.failed / tally.attempted}
    return metrics, extra


def cli_import_s(workloads) -> float:
    """Median time to import sgflow.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sgflow.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(CLI_IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=workloads.sg_env(), timeout=60,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def per_layer(tracer_mod, snap: dict, setup_snap: dict, passes: int,
              tally: Tally, overhead: float, cli: tuple[float, float]) -> dict:
    """Span metrics per traced pass; generator spans per set-up."""
    out = {}
    for layer, names in tracer_mod.SPANS.items():
        for fn in names:
            key = f"{layer}.{fn}"
            src, div = (setup_snap, 1) if layer == "generators" else (snap, passes)
            out[f"{key}.self_s"] = metric(src["self_s"].get(key, 0.0) / div, "s")
            out[f"{key}.total_s"] = metric(src["total_s"].get(key, 0.0) / div, "s")
            out[f"{key}.calls"] = metric(src["calls"].get(key, 0) / div, "count")
    counts = snap["counts"]
    for key in ("reduce.uncontractions", "structures.cycles_enumerated",
                "structures.closure_steps", "oracle.boundaries_checked"):
        out[key] = metric(counts.get(key, 0) / passes, "count")
    for strategy in ("composite", "prime", "projective", "oracle"):
        key = f"flows.strategy.{strategy}"
        out[key] = metric(counts.get(key, 0) / passes, "count")
    attempts = counts.get("flows.prime_attempts", 0)
    out["flows.prime_route_frac"] = metric(
        counts.get("flows.prime_certificates", 0) / attempts if attempts else 0.0,
        "frac")
    out["cli.import_s"] = metric(cli[0], "s")
    out["cli.process_s"] = metric(cli[1], "s")
    for kind in FAIL_KINDS:
        out[f"fail.{kind}"] = metric(tally.fails.get(kind, 0), "count")
    out["fail_frac"] = metric(tally.failed / tally.attempted, "frac")
    out["trace.overhead_frac"] = metric(overhead, "frac")
    return out


# -- machine -----------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine(cpus: set[int]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    src = hashlib.sha256()
    for path in sorted((SRC / "sgflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(cpus), "cpu": cpu,
            "python": platform.python_version(), "networkx": version("networkx"),
            "numpy": version("numpy"), "commit": git_commit(),
            "src_sha256": src.hexdigest()}


# -- main --------------------------------------------------------------------------

def pin_to_one_cpu() -> tuple[set[int], int]:
    """Run this process and every process it starts on one CPU, so that the
    calibration chunks time the CPU the ops run on; return the CPUs the
    process could use before, and the one it keeps."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return cpus, cpu


def run(args) -> int:
    cpus, cpu = pin_to_one_cpu()
    clock = Clock()
    import_span = import_sgflow(clock)
    sys.path.insert(0, str(HERE))
    import tracer as tracer_mod
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ctx = workloads.Context(Path(tmp))
        tally = Tally(clock)
        want = max(2, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        if args.trace == 0:
            setups, digests = [], set()
            for i in range(SETUP_REPEATS):
                pool, digest, span = set_up(workloads, args.workload, args.seed,
                                            ctx, tally if i == 0 else Tally(clock))
                setups.append(span)
                digests.add(digest)
            if len(digests) != 1:
                sys.exit("perfbench: the same seed built different inputs")
            start = time.perf_counter()
            pass_s = []
            while more_passes(len(pass_s), want, start, args.seconds):
                pass_s.append(one_pass(pool, tally))
            passes = len(pass_s)
            import_s = clock.scale(import_span)
            setups = list(map(clock.scale, setups))
            scaled, raw = tally.scaled(), tally.raw()
            metrics, extra = end_to_end(tally, scaled,
                                        import_s + statistics.median(setups))
            labels = [(f"{i:02d} {op.label}", id(op)) for i, op in enumerate(pool)]
            record.update(extra, import_s=import_s, setup_runs_s=setups,
                          pass_op_s=pass_s,
                          op_samples_s={k: scaled[i] for k, i in labels},
                          op_samples_raw_s={k: raw[i] for k, i in labels})
        else:
            tracer = ctx.tracer = tracer_mod.Tracer()
            tracer.install()
            pool, digest, _ = set_up(workloads, args.workload, args.seed, ctx,
                                     tally)
            setup_snap = tracer.snapshot()
            tracer.reset()
            tracer.uninstall()
            pass_times = {False: [], True: []}
            untraced = Tally(clock)
            start = time.perf_counter()
            while more_passes(sum(map(len, pass_times.values())), want, start,
                              args.seconds):
                traced = len(pass_times[True]) < len(pass_times[False])
                if traced:
                    tracer.install()
                ctx.traced = traced
                pass_times[traced].append(one_pass(pool, tally if traced else untraced))
                ctx.traced = False
                tracer.uninstall()
            passes = len(pass_times[True])
            overhead = (statistics.mean(pass_times[True])
                        / statistics.mean(pass_times[False]) - 1)
            cli = (0.0, 0.0)
            if args.workload == "cli-roundtrip":
                cli = (cli_import_s(workloads), statistics.median(
                    t for ts in untraced.raw().values() for t in ts))
            tally.attempted += untraced.attempted
            tally.fails.update(untraced.fails)
            metrics = per_layer(tracer_mod, tracer.snapshot(), setup_snap,
                                passes, tally, overhead, cli)
        record.update(inputs_digest=digest, ops_per_pass=len(pool), passes=passes,
                      attempted=tally.attempted, failed=tally.failed,
                      failures=dict(tally.fails), machine=machine(cpus), pinned_cpu=cpu,
                      calibration_chunk_s=quartiles(clock.chunks),
                      metrics=metrics)

    correct = tally.failed == 0
    record["correct"] = correct
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes} x {len(pool)} ops  inputs {digest}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  {'op_tail_s is the':<44} p{record['tail_percentile']:.4g} "
              f"({TAIL_BEYOND} of {record['samples']} samples beyond)")
        print(f"  {'fail_frac':<44} {record['fail_frac']:.6g} frac "
              f"({tally.failed} of {tally.attempted} ops)")
    print("record " + json.dumps(record, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("connect-cubic", "connect-noncubic",
                                           "oracle-exact", "cli-roundtrip"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                    help="compare two directories of --out records")
    args = ap.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
