"""Benchmark of the privdistill pipeline; see README.md in this directory.

    python3 benchmarks/run.py --workload corpus_bound --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop from one caller for `--seconds` of operation
time, checks every result, and prints one JSON object as the last line of
standard output. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it runs each row untraced and then traced and reports per-layer
metrics, writing the spans to benchmarks/out/. Times are scaled to a
nominal machine speed with the kernel in reference.py; raw wall-time
figures go to standard error.
Exit codes: 0 success, 1 a check failed, 2 the package cannot be imported.
"""

import time

T0 = time.perf_counter()  # set-up starts here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One caller, one BLAS thread: the matrices are small, and a second thread
# would only add scheduling noise on a machine with few cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 4  # extra fresh-interpreter set-ups; setup_s is the median of 1 + these

if not os.path.isfile(os.path.join(SRC, "privdistill", "__init__.py")):
    print(f"benchmark: no package source at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [SRC, HERE]

import privdistill  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

if os.path.dirname(os.path.abspath(privdistill.__file__)) != os.path.join(SRC, "privdistill"):
    print(f"benchmark: imported privdistill from {privdistill.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)


def set_up(workload, seed: int, workdir: str):
    """Inputs, spec files and a warm-up call; returns the rows."""
    rows = workload.make_inputs(seed, workdir)
    workload.warm_up(rows)
    return rows


def scaled_setup_s(setup_s: float) -> float:
    """Set-up time at nominal speed, gauged by kernel runs right after it."""
    reference.kernel_seconds()  # first call pays for lazy LAPACK set-up
    kernel = statistics.median(reference.kernel_seconds() for _ in range(3))
    return setup_s * reference.NOMINAL_S / kernel


def setup_samples(args, main_setup_s: float) -> list[float]:
    """Scaled set-up time of this process plus that of fresh interpreters."""
    samples = [main_setup_s]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Runner:
    """Closed-loop passes over the rows, with every result checked."""

    def __init__(self, workload, rows):
        self.workload = workload
        self.rows = rows
        self.keys: list = [None] * len(rows)
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # seconds at nominal speed
        self.scale: dict[int, float] = {}  # operation number -> NOMINAL_S / kernel time
        self.attempted = 0
        self.failed = 0

    def run_op(self, index: int, tracer: Tracer | None = None) -> float:
        """Run one operation and check it; returns its wall time."""
        row = self.rows[index]
        self.attempted += 1
        scale = self.scale[self.attempted] = reference.NOMINAL_S / reference.kernel_seconds()
        if tracer is not None:
            tracer.op = self.attempted
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.workload.op(row)
        except Exception as exc:  # an operation the program could not complete
            self.failed += 1
            print(f"benchmark: operation on row {index} failed: {exc!r}", file=sys.stderr)
            return time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.scaled.append(elapsed * scale)
        key = self.workload.key(row, out)
        if self.keys[index] is None:
            self.workload.check(row, out)
            self.keys[index] = key
        elif key != self.keys[index]:
            raise CheckError(f"row {index} gave a different result on a later pass")
        return elapsed

    def run_pass(self, tracer: Tracer | None = None) -> float:
        return sum(self.run_op(i, tracer) for i in range(len(self.rows)))


def timed(runner: Runner, seconds: float) -> float:
    """One full pass, then further operations until `seconds` of op time."""
    busy = runner.run_pass()
    index = 0
    while busy < seconds:
        busy += runner.run_op(index)
        index = (index + 1) % len(runner.rows)
    return busy


def traced(runner: Runner, seconds: float, tracer: Tracer) -> tuple[int, float]:
    """Whole passes in which each row runs once untraced and once traced.

    Running the two back to back keeps both in the same phase of the
    machine's speed, so their difference estimates the tracing overhead.
    The second run of a row can be faster than the first, so the order
    alternates from row to row. A further pass starts only if it fits in
    `seconds`, so a run makes at least one pass and otherwise stays within
    its time. Returns the number of traced passes and the scaled overhead
    per pass.
    """
    busy = last = overhead = 0.0
    passes = 0
    while passes == 0 or busy + last <= seconds:
        before = busy
        for index in range(len(runner.rows)):
            traced_first = index % 2 == 1
            busy += runner.run_op(index, tracer if traced_first else None)
            busy += runner.run_op(index, None if traced_first else tracer)
            first, second = runner.scaled[-2:]
            overhead += first - second if traced_first else second - first
        last = busy - before
        passes += 1
    return passes, overhead / passes


def layer_metrics(tracer: Tracer, scale: dict[int, float], passes: int,
                  overhead: float) -> dict[str, tuple[float, str]]:
    total, own = tracer.totals(scale)
    c = {k: v / passes for k, v in tracer.counters.items()}
    t = {k: v / passes for k, v in total.items()}
    o = {k: v / passes for k, v in own.items()}

    def get(table, name):
        return table.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    pairs, cert_s = get(c, "overlap.pairs"), get(t, "bounds.ef_certificate")
    return {
        "overlap.optimize_s": (get(t, "overlap.optimize"), "s"),
        "overlap.pairs": (pairs, "count"),
        "overlap.starts": (get(c, "overlap.starts"), "count"),
        "overlap.best_start_sweeps": (ratio(get(c, "overlap.best_start_sweeps"), pairs), "count"),
        "overlap.converged_pairs": (get(c, "overlap.converged_pairs"), "count"),
        "overlap.s_per_pair": (ratio(get(t, "overlap.optimize"), pairs), "s"),
        "overlap.useful_start_ratio": (
            ratio(get(c, "overlap.useful_starts"), get(c, "overlap.starts")), "ratio"),
        "private_states.build_s": (get(t, "private_states.build"), "s"),
        "private_states.build_calls": (get(c, "private_states.build_calls"), "count"),
        "private_states.tensor_power_s": (get(t, "private_states.tensor_power"), "s"),
        "private_states.dense_bytes": (get(c, "private_states.dense_bytes"), "B"),
        "states.validate_s": (get(t, "states.validate"), "s"),
        "states.validate_calls": (get(c, "states.validate_calls"), "count"),
        "filtering.build_s": (get(t, "filtering.build"), "s"),
        "filtering.apply_s": (get(t, "filtering.apply"), "s"),
        "filtering.apply_calls": (get(c, "filtering.apply_calls"), "count"),
        "filtering.regroup_bytes": (get(c, "filtering.regroup_bytes"), "B"),
        "linalg.permute_factors_s": (get(t, "linalg.permute_factors"), "s"),
        "linalg.partial_trace_s": (get(t, "linalg.partial_trace"), "s"),
        "linalg.von_neumann_entropy_s": (get(t, "linalg.von_neumann_entropy"), "s"),
        "bounds.ed_lower_bound_self_s": (get(o, "bounds.ed_lower_bound"), "s"),
        "bounds.ef_certificate_s": (cert_s, "s"),
        "bounds.cert_samples": (get(c, "bounds.cert_samples"), "count"),
        "bounds.cert_samples_per_s": (ratio(get(c, "bounds.cert_samples"), cert_s), "1/s"),
        "serialize.read_s": (get(t, "serialize.read"), "s"),
        "serialize.write_s": (get(t, "serialize.write"), "s"),
        "serialize.bytes_read": (get(c, "serialize.bytes_read"), "B"),
        "serialize.bytes_written": (get(c, "serialize.bytes_written"), "B"),
        "cli.main_s": (get(t, "cli.main"), "s"),
        "cli.self_s": (get(o, "cli.main"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        rows = set_up(workload, args.seed, workdir)
        main_setup_s = scaled_setup_s(time.perf_counter() - T0)
        if args.setup_only:
            print(repr(main_setup_s))
            return 0
        runner = Runner(workload, rows)
        if args.trace:
            tracer = Tracer()
            passes, overhead = traced(runner, args.seconds, tracer)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
            metrics = layer_metrics(tracer, runner.scale, passes, overhead)
        else:
            busy = timed(runner, args.seconds)
            setup_s = statistics.median(setup_samples(args, main_setup_s))
            print(f"benchmark: wall time {busy:.3f} s for {len(runner.latencies)} operations, "
                  f"wall p50 {statistics.median(runner.latencies):.4f} s, "
                  f"median speed factor {statistics.median(runner.scale.values()):.3f}",
                  file=sys.stderr)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(runner.scaled) / sum(runner.scaled), "1/s"),
                "op_p50_s": (statistics.median(runner.scaled), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "mean_verified_rate": (
                    workload.quality([k for k in runner.keys if k is not None]), "bits"),
            }
    except CheckError as exc:
        print(f"benchmark: check failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
