"""qme benchmark: seeded scenarios through the public ``qme run`` entry point.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding ``src/qme``);
the package is imported from that ``src``, nothing is installed.  All files
go under ``.perfbench/`` in the checkout.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: normalised CPU time of a fresh ``qme run`` process on the
  scenario with the window cut to one step (interpreter and numpy import,
  parse and validation, model construction, one step, file writing);
* ``run_s``: normalised CPU time of one full in-process ``qme.cli.run`` after
  a warm-up run;
* ``peak_mem_mb``: median ``tracemalloc`` peak of MEM_RUNS full runs, each
  untimed;
* ``pass_rate``: runs that exited 0 and passed the output checks, over runs
  attempted (``failed``/``attempted`` in the result give the fail rate).

Set-up processes and in-process runs alternate for ``--seconds``, with a
run of a fixed calibration kernel between any two.  Both timings are CPU
seconds, each divided by the mean CPU time of the kernel runs on either side
of it and scaled by ``KERNEL_REF_S``: the median of these ratios is the
host's speed taken out (see NOTES.md for why).  The raw wall and
CPU medians are kept in the environment record.

With ``--trace 1`` it alternates untraced and traced runs for ``--seconds``
and reports the per-layer metrics of ``tracing.layer_metrics`` for the traced
run with the median root span, plus ``trace.overhead``.  The span table is written to
``.perfbench/<workload>-seed<seed>-trace1/spans.csv``.

The last line of standard output is the result object; the line before it is
the environment record with every sample and the count behind each figure.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, so that the numbers measure qme
# and not the scheduler; child processes inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

MIN_SAMPLES = 5
#: The ``tracemalloc`` peak of a run varies by about 1% from run to run (free
#: lists and cyclic garbage), so ``peak_mem_mb`` is the median of this many.
MEM_RUNS = 3
SUBPROCESS_TIMEOUT_S = 120

#: Traced runs must account for the root span to this many seconds.
SELF_SUM_TOL_S = 1e-6

#: Typical CPU time of ``calibration_kernel`` on the machine in NOTES.md; a
#: normalised timing is in seconds of a host on which the kernel takes this long.
KERNEL_REF_S = 0.030


def calibration_kernel() -> float:
    """CPU seconds of a fixed piece of work in the three styles qme runs.

    Small-matrix numpy calls with Python between them (an RK stage on a d=5
    flow), dense 64x64 products (the Fock RHS) and plain interpreter work
    (parsing and CSV formatting), about 10 ms each on the machine in
    NOTES.md.  The values stay normal floats: no overflow, no denormals.
    """
    import numpy as np

    c = np.full((5, 5), 0.05)
    q = np.linalg.qr(np.arange(64 * 64, dtype=float).reshape(64, 64) % 7.3 + np.eye(64))[0]
    start = time.process_time()
    m = np.eye(5)
    for _ in range(3000):
        m = (m @ m) * 0.5 + c  # converges to a fixed point
    b = q
    for _ in range(600):
        b = q @ b  # orthogonal: the norm stays 1
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        table[i % 97] = acc
        acc += i * 3 % 7
    return time.process_time() - start


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Bench:
    """One benchmark invocation: a generated scenario, its reference, and the
    tally of attempted and failed qme runs."""

    def __init__(self, workload: str, seed: int, work: Path):
        from workloads import WORKLOADS, scenario_bytes

        self.workload = WORKLOADS[workload]
        self.work = work
        self.scenario = work / "scenario.json"
        self.scenario.write_bytes(scenario_bytes(workload, seed))
        self.raw = json.loads(self.scenario.read_text(encoding="utf-8"))
        self.reference = self.workload.reference(self.raw)
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_bytes = 0

    def _record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors

    def run_in_process(self) -> tuple[float, float]:
        """One checked ``qme.cli.run``; returns its wall and CPU seconds.

        While ``tracemalloc`` traces, ``peak_bytes`` becomes the peak of the
        run alone: not of the clean-up before it or the checks after it.
        """
        import qme.cli

        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        tracemalloc.reset_peak()  # does nothing unless tracing
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = qme.cli.run(str(self.scenario), out_dir=str(self.out), quiet=True)
        except Exception:  # a crash is a failed run, reported with its traceback
            elapsed = time.perf_counter() - start, time.process_time() - cpu_start
            self._record([traceback.format_exc()])
            return elapsed
        elapsed = time.perf_counter() - start, time.process_time() - cpu_start
        self.peak_bytes = tracemalloc.get_traced_memory()[1]
        errors = [f"qme run exited {code}"] if code != 0 else []
        if not errors:
            errors = self.workload.check(self.raw, self.reference, self.out)
        self._record(errors)
        return elapsed

    def setup_once(self) -> tuple[float, float]:
        """Wall and CPU seconds of a fresh ``qme run`` process over a single step."""
        integ = self.raw["integrator"]
        t1 = integ.get("t0", 0.0) + integ["dt"]
        out = self.work / "setup_out"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-c", "import sys; from qme.cli import main; sys.exit(main())",
               "run", str(self.scenario), "--override", f"t1={t1!r}", "--out-dir", str(out),
               "--quiet"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start, cpu_start = time.perf_counter(), _children_cpu_s()
        try:
            proc = subprocess.run(cmd, env=env, cwd=CHECKOUT, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # the child has been killed and reaped
            self._record([f"setup run exceeded {SUBPROCESS_TIMEOUT_S} s"])
            return time.perf_counter() - start, _children_cpu_s() - cpu_start
        elapsed = time.perf_counter() - start, _children_cpu_s() - cpu_start
        errors = []
        if proc.returncode != 0:
            errors.append(f"setup run exited {proc.returncode}: {proc.stderr.strip()}")
        else:
            t_final = json.loads((out / "summary.json").read_text())["t_final"]
            if abs(t_final - t1) > 1e-12:
                errors.append(f"setup run ended at t={t_final}, expected {t1}")
        self._record(errors)
        return elapsed

    def traced_run(self, tracer) -> dict:
        """One checked run with every layer boundary wrapped; its layer metrics."""
        from tracing import instrument, layer_metrics

        fock_shape = None
        if self.raw["equation"] == "fock_oracle":
            fock_shape = ((self.raw["fock"]["boson_cutoff"] + 1) ** self.raw["dimension"],
                          len(self.raw["network"]["rates"]))
        tracer.run_id += 1
        with instrument(tracer):
            self.run_in_process()
        return layer_metrics(tracer, tracer.run_id, fock_shape)

    def peak_memory_mb(self) -> float:
        """``tracemalloc`` peak of one checked run, in MB."""
        tracemalloc.start()
        try:
            self.run_in_process()
        finally:
            tracemalloc.stop()
        return self.peak_bytes / 1e6


def _until(seconds: float, step) -> list:
    """Call ``step`` until ``seconds`` have passed and at least MIN_SAMPLES
    results exist."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_SAMPLES or time.perf_counter() < deadline:
        results.append(step())
    return results


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.setup_once()  # warms the file cache and bytecode; not a sample
    bench.run_in_process()  # warm-up
    calibration_kernel()  # warm-up
    peaks = [bench.peak_memory_mb() for _ in range(MEM_RUNS)]

    # set-up processes alternate with in-process runs, so both cover the same
    # stretch of machine time; a kernel run lies between any two samples
    def pair():
        failed = bench.failed
        setup_kernel = calibration_kernel()
        setup = bench.setup_once()
        run_kernel = calibration_kernel()
        run = bench.run_in_process()
        return {"ok": bench.failed == failed, "setup_kernel_cpu_s": setup_kernel,
                "setup_wall_s": setup[0], "setup_cpu_s": setup[1],
                "run_kernel_cpu_s": run_kernel, "run_wall_s": run[0], "run_cpu_s": run[1]}

    pairs = _until(seconds, pair)
    # the kernel run after each in-process run: the next pair's first, or one more
    after = [p["setup_kernel_cpu_s"] for p in pairs[1:]] + [calibration_kernel()]
    for p, kernel in zip(pairs, after):
        p["next_kernel_cpu_s"] = kernel
    # a failed run may end early; it counts in pass_rate, not in the timings
    timed = [p for p in pairs if p["ok"]] or pairs
    # This host's speed swings by up to 2x, for under a second to minutes at a
    # time (other tenants), on both cores, and CPU time swings with it.  The
    # kernel runs on either side of a sample slow down with it, so the ratio
    # of the sample to their mean follows qme.
    brackets = {"setup": ("setup_kernel_cpu_s", "run_kernel_cpu_s"),
                "run": ("run_kernel_cpu_s", "next_kernel_cpu_s")}
    values = {
        f"{kind}_s": statistics.median(2 * p[f"{kind}_cpu_s"] / (p[before] + p[after])
                                       for p in timed) * KERNEL_REF_S
        for kind, (before, after) in brackets.items()
    }
    values["peak_mem_mb"] = statistics.median(peaks)
    samples = {key: [p[key] for p in pairs] for key in pairs[0] if key != "ok"}
    samples["peak_mem_mb"] = peaks
    return values, samples


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer

    tracer = Tracer()
    bench.run_in_process()  # warm-up
    pairs = _until(seconds, lambda: (bench.run_in_process(), bench.traced_run(tracer)))
    untraced = [p[0][0] for p in pairs]
    traced = [p[1] for p in pairs]
    # one whole run, so that its layer self times add up to its root span
    values = dict(sorted(traced, key=lambda m: m["trace.root_s"])[(len(traced) - 1) // 2])
    best_traced = min(m["trace.root_s"] for m in traced)
    values["trace.overhead"] = best_traced / min(untraced) - 1.0
    worst = max(m["trace.self_sum_error_s"] for m in traced)
    if worst > SELF_SUM_TOL_S:
        bench.errors.append(f"layer self times miss the root span by {worst:.3e} s")
    tracer.write_csv(bench.work / "spans.csv")
    samples = {"untraced_run_s": untraced, "traced_runs": len(traced)}
    return values, samples


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": _blas_threads(),
        "seed": seed,
        "platform": platform.platform(),
    }


def _git_sha() -> str:
    # stop the search at the checkout: a copy without .git has no SHA
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, read through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()
            and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "qme" / "cli.py").is_file():
        print(f"error: {SRC / 'qme'} not found; run from a qme source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = CHECKOUT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    if args.trace:
        values, samples = measure_per_layer(bench, args.seconds)
        reported = spec["per_layer"]
    else:
        values, samples = measure_end_to_end(bench, args.seconds)
        values["pass_rate"] = (bench.attempted - bench.failed) / bench.attempted
        reported = spec["end_to_end"]
    shutil.rmtree(bench.out, ignore_errors=True)
    shutil.rmtree(work / "setup_out", ignore_errors=True)

    for error in bench.errors:
        print(f"check failed: {error}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "sample_counts": {k: (v if isinstance(v, int) else len(v)) for k, v in samples.items()},
        "sample_medians": {k: statistics.median(v) for k, v in samples.items()
                           if not isinstance(v, int)},
        "kernel_ref_s": KERNEL_REF_S,
        "samples": samples,
        "errors": bench.errors,
    }
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    (work / "result.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
