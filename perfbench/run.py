"""Repository benchmark: closed-loop ``run_trials`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload qkp_hw --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics (host time untraced, plus the
simulated statistics, which repeat exactly per seed); ``--trace 1`` reports
per-layer self times and counts from a traced run (``layertrace.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, including the workload-specific ones that are
not in that object.  ``README.md`` documents the workloads and predictions.
"""

import os

# One BLAS thread: with two pool workers on the store workload, workers plus
# BLAS threads stay within the two CPUs the benchmark is sized for.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and span files, removed after every run.
WORK_ROOT = ROOT / ".perfbench-work"

END_TO_END = {
    "setup_s": "s",
    "proposals_per_s": "1/s",
    "objective_ratio": "ratio",
    "peak_mem_mb": "MB",
    "chip_energy_uj": "uJ",
    "chip_latency_us": "us",
}
MEMORY_TIMEOUT_S = 120
#: Share of a run's time spent on set-up calls: at least one per full call,
#: and more where set-up is short, so that its median rests on many calls.
SETUP_SHARE = 0.05


def _import_program() -> None:
    """Make this checkout's ``src/`` the one ``repro`` is imported from."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {error}")
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: repro imported from {location}, not {SRC}")


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    from layertrace import TIME_METRICS

    units = {name: "s" for name in TIME_METRICS}
    units.update({
        "store.appends": "count", "store.bytes": "B",
        "telemetry.events": "count", "telemetry.bytes": "B",
        "annealing.trials": "count",
        "kernels.state_bytes_per_replica": "B",
        "dynamics.propose_calls": "count", "dynamics.accept_frac": "fraction",
        "cim.filter_rows": "count", "cim.filter_pass_frac": "fraction",
        "cim.crossbar_rows": "count", "cim.adc_conversions": "count",
        "core.qubo_energy_calls": "count",
        "other.self_s": "s", "trace.overhead_s": "s",
        "trace.wall_s": "s", "trace.worker_busy_s": "s",
    })
    return units


def _tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


#: The peak-memory pass, run as ``python -c`` with the workload, seed and
#: scratch directory as arguments; it prints the peak in MB.
PEAK_MEMORY_CHILD = ("import sys, workloads; "
                     "print(workloads.peak_memory_mb(sys.argv[1], "
                     "int(sys.argv[2]), sys.argv[3]))")


def peak_memory_mb(case, directory: Path) -> float:
    """Peak memory of one call, measured in a fresh interpreter.

    The child runs in a session of its own, so that it and any pool workers
    it leaves behind are killed, whatever way this function returns.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    child = subprocess.Popen(
        [sys.executable, "-c", PEAK_MEMORY_CHILD, case.workload.name,
         str(case.seed), str(directory)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=MEMORY_TIMEOUT_S)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"peak-memory pass exited with {child.returncode}")
    return float(output.split()[-1])


def measure(case, seconds: float, directory: Path, tally):
    """End-to-end metrics plus the report-only metrics."""
    import workloads

    peak_mb = peak_memory_mb(case, directory)
    tally.call(case, directory, short=True)  # warms the process up
    setups, calls, resumes, expected, stats = [], [], [], None, {}
    attempts = 0
    began = time.perf_counter()
    while not attempts or time.perf_counter() - began < seconds:
        attempts += 1
        # Set-up calls before every full call, so that both sample the whole
        # run, until they have taken SETUP_SHARE of the time so far.
        while True:
            setup = tally.call(case, directory, short=True)
            if setup is None:
                break
            setups.append(setup.call_s)
            if sum(setups) >= SETUP_SHARE * (time.perf_counter() - began):
                break
        iteration = tally.call(case, directory, expected)
        if iteration is None:
            continue
        if expected is None:
            expected = workloads.fingerprint(case, iteration.batch)
            stats = workloads.simulated_statistics(case, iteration.batch)
        calls.append(iteration.call_s)
        resumes.append(iteration.resume_s)
    if not calls or not setups:
        raise SystemExit("perfbench: every call of a kind raised; no result")

    call_s = statistics.median(calls)
    metrics = {
        "setup_s": statistics.median(setups),
        # The median call: a run's fastest call swings with the rare bursts
        # of a quiet host it happens to catch, its median does not.
        "proposals_per_s": stats["proposals"] / call_s,
        "objective_ratio": stats["objective_ratio"],
        "peak_mem_mb": peak_mb,
        "chip_energy_uj": stats["chip_energy_uj"],
        "chip_latency_us": stats["chip_latency_us"],
    }
    report = {
        "calls": (len(calls), "count"),
        "call_s": (call_s, "s"),
        "proposals_per_s_best": (stats["proposals"] / min(calls), "1/s"),
        "setup_calls": (len(setups), "count"),
        "kernel": (stats["kernel"], ""),
        "reference_value": (case.reference, "objective"),
        "objective_mean": (stats["objective_mean"], "objective"),
    }
    if "success_rate" in stats:
        report["success_rate"] = (stats["success_rate"], "fraction")
    if case.workload.uses_store:
        report["best_known_hit"] = (stats["best_known_hit"], "fraction")
        report["tts99_s"] = (workloads.tts99(call_s, case.workload.num_trials,
                                             stats["best_known_hit"]), "s")
        report["resume_s"] = (statistics.median(resumes), "s")
    return metrics, report


def measure_traced(case, seconds: float, directory: Path, tally):
    """Per-layer metrics of the median traced iteration; each traced
    iteration is paired with an untraced one for the tracing overhead."""
    import workloads
    from layertrace import TIME_METRICS, LayerTracer

    tally.call(case, directory, short=True)
    plain, traced, samples = [], [], []
    expected = None
    attempts = 0
    began = time.perf_counter()
    while not attempts or time.perf_counter() - began < seconds:
        attempts += 1
        iteration = tally.call(case, directory, expected)
        if iteration is None:
            continue
        expected = expected or workloads.fingerprint(case, iteration.batch)
        plain.append(iteration.wall_s)

        tracer = LayerTracer(directory / f"spans-{attempts}")
        with tracer:
            iteration = tally.run(case, directory)
        sample = tracer.collect()
        if iteration is None:
            continue
        # Checked only now, so that the checks' own calls are not traced.
        tally.check(case, iteration, expected)
        traced.append(iteration.wall_s)
        sample["trace.wall_s"] = iteration.wall_s
        store_dir = iteration.store_dir
        telemetry_bytes = (_tree_bytes(store_dir / "telemetry")
                           if store_dir is not None else 0)
        sample["telemetry.bytes"] = telemetry_bytes
        sample["store.bytes"] = (_tree_bytes(store_dir) - telemetry_bytes
                                 if store_dir is not None else 0)
        workloads.discard_store(iteration)
        sample["other.self_s"] = (iteration.wall_s + sample["trace.worker_busy_s"]
                                  - sum(sample[name] for name in TIME_METRICS))
        rows = sample.get("cim.filter_rows", 0)
        sample["cim.filter_pass_frac"] = (sample.get("cim.filter_passed", 0) / rows
                                          if rows else 0.0)
        sample["dynamics.accept_frac"] = workloads.accept_fraction(
            iteration.batch.results)
        samples.append(sample)
    if not samples:
        raise SystemExit("perfbench: every traced call raised; no result")

    # All metrics come from the traced iteration of median wall time, so
    # they add up exactly; counts are the same in every iteration anyway.
    median_sample = sorted(samples, key=lambda s: s["trace.wall_s"])[
        (len(samples) - 1) // 2]
    metrics = {name: median_sample.get(name, 0) for name in per_layer_units()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    report = {"traced_iterations": (len(samples), "count")}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    setup_began = time.perf_counter()
    case = workloads.prepare(args.workload, args.seed,
                             with_reference=not args.trace)
    prepare_s = time.perf_counter() - setup_began

    WORK_ROOT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-"))
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics, report = measure_traced(case, args.seconds, directory, tally)
            units = per_layer_units()
        else:
            metrics, report = measure(case, args.seconds, directory, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {os.environ['OPENBLAS_NUM_THREADS']}  "
          f"instance+reference {prepare_s:.2f} s (untimed)")
    for name, (value, unit) in report.items():
        print(f"  {name:34s} {value} {unit}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]!r} {unit}")
    print(f"  {'failed_frac':34s} {tally.failed / max(tally.attempted, 1)!r} "
          f"fraction ({tally.failed} of {tally.attempted} trials)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
