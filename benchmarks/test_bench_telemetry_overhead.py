"""Benchmark: telemetry must be free when off and cheap when on.

The telemetry layer's core promise is *zero overhead when off*: every
per-iteration call site hides behind one precomputed integer test, so a run
under the default :class:`~repro.telemetry.NullRecorder` must cost the same
as the pre-telemetry runtime.  This benchmark pins that promise on the
50-item QKP vectorized workload -- the hot path where a regression would
hurt most -- by timing the identical batch with telemetry off and with a
live in-memory recorder, asserting the disabled-path overhead is
statistically invisible and reporting the live-path cost alongside.

Both gates time many interleaved pairs of runs and judge the median of the
per-pair wall-clock ratios: a shared machine drifts in speed by 10-30% from
one second to the next, which a best-of-3 over 3-second runs cannot strip,
but drift common to the two runs of a pair cancels in their ratio.  The
assertions bound the *off* arm against the live arm rather than a
hard-coded ms figure so the bench stays meaningful on any CI machine.
"""

import numpy as np

import reporting
from repro.analysis.reporting import format_table
from repro.problems.generators import generate_qkp_instance
from repro.runtime import run_trials
from repro.store import CampaignStore
from repro.telemetry import InMemoryRecorder, NullRecorder, load_events

MASTER_SEED = 41
#: The disabled-path gate times the full PARAMS hot loop on the smallest
#: lock-step batch (one replica would take the scalar path): ~350 ms a run,
#: of which set-up is under 1%.  The recorder guard runs once per iteration
#: whatever the replica count, so a small batch gives its cost a large share
#: of the timed run.
NUM_TRIALS = 2
#: Interleaved (null, live) pairs timed by the disabled-path gate.
PAIRS = 150
#: The worker-shard gate's campaigns: one 4-trial chunk per worker, timed
#: over this many interleaved (null, shard) pairs.
WORKER_TRIALS = 8
WORKER_PAIRS = 80

PARAMS = {
    "num_iterations": 60,
    "moves_per_iteration": 50,
    "move_generator": "knapsack",
    "use_hardware": False,
}


def _problem():
    return generate_qkp_instance(num_items=50, density=0.5, max_weight=15,
                                 max_profit=100, seed=9,
                                 name="qkp50_telemetry")


def _run(problem, telemetry):
    return run_trials(problem, "hycim", num_trials=NUM_TRIALS,
                      params=PARAMS, master_seed=MASTER_SEED,
                      backend="vectorized", telemetry=telemetry)


def test_disabled_telemetry_overhead_under_3_percent(benchmark):
    problem = _problem()

    def run_all():
        _run(problem, NullRecorder())  # warm-up: caches, imports
        live_recorder = InMemoryRecorder(probe_interval=20)
        off_times, live_times = [], []
        for pair in range(PAIRS):
            # Alternate which arm runs first so neither always inherits
            # the other's cache and allocator state.
            if pair % 2:
                live_batch = _run(problem, live_recorder)
                off_batch = _run(problem, NullRecorder())
            else:
                off_batch = _run(problem, NullRecorder())
                live_batch = _run(problem, live_recorder)
            off_times.append(off_batch.wall_time)
            live_times.append(live_batch.wall_time)
        return (np.array(off_times), np.array(live_times), off_batch,
                live_batch, live_recorder)

    off_times, live_times, off_batch, live_batch, recorder = \
        benchmark.pedantic(run_all, rounds=1, iterations=1)

    live_over_off = float(np.median(live_times / off_times))
    off, live = float(np.median(off_times)), float(np.median(live_times))
    print("\nTelemetry overhead: "
          f"{NUM_TRIALS} replicas, 50-item QKP, vectorized, "
          f"{PAIRS} interleaved pairs\n"
          + format_table(
              ["recorder", "median wall clock", "events"],
              [["null (default)", f"{off * 1000:.1f}ms", "0"],
               ["in-memory, probes every 20",
                f"{live * 1000:.1f}ms", str(len(recorder.events))]])
          + "\nlive-vs-null overhead (median of pair ratios): "
          f"{(live_over_off - 1) * 100:+.1f}%")

    reporting.emit(
        "telemetry_overhead",
        "live-recorder wall clock relative to the null recorder",
        live_over_off, "x", higher_is_better=False,
        details={"null_ms": off * 1000, "live_ms": live * 1000,
                 "pairs": PAIRS, "events": len(recorder.events)})

    # The live recorder really observed the run...
    assert recorder.probes("sweep")
    assert recorder.totals["trials_completed"] == PAIRS * NUM_TRIALS
    # ...without changing its results (telemetry consumes no solver RNG)...
    np.testing.assert_array_equal(off_batch.best_energies,
                                  live_batch.best_energies)
    # ...and the *disabled* path costs within noise of the live path: the
    # live arm does strictly more work, so null exceeding live by >3% would
    # mean the off-switch itself has grown a cost.  (Symmetrically, a live
    # arm more than 25% over null would mean probing is no longer
    # O(interval)-cheap.)
    assert 1.0 < 1.03 * live_over_off
    assert live_over_off < 1.25


def test_worker_shard_recorder_overhead_under_5_percent(benchmark, tmp_path):
    """Process backend: per-worker shard recorders must stay O(probe)-cheap.

    Pool workers rebuild a :class:`JsonlRecorder` from the shipped
    :class:`RecorderSpec` and append sweep probes to their own shard file.
    This arm-vs-arm bench pins that machinery (spec pickling, shard open,
    line-buffered appends) below 5% of the identical campaign run with
    telemetry off -- where workers install the null recorder and the spec
    is ``None``.  The campaigns keep the full-length trials but only one
    chunk per worker: per-chunk and per-probe costs keep their share of a
    32-trial campaign, and per-run costs (spec pickling, shard open,
    sidecar) weigh four times more.  Every run gets a fresh store
    so the resume path never short-circuits the trial work being timed.
    """
    problem = _problem()

    def run_arm(tag, telemetry):
        store = CampaignStore(tmp_path / tag)
        batch = run_trials(problem, "hycim", num_trials=WORKER_TRIALS,
                           params=PARAMS, master_seed=MASTER_SEED,
                           backend="process", chunk_size=4, num_workers=2,
                           store=store, telemetry=True if telemetry else None)
        return store, batch

    def run_all():
        run_arm("warm", False)  # warm-up: pool fork, caches, imports
        off_times, live_times = [], []
        for pair in range(WORKER_PAIRS):
            if pair % 2:
                tel_store, tel_batch = run_arm(f"tel{pair}", True)
                _, off_batch = run_arm(f"null{pair}", False)
            else:
                _, off_batch = run_arm(f"null{pair}", False)
                tel_store, tel_batch = run_arm(f"tel{pair}", True)
            off_times.append(off_batch.wall_time)
            live_times.append(tel_batch.wall_time)
        return (np.array(off_times), np.array(live_times), off_batch,
                tel_batch, tel_store)

    off_times, live_times, off_batch, tel_batch, tel_store = \
        benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The workers really recorded: every shard committed sweep probes.
    shards = tel_store.telemetry_shard_paths(tel_batch.run_key)
    assert shards, "telemetry arm left no worker shards"
    shard_events = [load_events(shard) for shard in shards]
    assert all(any(e["kind"] == "probe" for e in events)
               for events in shard_events)
    # ...without perturbing the campaign (same seeds -> same results).
    np.testing.assert_array_equal(off_batch.best_energies,
                                  tel_batch.best_energies)

    live_over_off = float(np.median(live_times / off_times))
    off, live = float(np.median(off_times)), float(np.median(live_times))
    print("\nWorker-shard recorder overhead: "
          f"{WORKER_TRIALS} trials, process backend, 2 workers, "
          f"{WORKER_PAIRS} interleaved pairs\n"
          + format_table(
              ["workers record to", "median wall clock", "shard events"],
              [["nothing (null)", f"{off * 1000:.1f}ms", "0"],
               [f"{len(shards)} jsonl shard(s)", f"{live * 1000:.1f}ms",
                str(sum(len(events) for events in shard_events))]])
          + "\nshard-vs-null overhead (median of pair ratios): "
          f"{(live_over_off - 1) * 100:+.1f}%")

    reporting.emit(
        "telemetry_worker_overhead",
        "process-backend wall clock with worker shard recorders relative "
        "to null-recorder workers",
        live_over_off, "x", floor=1.05, higher_is_better=False,
        details={"null_ms": off * 1000, "live_ms": live * 1000,
                 "pairs": WORKER_PAIRS, "workers": 2, "shards": len(shards)})

    assert live_over_off < 1.05
