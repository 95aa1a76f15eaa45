"""Per-layer spans for the benchmark's traced runs, recorded from outside.

The program is not edited: :class:`LayerTracer` wraps the public entry
points of each ``repro.*`` layer (the table :data:`WRAPPED`) for the length
of one traced iteration and restores them afterwards.  Every wrapped call
becomes a span -- metric, start, end and the span that was open when it
began -- kept in compact in-memory arrays.  A layer's self time is its
spans' duration minus the part of that interval their child spans cover
(:func:`self_times`), so nested calls of several layers are never counted
twice.

Process-pool workers fork after the wrappers are installed and inherit
them.  A fork hook empties the worker's inherited buffers; each time a
worker's outermost span ends (one ``_execute_chunk`` call) it appends its
spans and counts to its own file in the tracer's directory, which
:meth:`LayerTracer.collect` merges with the parent's spans once the
iteration is over.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

Counter = Callable[[tuple, Any], Mapping[str, float]]


def _one(name: str) -> Counter:
    return lambda args, result: {name: 1}


def _filter_counts(args: tuple, result: Any) -> Mapping[str, float]:
    verdicts = np.asarray(result)
    return {"cim.filter_rows": verdicts.size,
            "cim.filter_passed": int(np.count_nonzero(verdicts))}


def _crossbar_rows(args: tuple, result: Any) -> Mapping[str, float]:
    return {"cim.crossbar_rows": np.asarray(result).size}


def _adc_conversions(args: tuple, result: Any) -> Mapping[str, float]:
    return {"cim.adc_conversions": np.size(args[1])}


def _replica_proposals(args: tuple, result: Any) -> Mapping[str, float]:
    return {"dynamics.propose_calls": len(result)}


def _kernel_state(args: tuple, result: Any) -> Mapping[str, float]:
    return {"kernels.state_bytes_per_replica":
            float(result.state_nbytes_per_replica())}


def _recorder_enabled(args: tuple) -> bool:
    return bool(args[0].enabled)


#: Counts that keep their largest value instead of being summed.
GAUGES = frozenset({"kernels.state_bytes_per_replica"})

_STORE = "repro.store.store:CampaignStore"
_CROSSBAR = "repro.cim.crossbar:FeFETCrossbar"
_FILTER = "repro.cim.inequality_filter:InequalityFilter"
_ADC = "repro.cim.adc:ADCModel"
_DRIVER = "repro.dynamics.driver:LoopDriver"
_METROPOLIS = "repro.dynamics.acceptance:MetropolisRule"

#: ``(owner, attribute, span metric, counter, condition)``.  The owner is a
#: module (its functions are replaced wherever a ``repro`` module or registry
#: table refers to them) or ``module:Class`` (the method is replaced on the
#: class).  Counters attach to the outermost span of a metric, so a layer
#: calling itself counts once.  Calls whose condition is false run unwrapped.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Counter], Optional[Callable]], ...] = (
    ("repro.runtime.executor", "run_trials", "runtime.self_s", None, None),
    ("repro.runtime.executor", "_execute_chunk", "runtime.self_s", None, None),
    ("multiprocessing.pool:IMapIterator", "__next__", "runtime.pool_wait_s",
     None, None),
    (_STORE, "__init__", "store.load_s", None, None),
    (_STORE, "get_manifest", "store.load_s", None, None),
    (_STORE, "load_results", "store.load_s", None, None),
    (_STORE, "accumulated_wall_time", "store.load_s", None, None),
    (_STORE, "load_telemetry", "store.load_s", None, None),
    (_STORE, "register_run", "store.append_s", None, None),
    (_STORE, "annotate_provenance", "store.append_s", None, None),
    (_STORE, "record_wall_time", "store.append_s", None, None),
    (_STORE, "append_result", "store.append_s", _one("store.appends"), None),
    (_STORE, "telemetry_recorder", "telemetry.write_s", None, None),
    ("repro.telemetry.recorder:NullRecorder", "emit", "telemetry.write_s",
     _one("telemetry.events"), _recorder_enabled),
    ("repro.telemetry.recorder:RecorderSpec", "build", "telemetry.write_s",
     None, None),
    ("repro.telemetry.recorder:JsonlRecorder", "close", "telemetry.write_s",
     None, None),
    ("repro.telemetry.shards", "load_run_events", "telemetry.load_s", None,
     None),
    ("repro.annealing.hycim:HyCiMSolver", "solve", "annealing.solve_self_s",
     _one("annealing.trials"), None),
    ("repro.batched.trials", "hycim_batched_trials", "batched.self_s", None,
     None),
    ("repro.batched.engine:BatchedHyCiMSolver", "solve_batch",
     "batched.self_s", None, None),
    ("repro.kernels", "make_hycim_kernel", "kernels.build_s", _kernel_state,
     None),
    ("repro.kernels.reference:ReferenceHyCiMKernel", "run_block",
     "kernels.sweep_self_s", None, None),
    ("repro.kernels.fused:FusedHyCiMKernel", "run_block",
     "kernels.sweep_self_s", None, None),
    ("repro.kernels.packed:PackedHyCiMKernel", "run_block",
     "kernels.sweep_self_s", None, None),
    (_DRIVER, "propose", "dynamics.propose_s", _replica_proposals, None),
    (_DRIVER, "flip_indices", "dynamics.propose_s", _replica_proposals, None),
    ("repro.dynamics.moves:SingleFlipMove", "propose", "dynamics.propose_s",
     _one("dynamics.propose_calls"), None),
    ("repro.dynamics.moves:KnapsackNeighborhoodMove", "propose",
     "dynamics.propose_s", _one("dynamics.propose_calls"), None),
    (_DRIVER, "metropolis", "dynamics.accept_s", None, None),
    (_METROPOLIS, "accept", "dynamics.accept_s", None, None),
    (_METROPOLIS, "accept_batch", "dynamics.accept_s", None, None),
    (_METROPOLIS, "accept_scalar", "dynamics.accept_s", None, None),
    (_CROSSBAR, "__init__", "cim.program_s", None, None),
    (_FILTER, "__init__", "cim.program_s", None, None),
    (_FILTER, "is_feasible", "cim.filter_s", _filter_counts, None),
    (_FILTER, "is_feasible_batch", "cim.filter_s", _filter_counts, None),
    (_FILTER, "is_feasible_devices", "cim.filter_s", _filter_counts, None),
    (_CROSSBAR, "compute_energy", "cim.crossbar_s", _crossbar_rows, None),
    (_CROSSBAR, "compute_energies", "cim.crossbar_s", _crossbar_rows, None),
    (_CROSSBAR, "compute_energies_devices", "cim.crossbar_s", _crossbar_rows,
     None),
    (_ADC, "convert", "cim.adc_s", _adc_conversions, None),
    (_ADC, "convert_array", "cim.adc_s", _adc_conversions, None),
    (_ADC, "convert_devices", "cim.adc_s", _adc_conversions, None),
    (_ADC, "quantize", "cim.adc_s", _adc_conversions, None),
    (_ADC, "quantize_array", "cim.adc_s", _adc_conversions, None),
    (_ADC, "quantize_devices", "cim.adc_s", _adc_conversions, None),
    ("repro.core.qubo:QUBOModel", "energy", "core.qubo_energy_s",
     _one("core.qubo_energy_calls"), None),
    ("repro.core.qubo:QUBOModel", "energies", "core.qubo_energy_s",
     _one("core.qubo_energy_calls"), None),
    ("repro.core.constraints:LinearConstraint", "is_satisfied",
     "core.constraint_s", None, None),
    ("repro.core.constraints:InequalityConstraint", "is_satisfied",
     "core.constraint_s", None, None),
    ("repro.core.constraints:EqualityConstraint", "is_satisfied",
     "core.constraint_s", None, None),
    ("repro.core.transformation:InequalityQUBO", "is_feasible",
     "core.constraint_s", None, None),
    ("repro.problems.qkp:QuadraticKnapsackProblem",
     "random_feasible_configuration", "problems.starts_s", None, None),
    ("repro.problems.multidim_knapsack:MultiDimensionalKnapsackProblem",
     "random_feasible_configuration", "problems.starts_s", None, None),
)

#: Self-time metrics in report order (``other.self_s`` is the remainder).
TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(
    entry[2] for entry in WRAPPED))


def self_times(starts: np.ndarray, ends: np.ndarray,
               parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    ``parents[i]`` is the index of span ``i``'s parent (``-1`` for a root).
    Children are clipped to their parent's interval and overlapping children
    are merged first, so time is never subtracted twice.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    own = ends - starts
    children = np.flatnonzero(parents >= 0)
    if children.size == 0:
        return own
    children = children[np.lexsort((starts[children], parents[children]))]
    group = -1
    covered_until = 0.0
    for child in children.tolist():
        parent = int(parents[child])
        if parent != group:
            group = parent
            covered_until = starts[parent]
        low = max(starts[child], covered_until)
        high = min(ends[child], ends[parent])
        if high > low:
            own[parent] -= high - low
            covered_until = high
    return own


class _Buffer:
    """One process's spans and counts since its last flush."""

    def __init__(self) -> None:
        self.metrics = array("h")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}

    def clear(self) -> None:
        # In place: the installed wrappers hold references to these objects.
        del self.metrics[:], self.parents[:], self.starts[:], self.ends[:]
        self.stack.clear()
        self.counts.clear()

    def snapshot(self) -> tuple:
        return (self.metrics.tobytes(), self.parents.tobytes(),
                self.starts.tobytes(), self.ends.tobytes(), dict(self.counts))


_INSTALLED: Optional["LayerTracer"] = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _INSTALLED is not None:
        _INSTALLED._buffer.clear()


def merge_counts(into: Dict[str, float], counts: Mapping[str, float]) -> None:
    """Add ``counts`` into ``into`` (gauges keep their maximum)."""
    for name, value in counts.items():
        if name in GAUGES:
            into[name] = max(into.get(name, 0.0), value)
        else:
            into[name] = into.get(name, 0) + value


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


class LayerTracer:
    """Installs the :data:`WRAPPED` spans around one traced iteration.

    Use as a context manager; ``directory`` receives the workers' span
    files.  After the block, :meth:`collect` returns per-metric self times
    and counts over the parent and every worker.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._buffer = _Buffer()
        self._pid = os.getpid()
        self._undo: List[Callable[[], None]] = []
        self._metric_ids = {name: index for index, name in enumerate(TIME_METRICS)}

    # -- installation -------------------------------------------------- #
    def __enter__(self) -> "LayerTracer":
        global _INSTALLED, _FORK_HOOK_REGISTERED
        if _INSTALLED is not None:
            raise RuntimeError("a LayerTracer is already installed")
        # The batched engines register lazily; load them so the registry
        # table holds the functions this tracer replaces.
        importlib.import_module("repro.batched.trials")
        self.directory.mkdir(parents=True, exist_ok=True)
        for owner, attribute, metric, counter, condition in WRAPPED:
            self._install(owner, attribute, metric, counter, condition)
        _INSTALLED = self
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        return self

    def __exit__(self, *exc_info) -> bool:
        global _INSTALLED
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        _INSTALLED = None
        return False

    def _install(self, owner: str, attribute: str, metric: str,
                 counter: Optional[Counter], condition: Optional[Callable]) -> None:
        module, cls = _resolve(owner)
        if cls is not None:
            original = cls.__dict__[attribute]
            setattr(cls, attribute, self._wrap(original, metric, counter, condition))
            self._undo.append(lambda: setattr(cls, attribute, original))
            return
        original = getattr(module, attribute)
        wrapper = self._wrap(original, metric, counter, condition)
        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(functools.partial(
                        namespace.__setitem__, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for entry, target in list(value.items()):
                        if target is original:
                            value[entry] = wrapper
                            self._undo.append(functools.partial(
                                value.__setitem__, entry, original))

    @staticmethod
    def _namespaces() -> Iterable[dict]:
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "repro" or name.startswith("repro.")):
                yield vars(module)

    def _wrap(self, function: Callable, metric: str,
              counter: Optional[Counter], condition: Optional[Callable]) -> Callable:
        metric_id = self._metric_ids[metric]
        buffer = self._buffer
        metrics, parents = buffer.metrics, buffer.parents
        starts, ends, stack, counts = (buffer.starts, buffer.ends,
                                       buffer.stack, buffer.counts)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if condition is not None and not condition(args):
                return function(*args, **kwargs)
            index = len(starts)
            parent = stack[-1] if stack else -1
            metrics.append(metric_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None and (parent < 0 or metrics[parent] != metric_id):
                merge_counts(counts, counter(args, result))
            if not stack and os.getpid() != tracer._pid:
                tracer._flush_worker()
            return result

        return wrapper

    def _flush_worker(self) -> None:
        path = self.directory / f"worker-{os.getpid()}.pkl"
        with path.open("ab") as handle:
            pickle.dump(self._buffer.snapshot(), handle)
        self._buffer.clear()

    # -- results ------------------------------------------------------- #
    def collect(self) -> Dict[str, float]:
        """Self time per metric, counts, and ``trace.worker_busy_s``."""
        totals: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        counts: Dict[str, float] = {}
        worker_busy = 0.0
        chunks = [(self._buffer.snapshot(), False)]
        for path in sorted(self.directory.glob("worker-*.pkl")):
            with path.open("rb") as handle:
                while True:
                    try:
                        chunks.append((pickle.load(handle), True))
                    except EOFError:
                        break
        for (metric_bytes, parent_bytes, start_bytes, end_bytes,
             chunk_counts), in_worker in chunks:
            metrics = np.frombuffer(metric_bytes, dtype=np.int16)
            parents = np.frombuffer(parent_bytes, dtype=np.int64)
            starts = np.frombuffer(start_bytes, dtype=float)
            ends = np.frombuffer(end_bytes, dtype=float)
            own = self_times(starts, ends, parents)
            for index, name in enumerate(TIME_METRICS):
                totals[name] += float(own[metrics == index].sum())
            if in_worker:
                roots = parents < 0
                worker_busy += float((ends[roots] - starts[roots]).sum())
            merge_counts(counts, chunk_counts)
        self._buffer.clear()
        return {**totals, **counts, "trace.worker_busy_s": worker_busy}
