"""Per-layer tracing installed from outside the library.

``LayerTracer.install`` replaces the library's public functions with
wrappers that record self time (wall time minus the time of wrapped
callees) and counts.  ``solver``, ``synth``, ``retrieval``, ``cli`` and the
package itself bind ``linalg`` functions by name at import, so every
module attribute that is the original function object is replaced, not
just the defining module's.  ``uninstall`` puts the originals back.
The names and units of the metrics the traced run reports are those of
the ``per_layer`` list in BENCHMARK.json; the runner reads them there.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import mvcca
from mvcca import cli, linalg, regularizers, retrieval, solver, synth

MODULES = (mvcca, linalg, regularizers, retrieval, solver, synth, cli)

# layer name -> (defining module, function names whose self time it sums)
TIMED = {
    "linalg.spmm_right": (linalg, ("spmm_right",)),
    "linalg.spmm_left_t": (linalg, ("spmm_left_t",)),
    "linalg.polar_factor": (linalg, ("polar_factor",)),
    "linalg.spectral_norm_sq": (linalg, ("spectral_norm_sq",)),
    "linalg.load_matrix_market": (linalg, ("load_matrix_market",)),
    "linalg.save_matrix_market": (linalg, ("save_matrix_market",)),
    "linalg.dense_csv": (linalg, ("load_dense_csv", "save_dense_csv")),
    "regularizers.prox": (regularizers, ("prox",)),
    "regularizers.penalty_value": (regularizers, ("penalty_value",)),
    "solver.grad_q": (solver, ("grad_q",)),
    "solver.update_q": (solver, ("update_q",)),
    "solver.update_g": (solver, ("update_g",)),
    "solver.run_subsolver": (solver, ("run_subsolver",)),
    "solver.run_pdd": (solver, ("run_pdd",)),
    "solver.primal_residual": (solver, ("primal_residual",)),
    "solver.lagrangian_value": (solver, ("lagrangian_value",)),
    "synth.generate": (synth, ("gen_shared_factor", "gen_with_outliers")),
    "synth.total_correlation": (synth, ("total_correlation",)),
    "synth.metric1": (synth, ("metric1",)),
    "retrieval.hash_corpus": (retrieval, ("hash_corpus",)),
    "retrieval.project": (retrieval, ("project",)),
    "retrieval.cross_distances": (retrieval, ("cross_distances",)),
    "retrieval.evaluate_pairs": (retrieval, ("evaluate_pairs",)),
    "cli.main": (cli, ("main",)),
}

def _spmm_work(view, dense, out) -> tuple[float, float]:
    """Flops and bytes a CSR-times-dense product computes on, counted
    from the operands: 2*nnz*K flops; the sparse arrays, the dense
    operand and the result each moved once."""
    k = out.shape[1] if out.ndim == 2 else 1
    raw = view.raw
    sparse_bytes = raw.data.nbytes + raw.indices.nbytes + raw.indptr.nbytes
    return 2.0 * view.nnz * k, float(sparse_bytes + 8 * dense.size
                                     + out.nbytes)


class LayerTracer:
    """Self seconds and counts per layer, collected while ``active``."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.active = True
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._subsolver_sig = inspect.signature(solver.run_subsolver)

    def take(self) -> dict[str, float]:
        """Return what was recorded since the last call and start afresh."""
        out, self.values = dict(self.values), defaultdict(float)
        return out

    def _after(self, name: str, elapsed: float, result, args,
               kwargs) -> None:
        v = self.values
        if name in ("linalg.spmm_right", "linalg.spmm_left_t"):
            flops, nbytes = _spmm_work(args[0], args[1], result)
            v["linalg.spmm.gflop_computed"] += flops / 1e9
            v["linalg.spmm.gb_computed"] += nbytes / 1e9
        elif name == "linalg.load_matrix_market":
            v["linalg.matrix_market.entries"] += result.nnz
        elif name == "linalg.save_matrix_market":
            v["linalg.matrix_market.entries"] += args[1].nnz
        elif name == "solver.run_subsolver":
            cap = self._subsolver_sig.bind(*args, **kwargs).arguments[
                "max_sweeps"]
            v["solver.subsolver_calls"] += 1
            v["solver.sweeps"] += result
            v["solver.sweeps_at_cap"] += result >= cap
        elif name == "linalg.spectral_norm_sq":
            v["linalg.spectral_norm_sq.total_s"] += elapsed
        elif name == "solver.run_pdd":
            trace = result[1]
            v["solver.outer_iters"] += len(trace) - 1
            # wall time of the solve that the trace's own clock leaves out
            v["solver.trace_clock_gap_s"] += elapsed - trace.rows[-1].seconds
        elif name == "retrieval.cross_distances":
            v["retrieval.distance_entries"] += result.size

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.values[name + ".s"] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            self.values[name + ".calls"] += 1
            self._after(name, elapsed, result, args, kwargs)
            return result
        return wrapper

    def _counted(self, name: str, fn, count):
        # no clock: the callee's time stays in its caller's self time
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.values[name] += count(result)
            return result
        return wrapper

    def _replace(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for name, (home, functions) in TIMED.items():
            for fn_name in functions:
                original = getattr(home, fn_name)
                self._replace(original, self._timed(name, original))
        self._replace(solver.dual_or_penalty_step, self._counted(
            "solver.dual_steps", solver.dual_or_penalty_step, int))
        # the per-token hash is private, but counting its calls is the
        # only outside view of how often a token is hashed again
        self._replace(retrieval._token_slot_sign, self._counted(
            "retrieval.tokens_hashed", retrieval._token_slot_sign,
            lambda _: 1))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
