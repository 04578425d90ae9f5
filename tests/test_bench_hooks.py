"""The benchmark's per-layer tracer still sees the library's hot calls.

``bench/layers.py`` wraps public library functions by name and reads
some of their arguments and results, so a renamed function or a changed
signature would silently zero a ``--trace 1`` counter.
"""

import sys
from pathlib import Path

import numpy as np

import mvcca

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402


def test_tracer_counts_solver_and_retrieval_work():
    rng = np.random.default_rng(0)
    views = [mvcca.SparseView(rng.standard_normal((12, 8)))
             for _ in range(3)]
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        state, _ = mvcca.run_pdd(
            views, mvcca.SolverConfig(k=2, outer_max=5, seed=1))
        mvcca.evaluate_pairs(views, state.q)
    finally:
        tracer.uninstall()
    counts = tracer.take()
    # the spmm work figures read the views' ``raw`` and ``nnz``
    for name in ("solver.sweeps", "solver.subsolver_calls",
                 "solver.outer_iters", "solver.dual_steps",
                 "retrieval.distance_entries", "linalg.spmm.gflop_computed",
                 "linalg.spmm.gb_computed"):
        assert counts.get(name, 0) > 0, name


def test_tracer_counts_hashed_tokens_and_matrix_market_entries(tmp_path):
    docs = [["a", "b", "a"], [], ["c", "b", "d", "a"]]
    view = mvcca.SparseView(np.array([[0.5, 0.0, 2.0], [0.0, -1.0, 0.0]]))
    path = tmp_path / "v.mtx"
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        mvcca.hash_corpus(docs, mvcca.HashSpec(bits=6, seed=1))
        hashing = tracer.take()
        mvcca.save_matrix_market(path, view)
        mvcca.load_matrix_market(path)
        io = tracer.take()
    finally:
        tracer.uninstall()
    # the hash is counted through the module attribute it is called by
    assert hashing["retrieval.tokens_hashed"] == len({"a", "b", "c", "d"})
    # the save counts its argument's entries and the load its result's
    assert io["linalg.matrix_market.entries"] == 2 * view.nnz
