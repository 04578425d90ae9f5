"""End-to-end acceptance suite.

Each test prints one CRITERION line so a plain ``pytest -s
tests/test_acceptance.py`` reads as a checklist.  The scaled data sizes
keep the whole suite in the low minutes on one core.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import mvcca.regularizers as rg
from mvcca.linalg import SparseView
from mvcca.retrieval import HashSpec, hash_corpus
from mvcca.solver import (SolverConfig, SolverState, grad_q,
                          lagrangian_value, run_pdd, run_subsolver, update_g)
from mvcca.synth import (SynthSpec, gen_shared_factor, gen_with_outliers,
                         metric1, metric2, total_correlation)

from oracles import (fd_gradient, materialize, prox_bruteforce,
                     random_stiefel, retrieval_scores, smooth_block_objective)
from test_retrieval import bow_vector, circle, scores_of, small_integer_points
from test_solver import random_state


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def benchmark_run():
    """Criterion-1 problem and solve, shared with criterion 7."""
    spec = SynthSpec(rows=2000, features=500, views=3, components=5,
                     density=2e-2, seed=42)
    views = gen_shared_factor(spec)
    cfg = SolverConfig(k=5, eta0=100.0, sub_max_sweeps=5, outer_max=300,
                       seed=7)
    start = time.perf_counter()
    state, trace = run_pdd(views, cfg)
    elapsed = time.perf_counter() - start
    return views, state, trace, elapsed


def test_criterion_1_shared_factor_capture(benchmark_run):
    views, state, trace, elapsed = benchmark_run
    _, percent = total_correlation(views, state.q)
    iters = trace.rows[-1].iteration
    ok = percent >= 95.0 and iters <= 300 and elapsed < 60.0
    report(1, ok, f"captured {percent:.2f}% of K*I*(I-1) "
                  f"in {iters} iterations, {elapsed:.1f}s")


def test_criterion_2_outlier_suppression():
    failures = []
    details = []
    for seed in range(5):
        spec = SynthSpec(rows=2000, features=800, views=3, components=5,
                         density=1e-2, outliers=800, noise_var=0.01,
                         seed=seed)
        views = gen_with_outliers(spec)
        cfg = SolverConfig(k=5, outer_max=150, seed=seed + 10)
        plain, _ = run_pdd(views, cfg)
        grouped, _ = run_pdd(views, cfg,
                             regs=rg.Regularizer("l21", lam=0.1))
        # signal columns first, then the outlier columns
        signal, outlier = np.arange(800), np.arange(800, 1600)
        m1 = metric1(views, grouped.q, signal)
        m2_plain = metric2(plain.q, outlier)
        m2_grouped = metric2(grouped.q, outlier)
        good = m1 >= 80.0 and m2_grouped <= 0.5 * m2_plain
        if not good:
            failures.append(seed)
        details.append(f"s{seed}: m1={m1:.1f} m2={m2_grouped:.3f}"
                       f"/{m2_plain:.3f}")
    report(2, not failures, "; ".join(details))


def test_criterion_3_prox_oracle_equivalence():
    rng = np.random.default_rng(33)
    worst = 0.0
    for kind in rg.KINDS:
        n = 1000
        v = 3.0 * rng.standard_normal((n, 4, 3))
        tau = rng.uniform(0.05, 3.0, n)
        lam = rng.uniform(0.0, 2.5, n)
        mu = rng.uniform(0.0, 2.5, n)
        if kind in ("l1", "elastic_l1", "none", "nonneg"):
            ref = prox_bruteforce(kind, v, tau[:, None, None],
                                  lam[:, None, None], mu[:, None, None])
        else:
            ref = prox_bruteforce(kind, v, tau[:, None], lam[:, None],
                                  mu[:, None])
        for idx in range(n):
            reg = rg.Regularizer(kind, lam=float(lam[idx]),
                                 mu=float(mu[idx]))
            got = rg.prox(reg, v[idx], float(tau[idx]))
            worst = max(worst, float(np.abs(got - ref[idx]).max()))
            # nonexpansiveness against the next instance under this map
            other = v[(idx + 1) % n]
            gap_out = np.linalg.norm(got - rg.prox(reg, other, float(tau[idx])))
            gap_in = np.linalg.norm(v[idx] - other)
            assert gap_out <= gap_in + 1e-12
    report(3, worst <= 1e-6,
           f"max |prox - bruteforce| = {worst:.2e} over 6000 instances")


def test_criterion_4_procrustes_optimality():
    rng = np.random.default_rng(44)
    candidates = random_stiefel(rng, 12, 3, 10_000)
    worst_gap = np.inf
    worst_sym = 0.0
    worst_eig = 0.0
    views = [SparseView(np.eye(12)) for _ in range(2)]
    for _ in range(100):
        agg = rng.standard_normal((12, 3)) * rng.uniform(0.5, 3.0)
        state = SolverState(views, [np.zeros((12, 3))] * 2,
                            [np.eye(12, 3)] * 2, [np.zeros((12, 3))] * 2,
                            rho=2.0)
        state.p = [np.zeros((12, 3)), np.zeros((12, 3))]
        state.y[0] = agg.copy()
        g = update_g(0, state, sum(state.p))
        # on the orthonormal set ||G||^2 is constant, so the subproblem
        # objective is a constant minus trace(G^T aggregate)
        ours = -float(np.trace(g.T @ agg))
        theirs = -np.einsum("nij,ij->n", candidates, agg)
        worst_gap = min(worst_gap, float((theirs - ours).min()))
        sym = g.T @ agg
        worst_sym = max(worst_sym, float(np.linalg.norm(sym - sym.T)))
        worst_eig = min(worst_eig,
                        float(np.linalg.eigvalsh(0.5 * (sym + sym.T)).min()))
    ok = worst_gap >= -1e-9 and worst_sym <= 1e-8 and worst_eig >= -1e-8
    report(4, ok, f"min candidate gap {worst_gap:.2e}, "
                  f"max asymmetry {worst_sym:.2e}, min eig {worst_eig:.2e}")


def test_criterion_5_gradient_check():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(2, 5))
        l_rows = int(rng.integers(8, 21))
        k = int(rng.integers(1, 4))
        state = random_state(rng, n, l_rows, k, seed=trial)
        dense = [materialize(v) for v in state.views]
        rho = state.rho = float(rng.uniform(0.5, 4.0))
        i = int(rng.integers(0, n))
        grad = grad_q(i, state, sum(state.g))
        fun = lambda q: smooth_block_objective(
            i, dense, state.q, state.g, state.y, rho, q)
        ref = fd_gradient(fun, state.q[i], h=1e-6)
        rel = np.linalg.norm(grad - ref) / max(np.linalg.norm(ref), 1e-12)
        worst = max(worst, rel)
    report(5, worst < 1e-5, f"max relative FD error {worst:.2e}")


def test_criterion_6_lagrangian_descent():
    worst = -np.inf
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        n = int(rng.integers(2, 5))
        state = random_state(rng, n, int(rng.integers(8, 24)),
                             int(rng.integers(1, 4)), seed=trial)
        state.rho = 2.0
        prev = lagrangian_value(state, None)
        for _ in range(40):
            run_subsolver(state, eps_r=1e-300, max_sweeps=1)
            cur = lagrangian_value(state, None)
            worst = max(worst, cur - prev - 1e-9 * max(1.0, abs(prev)))
            prev = cur
    report(6, worst <= 0.0,
           f"max slack-adjusted increase {worst:.2e} over 800 sweeps")


def test_criterion_7_feasibility_trend(benchmark_run):
    _, state, trace, _ = benchmark_run
    final_res = trace.rows[-1].primal_residual
    res_ok = final_res <= 1e-4 * 2000 * 5
    rho = trace.column("rho")
    nondecreasing = bool(np.all(np.diff(rho) >= 0))
    increases_late = int(np.sum(np.diff(rho)[50:] > 0))
    total_late = len(np.diff(rho)[50:])
    rate_ok = increases_late <= 0.2 * total_late
    report(7, res_ok and nondecreasing and rate_ok,
           f"final residual {final_res:.2e} (cap 1.0), rho nondecreasing "
           f"{nondecreasing}, {increases_late}/{total_late} late increases")


def test_criterion_8_retrieval_formulas():
    # the scores pairs.csv writes, on views that hold the projections
    # themselves (each factor the identity)
    ring = circle(100)
    best = scores_of([ring, ring])
    worst = scores_of([ring, -ring])
    endpoints = ((best.mean_aroc, best.mean_nn_freq),
                 (worst.mean_aroc, worst.mean_nn_freq))
    endpoints_ok = endpoints == ((100.0, 100.0), (0.0, 0.0))

    # every point twice: each true match ties with its duplicate
    twice = np.tile(ring, (2, 1))
    tie = scores_of([twice, twice])
    tie_ok = (tie.mean_aroc, tie.mean_nn_freq) == (100.0, 100.0)

    oracle_ok = True
    for trial in range(30):
        points = small_integer_points(np.random.default_rng(8800 + trial))
        want = retrieval_scores(points)
        for p in scores_of(points).pairs:
            aroc, nn = want[p.query_view, p.gallery_view]
            if (p.aroc != pytest.approx(aroc, rel=1e-12)
                    or p.nn_freq != pytest.approx(nn, rel=1e-12)):
                oracle_ok = False
    report(8, endpoints_ok and tie_ok and oracle_ok,
           f"identical/antipodal views {endpoints}, ties to the true "
           f"match {tie_ok}, brute-force ranks match {oracle_ok}")


def test_criterion_9_hashing_unbiased():
    rng = np.random.default_rng(99)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for _ in range(50):
        docs.append(list(rng.choice(vocab, size=int(rng.integers(25, 46)))))
    bows = np.array([bow_vector(doc, vocab) for doc in docs])
    exact = bows @ bows.T
    pairs = [(i, j) for i in range(50) for j in range(i + 1, 50)]
    assert min(exact[i, j] for i, j in pairs) >= 5.0

    acc = np.zeros_like(exact)
    linear_ok = True
    probe = np.random.default_rng(990)
    for seed in range(1000):
        spec = HashSpec(bits=10, seed=seed)
        hashed = hash_corpus(docs, spec).raw.toarray()
        acc += hashed @ hashed.T
        a, b = probe.integers(0, 50, size=2)
        combined = hash_corpus([docs[a] + docs[b]], spec).raw.toarray()[0]
        if not np.array_equal(combined, hashed[a] + hashed[b]):
            linear_ok = False
    mean = acc / 1000.0
    rel = max(abs(mean[i, j] - exact[i, j]) / exact[i, j] for i, j in pairs)
    report(9, rel <= 0.05 and linear_ok,
           f"max relative bias {rel:.3f} over {len(pairs)} pairs, "
           f"linearity exact: {linear_ok}")


def test_criterion_10_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "synth.rows = 2000\nsynth.features = 500\nsynth.views = 3\n"
        "synth.components = 5\nsynth.density = 2e-2\nsynth.seed = 42\n")
    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text(
        "solver.k = 5\nsolver.outer_max = 120\nsolver.seed = 7\n"
        f"solver.virtual_clock = true\nio.data_dir = {data}\n")

    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "mvcca", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    cli("synth", "--config", str(synth_cfg), "--out", str(data))
    runs = {}
    for name in ("a", "b", "c"):
        out = tmp_path / f"run_{name}"
        cli("solve", "--config", str(solve_cfg), "--out", str(out))
        runs[name] = (out / "trace.csv").read_bytes()
    ok = runs["a"] == runs["b"] == runs["c"]
    report(10, ok, f"trace.csv identical across three reruns "
                   f"({len(runs['a'])} bytes)")
