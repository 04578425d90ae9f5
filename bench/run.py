"""End-to-end and per-layer benchmark of mvcca.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload scale_cli --seed 1 --seconds 5 --trace 0

Runs one workload in this process against the library under ``src/``
(no install needed) and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions and reports the per-layer metrics instead.
See README.md in this directory for the workloads and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _limit_threads() -> None:
    # no more BLAS threads than the cores this process may run on
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


class TargetClock:
    """Time from the call into a solve to the first trace row whose total
    correlation reaches ``fraction`` of the ideal.

    Installed on ``Trace.append`` so that it runs on the benchmark's own
    clock: the trace's ``seconds`` column starts only after the spectral
    norm estimates.
    """

    def __init__(self, trace_cls, fraction: float):
        self._start = None
        self.hit = None
        original = trace_cls.append

        def append(trace, row):
            if (self._start is not None and self.hit is None
                    and row.total_correlation >= fraction * trace.ideal):
                self.hit = (time.perf_counter() - self._start, row.iteration)
            original(trace, row)

        trace_cls.append = append

    def start(self) -> None:
        self.hit = None
        self._start = time.perf_counter()

    def stop(self):
        self._start = None
        return self.hit


class Operations:
    """Counts the timed operations and the ones that raised.

    An instance whose set-up or split fails is broken: its solve and
    evaluation are still counted in every round, as failed, so that a
    fault that fails every time is the same share of every run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn) -> float | None:
        """Seconds ``fn`` took, or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            fn()
        except Exception:  # counted, reported, and the run goes on
            self.failed += 1
            print(f"{what} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        return time.perf_counter() - start

    def skip(self, count: int) -> None:
        self.attempted += count
        self.failed += count


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from mvcca import solver

    import workloads

    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-",
                                     dir=BENCH_DIR / "work"))
    try:
        workload = workloads.WORKLOADS[name](seed, work_dir)
        clock = TargetClock(solver.Trace, workload.target)
        tracer = None
        if trace:
            import layers
            tracer = layers.LayerTracer()
            tracer.install()

        ops = Operations()
        n = workload.instances
        broken = set()
        setup_s = []
        for j in range(max(workload.setups, n)):
            k = j % n
            took = ops.run(f"set-up of instance {k}",
                           lambda: workload.setup(k))
            if took is None:
                broken.add(k)
            else:
                setup_s.append(took)
        per_setup = tracer.take() if tracer else {}
        for k in range(n):
            if k in broken:
                ops.skip(1)
            elif ops.run(f"split of instance {k}",
                         lambda: workload.split(k)) is None:
                broken.add(k)
        if tracer:
            tracer.take()

        # whole cycles over the instances, at least one, until --seconds
        solve_s, eval_s, to_target, iters = [], [], [], []
        missed, solved = set(), set()
        rounds = 0
        began = time.perf_counter()
        while rounds == 0 or time.perf_counter() - began < seconds:
            rounds += 1
            for k in range(n):
                if k in broken:
                    ops.skip(2)
                    continue
                clock.start()
                took = ops.run(f"solve of instance {k}",
                               lambda: workload.solve(k))
                hit = clock.stop()
                if took is None:
                    ops.skip(1)
                    continue
                solve_s.append(took)
                if hit is None:
                    missed.add(k)
                else:
                    to_target.append(hit[0])
                    iters.append(hit[1])
                took = ops.run(f"evaluation of instance {k}",
                               lambda: workload.evaluate(k))
                if took is not None:
                    eval_s.append(took)
                    solved.add(k)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_round = tracer.take() if tracer else {}
        if tracer:
            tracer.uninstall()

        failures = [f"instance {k}: correlation target "
                    f"{100 * workload.target:g}% never reached in the trace"
                    for k in sorted(missed)]
        for k in sorted(solved):
            try:
                failures += [f"instance {k}: {failure}"
                             for failure in workload.check_instance(k)]
            except Exception as exc:  # a check that cannot run has failed
                traceback.print_exc()
                failures.append(f"instance {k}: check raised {exc!r}")
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)

        units = _units(trace)
        if trace:
            # one pass: one set-up plus one solve and evaluation
            layer = {key: per_setup.get(key, 0.0) / max(len(setup_s), 1)
                     + per_round.get(key, 0.0) / max(len(solve_s), 1)
                     for key in units}
            layer["retrieval.unique_tokens"] = workload.unique_tokens
            if iters:
                layer["solver.iters_to_target"] = statistics.median(iters)
            if solve_s:
                layer["traced.solve_s"] = statistics.fmean(solve_s)
        else:
            # the instances differ in data, and the mean over them varies
            # less from run to run than the median of so few draws
            layer = {"peak_rss_mb": peak_mb}
            for key, values in (("setup_s", setup_s), ("solve_s", solve_s),
                                ("time_to_target_s", to_target),
                                ("eval_s", eval_s)):
                if values:
                    layer[key] = (statistics.median(values)
                                  if key == "setup_s"
                                  else statistics.fmean(values))
            if workload.corr:
                layer["corr_pct"] = workload.corr_pct
            if workload.aroc:
                layer["aroc_pct"] = workload.aroc_pct
        return {
            # a run in which nothing could be measured shows nothing
            "correct": not failures and bool(solved),
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {key: {"value": float(layer[key]), "unit": unit}
                        for key, unit in units.items() if key in layer},
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvcca" / "__init__.py").is_file():
        print(f"library source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
