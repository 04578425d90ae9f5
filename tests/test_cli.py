import contextlib
import dataclasses
import io
import logging
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import mvcca
from mvcca.cli import (_BASE_KEYS, COMMANDS, RunConfig, fmt_value, main,
                       parse_config)
from mvcca import synth
from mvcca.errors import InputError
from mvcca.linalg import (load_dense_csv, load_matrix_market, save_dense_csv,
                          save_matrix_market)
from mvcca.regularizers import Regularizer
from mvcca.retrieval import HashSpec, hash_corpus
from mvcca.solver import RegularityError, SolverConfig, Trace
from mvcca.synth import SynthSpec
from test_linalg import MALFORMED_MTX


README = (Path(__file__).resolve().parents[1]
          / "README.md").read_text(encoding="utf-8")
# every `cat > <name>.cfg <<'EOF'` heredoc in README, by file name
README_CONFIGS = dict(re.findall(r"cat > (\S+\.cfg) <<'EOF'\n(.*?)^EOF$",
                                 README, re.M | re.S))


def read_echo(path):
    return dict(line.split(" = ", 1)
                for line in path.read_text(encoding="utf-8").splitlines())


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "mvcca", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SYNTH_CFG = """\
synth.rows = 120
synth.features = 40
synth.views = 3
synth.components = 3
synth.density = 5e-2
synth.seed = 11
"""

SOLVE_CFG = """\
solver.k = 3
solver.outer_max = 40
solver.seed = 12
io.data_dir = {data_dir}
"""


@pytest.fixture()
def synth_dir(tmp_path):
    cfg = write_cfg(tmp_path / "synth.cfg", SYNTH_CFG)
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
    return data


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        for i in range(3):
            view = load_matrix_market(synth_dir / f"view_{i}.mtx")
            assert view.shape == (120, 40)
        lines = (synth_dir / "index_sets.txt").read_text().splitlines()
        assert lines[0].split() == [str(i) for i in range(40)]
        assert lines[1].strip() == ""
        assert (synth_dir / "spec.cfg").exists()

    def test_outlier_spec_partitions_columns(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", SYNTH_CFG.replace(
            "synth.outliers = 0" if "synth.outliers" in SYNTH_CFG
            else "synth.seed = 11", "synth.seed = 11\nsynth.outliers = 10"))
        out = tmp_path / "odata"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "index_sets.txt").read_text().splitlines()
        signal = [int(t) for t in lines[0].split()]
        outlier = [int(t) for t in lines[1].split()]
        assert sorted(signal + outlier) == list(range(50))

    def test_rerun_byte_identical(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "synth2.cfg", SYNTH_CFG)
        second = tmp_path / "data2"
        assert main(["synth", "--config", cfg, "--out", str(second)]) == 0
        for i in range(3):
            assert (synth_dir / f"view_{i}.mtx").read_bytes() \
                == (second / f"view_{i}.mtx").read_bytes()


    def test_rerun_with_fewer_views_replaces_the_set(self, tmp_path):
        data = tmp_path / "data"
        for views in (4, 3):
            cfg = write_cfg(tmp_path / f"synth{views}.cfg", SYNTH_CFG.replace(
                "synth.views = 3", f"synth.views = {views}"))
            if views == 3:
                # not numbered files by the no-leading-zero rule: kept
                for name in ("view_03.mtx", "view_x.mtx"):
                    (data / name).write_text("", encoding="ascii")
            assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
        assert sorted(p.name for p in data.glob("view_*.mtx")) == [
            "view_0.mtx", "view_03.mtx", "view_1.mtx", "view_2.mtx",
            "view_x.mtx"]


class TestSolveCommand:
    def test_round_trip(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 0
        for i in range(3):
            q = load_dense_csv(run_dir / f"Q_{i}.csv")
            g = load_dense_csv(run_dir / f"G_{i}.csv")
            assert q.shape == (40, 3)
            assert g.shape == (120, 3)
        trace = Trace.from_csv(run_dir / "trace.csv", ideal=3 * 3 * 2)
        assert 100 * trace.column("total_correlation")[-1] \
            / trace.ideal >= 90
        assert (run_dir / "resolved.cfg").exists()

    def test_rerun_with_fewer_views_replaces_the_set(self, tmp_path,
                                                     synth_dir):
        more = tmp_path / "more"
        shutil.copytree(synth_dir, more)
        shutil.copy(more / "view_2.mtx", more / "view_3.mtx")
        run_dir = tmp_path / "run"
        for data in (more, synth_dir):
            cfg = write_cfg(tmp_path / "solve.cfg",
                            SOLVE_CFG.format(data_dir=data))
            assert main(["solve", "--config", cfg,
                         "--out", str(run_dir)]) == 0
        assert sorted(p.name for p in run_dir.glob("[QG]_*.csv")) == [
            f"{stem}{i}.csv" for stem in ("G_", "Q_") for i in range(3)]
        metrics_cfg = write_cfg(
            tmp_path / "metrics.cfg",
            f"io.data_dir = {synth_dir}\nio.run_dir = {run_dir}\n")
        assert main(["metrics", "--config", metrics_cfg,
                     "--out", str(tmp_path / "report")]) == 0

    def test_missing_view_file(self, tmp_path):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        "solver.k = 3\nio.views = /nonexistent/v.mtx\n")
        run_dir = tmp_path / "run"
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(run_dir))
        assert code == 4
        assert "not found" in err
        assert not run_dir.exists()

    def test_unknown_key_rejected(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.turbo = yes\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "unknown config key" in err

    def test_dimension_failure_exit_code(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        .replace("solver.k = 3", "solver.k = 300"))
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 3
        assert "regularity" in err

    def test_step_size_violation_exit_code(self, tmp_path, synth_dir, capsys,
                                           monkeypatch):
        monkeypatch.setattr("mvcca.solver.SAFETY", 200.0)
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert "step size violation" in capsys.readouterr().err

    def test_arpack_failure_exit_code(self, tmp_path, synth_dir, capsys,
                                      monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr("mvcca.linalg.eigsh", no_convergence)
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED_MTX))
    def test_malformed_view_exit_code(self, tmp_path, synth_dir, capsys,
                                      name):
        (synth_dir / "view_1.mtx").write_text(MALFORMED_MTX[name],
                                              encoding="ascii")
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 4
        assert "view_1.mtx" in capsys.readouterr().err

    def test_resolved_config_fills_defaults(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 0
        echoed = (run_dir / "resolved.cfg").read_text().splitlines()
        assert "solver.eta0 = 100" in echoed
        assert "solver.sub_max_sweeps = 5" in echoed

    def test_admm_mode(self, tmp_path, synth_dir):
        # the ADMM baseline is a solver configuration, not a mode
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.sub_max_sweeps = 1\nsolver.eta0 = inf\n")
        run_dir = tmp_path / "run_admm"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 0
        assert read_echo(run_dir / "resolved.cfg")["solver.eta0"] == "inf"
        trace = Trace.from_csv(run_dir / "trace.csv", ideal=3 * 3 * 2)
        np.testing.assert_array_equal(trace.column("rho"),
                                      np.full(len(trace), 2.0))

    def test_verbose_reports_the_stop(self, tmp_path, capsys):
        # two identical orthonormal views stop early; --verbose sets INFO
        # for that call only, in one process whose test runner has its
        # own log handlers, and its line is printed once
        x = np.linalg.qr(np.random.default_rng(0).standard_normal(
            (12, 8)))[0]
        path = tmp_path / "view.mtx"
        save_matrix_market(path, sp.csr_matrix(x))
        cfg = write_cfg(tmp_path / "solve.cfg",
                        f"solver.k = 3\nsolver.seed = 1\n"
                        f"io.views = {path},{path}\n")
        out = str(tmp_path / "run")
        root = list(logging.getLogger().handlers)
        errs = []
        for flags in ([], ["--verbose"], []):
            assert main(["solve", "--config", cfg, "--out", out,
                         *flags]) == 0
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[2] == ""
        assert errs[1].count("converged at outer iteration") == 1
        # no handler stacks up, and the root logger is left alone
        assert logging.getLogger("mvcca").handlers == []
        assert logging.getLogger().handlers == root


def _zero_row_and_column(x):
    x[4] = 0.0
    x[:, 2] = 0.0


# degenerate solves on 30-row Gaussian views; view 0 is edited first.
# name: (column count per view, K, edit of view 0, exit code, stderr text)
DEGENERATE_SOLVES = {
    "zero_row_and_column": ((8, 8, 8), 2, _zero_row_and_column, 0, ""),
    "two_views": ((8, 8), 3, None, 0, ""),
    # the mean column count must reach (K+1)/2
    "k_at_regularity_bound": ((3, 3), 5, None, 0, ""),
    "k_past_regularity_bound": ((3, 3), 6, None, 3,
                                "regularity check failed"),
    # each G_i is 30 x K with orthonormal columns
    "k_past_row_count": ((16, 16), 31, None, 3,
                         "regularity check failed: row count 30 < K = 31"),
    "zero_view": ((8, 8), 2, lambda x: x.fill(0.0), 3, "empty view"),
    # X^T X overflows in the first Lanczos product, before ARPACK sees it
    "gram_overflows": ((6, 6), 2, lambda x: np.multiply(x, 1e200, out=x), 3,
                       "Gram product X^T X v for sigma_max^2 overflowed"),
}


class TestDegenerateSolves:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_SOLVES))
    def test_exit_code(self, tmp_path, capfd, name):
        cols, k, edit, code, message = DEGENERATE_SOLVES[name]
        rng = np.random.default_rng(21)
        paths = []
        for i, m in enumerate(cols):
            x = rng.standard_normal((30, m))
            if i == 0 and edit is not None:
                edit(x)
            paths.append(tmp_path / f"view_{i}.mtx")
            save_matrix_market(paths[-1], sp.csr_matrix(x))
        cfg = write_cfg(tmp_path / "solve.cfg",
                        f"solver.k = {k}\nsolver.outer_max = 20\n"
                        f"io.views = {','.join(map(str, paths))}\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg,
                     "--out", str(run_dir)]) == code
        # read at the file descriptors, where LAPACK would print too
        out, err = capfd.readouterr()
        assert message in err
        assert "On entry to" not in out + err
        if code == 0:
            for i, m in enumerate(cols):
                assert load_dense_csv(run_dir / f"Q_{i}.csv").shape == (m, k)

    def test_regularity_counts_data_columns(self, tmp_path, capfd):
        # 100 columns each, but only the 2 that hold data reach the sweeps
        rng = np.random.default_rng(22)
        paths = []
        for i in range(2):
            x = np.zeros((30, 100))
            x[:, [3, 71]] = rng.standard_normal((30, 2))
            paths.append(tmp_path / f"view_{i}.mtx")
            save_matrix_market(paths[-1], sp.csr_matrix(x))
        cfg = write_cfg(tmp_path / "solve.cfg", "solver.k = 5\n"
                        f"io.views = {','.join(map(str, paths))}\n")
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert ("regularity check failed: mean feature count 2 "
                "< (K+1)/2 = 3") in capfd.readouterr().err


class TestMetricsCommand:
    def test_report_written(self, tmp_path, synth_dir):
        solve_cfg = write_cfg(tmp_path / "solve.cfg",
                              SOLVE_CFG.format(data_dir=synth_dir))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", solve_cfg,
                     "--out", str(run_dir)]) == 0
        metrics_cfg = write_cfg(
            tmp_path / "metrics.cfg",
            f"io.data_dir = {synth_dir}\nio.run_dir = {run_dir}\n")
        out = tmp_path / "report"
        assert main(["metrics", "--config", metrics_cfg,
                     "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "total_corr_percent,metric1,metric2,time95"
        fields = lines[1].split(",")
        assert float(fields[0]) >= 90.0
        assert float(fields[1]) >= 90.0
        assert fields[2] == ""  # no outlier block in the clean regime

    def test_outlier_regime_metric2(self, tmp_path):
        cfg = write_cfg(tmp_path / "synth.cfg",
                        SYNTH_CFG + "synth.outliers = 10\n")
        data, run, out = (tmp_path / name for name in ("data", "run",
                                                        "report"))
        assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
        assert main(["solve", "--config", write_cfg(
            tmp_path / "solve.cfg", SOLVE_CFG.format(data_dir=data)),
                     "--out", str(run)]) == 0
        assert main(["metrics", "--config", write_cfg(
            tmp_path / "metrics.cfg",
            f"io.data_dir = {data}\nio.run_dir = {run}\n"),
                     "--out", str(out)]) == 0
        fields = (out / "report.csv").read_text().splitlines()[1].split(",")
        factors = [load_dense_csv(run / f"Q_{i}.csv") for i in range(3)]
        # the outlier columns follow the 40 signal columns
        assert fields[2] == fmt_value(synth.metric2(factors,
                                                    np.arange(40, 50)))

    def test_signal_line_only(self, solved, tmp_path):
        # an index set file of one line, without its newline, has no
        # outlier columns: the report of the synth's own file, metric2 empty
        data = tmp_path / "data"
        shutil.copytree(solved / "data", data)
        lines = (data / "index_sets.txt").read_text().splitlines()
        assert lines[1:] == [""]
        (data / "index_sets.txt").write_text(lines[0], encoding="ascii")
        reports = []
        for data_dir in (solved / "data", data):
            out = tmp_path / f"report_{len(reports)}"
            assert main(["metrics", "--config", write_cfg(
                tmp_path / "metrics.cfg",
                f"io.data_dir = {data_dir}\nio.run_dir = {solved / 'run'}\n"),
                         "--out", str(out)]) == 0
            reports.append((out / "report.csv").read_text())
        assert reports[1] == reports[0]
        assert reports[1].splitlines()[1].split(",")[2] == ""

    def test_missing_inputs(self, tmp_path, synth_dir):
        metrics_cfg = write_cfg(
            tmp_path / "metrics.cfg",
            f"io.data_dir = {synth_dir}\nio.run_dir = {tmp_path / 'nope'}\n")
        code, _, err = run_cli("metrics", "--config", metrics_cfg,
                               "--out", str(tmp_path / "report"))
        assert code == 4

    def test_inf_when_target_never_reached(self, tmp_path, synth_dir):
        solve_cfg = write_cfg(tmp_path / "solve.cfg",
                              SOLVE_CFG.format(data_dir=synth_dir))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", solve_cfg,
                     "--out", str(run_dir)]) == 0
        # rewrite the trace so the correlation never crosses 95%
        lines = (run_dir / "trace.csv").read_text().splitlines()
        doctored = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            fields[-1] = "0.5"
            doctored.append(",".join(fields))
        (run_dir / "trace.csv").write_text("\n".join(doctored) + "\n")
        metrics_cfg = write_cfg(
            tmp_path / "metrics.cfg",
            f"io.data_dir = {synth_dir}\nio.run_dir = {run_dir}\n")
        out = tmp_path / "report"
        assert main(["metrics", "--config", metrics_cfg,
                     "--out", str(out)]) == 0
        row = (out / "report.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "inf"


def _edit_lines(path, edit):
    lines = path.read_text(encoding="ascii").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="ascii")


def _trace_field(index, text):
    """An edit that sets one field of the trace's first data row."""
    def edit(lines):
        fields = lines[1].split(",")
        fields[index] = text
        return [lines[0], ",".join(fields)] + lines[2:]
    return edit


# file to corrupt, relative to a directory holding data/ and run/, and
# how; every case is an input file that fails to parse
BAD_INPUTS = {
    "factor_ragged": ("run/Q_1.csv", lambda ls: [ls[0].rsplit(",", 1)[0]]
                      + ls[1:]),
    "factor_nan": ("run/Q_1.csv", lambda ls: ["nan," + ls[0].split(",", 1)[1]]
                   + ls[1:]),
    "factor_rows": ("run/Q_1.csv", lambda ls: ls[:-1]),
    "factor_width": ("run/Q_1.csv", lambda ls: [line.rsplit(",", 1)[0]
                                                for line in ls]),
    "trace_header_only": ("run/trace.csv", lambda ls: ls[:1]),
    # "unexpected trace header": the rows below it would still parse
    "trace_header_renamed": ("run/trace.csv", lambda ls: [
        ls[0].replace("iter", "iteration")] + ls[1:]),
    "trace_short_row": ("run/trace.csv", lambda ls: ls[:1] + ["0,0"]),
    # int() reads "1_0" as 10, and float() reads "1_2" as 12 and takes
    # "nan", which time95 would then report
    "trace_iter_underscore": ("run/trace.csv", _trace_field(0, "1_0")),
    "trace_seconds_nan": ("run/trace.csv", _trace_field(1, "nan")),
    "trace_correlation_underscore": ("run/trace.csv",
                                     _trace_field(5, "1_2")),
    "index_sets_token": ("data/index_sets.txt", lambda ls: ["0 1 x"]
                         + ls[1:]),
    # int() reads "1_0" as 10
    "index_sets_underscore": ("data/index_sets.txt", lambda ls: ["1_0 2"]
                              + ls[1:]),
    # the views have 40 columns, all of them signal
    "index_sets_past_last": ("data/index_sets.txt", lambda ls: [ls[0] + " 40"]
                             + ls[1:]),
    "index_sets_negative": ("data/index_sets.txt", lambda ls: ["-1"]
                            + ls[1:]),
    "index_sets_duplicate": ("data/index_sets.txt", lambda ls: [ls[0] + " 0"]
                             + ls[1:]),
    "index_sets_overlap": ("data/index_sets.txt", lambda ls: [ls[0], "0"]),
    "index_sets_no_signal": ("data/index_sets.txt", lambda ls: [""]
                             + ls[1:]),
    # past int64, which an int64 array cannot hold
    "index_sets_huge": ("data/index_sets.txt", lambda ls: [
        "99999999999999999999999"] + ls[1:]),
    # the file has two lines
    "index_sets_third_line": ("data/index_sets.txt", lambda ls: ls[:2]
                              + ["foo bar"]),
}
FACTOR_CASES = [c for c in BAD_INPUTS if c.startswith("factor_")]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A synth directory and a solve of it, made once for the module."""
    root = tmp_path_factory.mktemp("solved")
    data, run = root / "data", root / "run"
    assert main(["synth", "--config", write_cfg(root / "synth.cfg",
                                                SYNTH_CFG),
                 "--out", str(data)]) == 0
    assert main(["solve", "--config", write_cfg(
        root / "solve.cfg", SOLVE_CFG.format(data_dir=data)),
                 "--out", str(run)]) == 0
    return root


@pytest.fixture(scope="module")
def help_text():
    """``mvcca --help`` as printed, taken once for the module."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "--config" in out.getvalue()
    return out.getvalue()


# documented failures of a command's config or inputs, each ending before
# the command writes anything.  name: (command, config, exit code,
# stderr text); {data} and {run} are a synth dir and a solve of it,
# {views} its view files, {empty} an empty directory and {tmp} the test's
# own directory
COMMAND_FAILURES = {
    "missing_required_key": ("solve", "io.data_dir = {data}\n", 2,
                             "missing required config key 'solver.k'"),
    "no_equals": ("solve", "solver.k 3\n", 2,
                  "line 1: expected key = value"),
    "duplicate_key": ("solve", "solver.k = 3\nsolver.k = 4\n", 2,
                      "line 2: duplicate key 'solver.k'"),
    "no_views": ("solve", "solver.k = 3\n", 2,
                 "need io.views or io.data_dir"),
    "metrics_no_run_dir": ("metrics", "io.data_dir = {data}\n", 2,
                           "metrics needs io.run_dir"),
    "metrics_no_data_dir": ("metrics",
                            "io.views = {views}\nio.run_dir = {run}\n", 2,
                            "metrics needs io.data_dir for index_sets.txt"),
    "eval_no_factors": ("eval-retrieval", "io.data_dir = {data}\n", 2,
                        "eval-retrieval needs io.factors"),
    "eval_factor_count": ("eval-retrieval", "io.data_dir = {data}\n"
                          "io.factors = {run}/Q_0.csv,{run}/Q_1.csv\n", 2,
                          "io.factors count must match view count"),
    "hash_no_text": ("hash", "retrieval.bits = 9\n", 2,
                     "hash needs io.text"),
    # a spec that no draw can meet is a config error, named by the value
    # given, not by the per-factor fill derived from it
    "synth_density_infeasible": ("synth", "synth.rows = 5\n"
                                 "synth.features = 5\nsynth.views = 2\n"
                                 "synth.density = 1e-9\n", 2,
                                 "synth.density = 1e-09: density "
                                 "infeasibly small"),
    "synth_density_missed": ("synth", "synth.rows = 10\n"
                             "synth.features = 20\nsynth.views = 3\n"
                             "synth.density = 0.02\n", 2,
                             "synth.density = 0.02: could not hit density "
                             "0.02"),
    "data_dir_missing": ("solve", "solver.k = 3\nio.data_dir = {tmp}/nope\n",
                         4, "data directory not found: {tmp}/nope"),
    "data_dir_empty": ("solve", "solver.k = 3\nio.data_dir = {empty}\n", 4,
                       "no view files found"),
    "views_blank": ("solve", "solver.k = 3\nio.views = , ,\n", 4,
                    "no view files found"),
}


class TestCommandFailures:
    @pytest.mark.parametrize("case", sorted(COMMAND_FAILURES))
    def test_exit_code(self, solved, tmp_path, capsys, case):
        command, given, code, message = COMMAND_FAILURES[case]
        (tmp_path / "empty").mkdir()
        paths = {"data": solved / "data", "run": solved / "run",
                 "views": ",".join(str(solved / "data" / f"view_{i}.mtx")
                                   for i in range(3)),
                 "empty": tmp_path / "empty", "tmp": tmp_path}
        cfg = write_cfg(tmp_path / "run.cfg", given.format(**paths))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert message.format(**paths) in capsys.readouterr().err
        assert not out.exists()


class TestOneView:
    def test_solve_and_metrics_exit_3(self, solved, tmp_path, capsys):
        # SUMCOR correlates view pairs, so a lone view is not a problem
        data = tmp_path / "data"
        data.mkdir()
        for name in ("view_0.mtx", "index_sets.txt"):
            shutil.copy(solved / "data" / name, data / name)
        cfg = write_cfg(tmp_path / "run.cfg",
                        SOLVE_CFG.format(data_dir=data)
                        + f"io.run_dir = {solved / 'run'}\n")
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3
        assert "SUMCOR needs >= 2 views, got 1" in capsys.readouterr().err
        assert main(["metrics", "--config", cfg,
                     "--out", str(tmp_path / "report")]) == 3
        assert "SUMCOR needs >= 2 views, got 1" in capsys.readouterr().err


# a view set a command cannot score or solve: Gaussian views of 8 columns
# with these row counts, each with an 8 x 2 factor.  A lone view raises
# the RegularityError that solve's lone view raises (see TestOneView).
# name: (command, row count per view, error class, exit code, stderr text)
VIEW_SET_FAILURES = {
    "metrics_one_view": ("metrics", (40,), RegularityError, 3,
                         "SUMCOR needs >= 2 views, got 1"),
    "eval_one_view": ("eval-retrieval", (40,), RegularityError, 3,
                      "SUMCOR needs >= 2 views, got 1"),
    "solve_rows_disagree": ("solve", (40, 41), InputError, 4,
                            "views disagree on row count: 40, 41"),
    "metrics_rows_disagree": ("metrics", (40, 41), InputError, 4,
                              "views disagree on row count: 40, 41"),
    "eval_rows_disagree": ("eval-retrieval", (40, 41), InputError, 4,
                           "views disagree on row count: 40, 41"),
    "eval_one_row": ("eval-retrieval", (1, 1), InputError, 4,
                     "need at least two aligned rows"),
}


class TestViewSetFailures:
    @pytest.mark.parametrize("case", sorted(VIEW_SET_FAILURES))
    def test_exit_code(self, tmp_path, capsys, case):
        command, rows, error, code, message = VIEW_SET_FAILURES[case]
        rng = np.random.default_rng(23)
        views, factors = [], []
        for i, n_rows in enumerate(rows):
            views.append(str(tmp_path / f"view_{i}.mtx"))
            save_matrix_market(views[-1],
                               sp.csr_matrix(rng.standard_normal((n_rows, 8))))
            factors.append(str(tmp_path / f"Q_{i}.csv"))
            save_dense_csv(factors[-1], rng.standard_normal((8, 2)))
        given = {"solver.k": "2", "io.views": ",".join(views),
                 "io.factors": ",".join(factors),
                 "io.run_dir": str(tmp_path / "run")}
        cfg = write_cfg(tmp_path / "run.cfg", "".join(
            f"{key} = {value}\n" for key, value in given.items()))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()
        # the exit code follows the class, which the library raises
        with pytest.raises(error, match=re.escape(message)):
            COMMANDS[command][0](RunConfig(given), out)


def test_plain_value_error_propagates(solved, tmp_path, monkeypatch):
    # a ValueError of no documented class is a bug: main does not turn it
    # into an exit code
    def broadcast_bug(views, factors):
        return np.zeros(2) + np.zeros(3)

    monkeypatch.setattr("mvcca.retrieval.evaluate_pairs", broadcast_bug)
    factors = ",".join(str(solved / "run" / f"Q_{i}.csv") for i in range(3))
    cfg = write_cfg(tmp_path / "eval.cfg",
                    f"io.data_dir = {solved / 'data'}\n"
                    f"io.factors = {factors}\n")
    with pytest.raises(ValueError, match="could not be broadcast"):
        main(["eval-retrieval", "--config", cfg,
              "--out", str(tmp_path / "eval")])


# each public error class and a base it keeps: the CLI's exit code
# follows NumericError, ConfigError or InputError, and callers that
# caught ValueError or RuntimeError still catch the same failures
ERROR_BASES = [
    *((cls, mvcca.NumericError) for cls in (
        mvcca.RankDeficiencyError, mvcca.RegularityError,
        mvcca.EmptyViewError, mvcca.StepSizeError)),
    *((cls, ValueError) for cls in (
        mvcca.RankDeficiencyError, mvcca.RegularityError,
        mvcca.EmptyViewError, mvcca.ConfigError, mvcca.InputError,
        mvcca.NumericError)),
    (mvcca.StepSizeError, RuntimeError),
]


@pytest.mark.parametrize("cls, base", ERROR_BASES,
                         ids=lambda cls: cls.__name__)
def test_error_class_base(cls, base):
    assert issubclass(cls, base)
    # defined once, in mvcca.errors; a module that exports the name
    # exports that same object
    assert cls.__module__ == "mvcca.errors"
    for module in (mvcca.errors, mvcca.solver, mvcca.linalg):
        assert getattr(module, cls.__name__, cls) is cls


# the homes the classes had before mvcca.errors still import them
@pytest.mark.parametrize("module, name", [
    ("solver", "RegularityError"), ("solver", "EmptyViewError"),
    ("solver", "StepSizeError"), ("linalg", "RankDeficiencyError"),
    ("linalg", "RegularityError")])
def test_error_class_old_home(module, name):
    assert getattr(getattr(mvcca, module), name) is getattr(mvcca.errors,
                                                             name)


class TestMalformedInputs:
    """Input files that exist but do not parse, or a view missing from a
    data dir, exit 4 and are named."""

    @staticmethod
    def corrupt(solved, tmp_path, case):
        shutil.copytree(solved / "data", tmp_path / "data")
        shutil.copytree(solved / "run", tmp_path / "run")
        name, edit = BAD_INPUTS[case]
        target = tmp_path / name
        _edit_lines(target, edit)
        return target

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_metrics(self, solved, tmp_path, capsys, case):
        target = self.corrupt(solved, tmp_path, case)
        cfg = write_cfg(tmp_path / "metrics.cfg",
                        f"io.data_dir = {tmp_path / 'data'}\n"
                        f"io.run_dir = {tmp_path / 'run'}\n")
        assert main(["metrics", "--config", cfg,
                     "--out", str(tmp_path / "report")]) == 4
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "metrics"])
    def test_missing_view(self, solved, tmp_path, capsys, command):
        # view_2 would otherwise be solved and written as the second view
        shutil.copytree(solved / "data", tmp_path / "data")
        target = tmp_path / "data" / "view_1.mtx"
        target.unlink()
        cfg = write_cfg(tmp_path / "run.cfg",
                        SOLVE_CFG.format(data_dir=tmp_path / "data")
                        + f"io.run_dir = {solved / 'run'}\n")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 4
        assert f"view file not found: {target}" in capsys.readouterr().err

    @pytest.mark.parametrize("n_views, extra_factor", [(2, False), (3, True)],
                             ids=["fewer_views", "extra_factor"])
    def test_factor_count_other_than_view_count(self, solved, tmp_path,
                                                capsys, n_views,
                                                extra_factor):
        # the trace of the run would be read against the ideal of the
        # views given
        shutil.copytree(solved / "run", tmp_path / "run")
        if extra_factor:
            shutil.copy(tmp_path / "run" / "Q_0.csv",
                        tmp_path / "run" / "Q_3.csv")
        views = ",".join(str(solved / "data" / f"view_{i}.mtx")
                         for i in range(n_views))
        cfg = write_cfg(tmp_path / "metrics.cfg",
                        f"io.views = {views}\n"
                        f"io.data_dir = {solved / 'data'}\n"
                        f"io.run_dir = {tmp_path / 'run'}\n")
        out = tmp_path / "report"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 4
        assert f"run dir {tmp_path / 'run'} holds" in capsys.readouterr().err
        assert not out.exists()

    def test_factor_gap(self, solved, tmp_path, capsys):
        # Q_0, Q_2 and Q_3 are three factors for the three views, but Q_3
        # is not the second view's: the gap is named
        shutil.copytree(solved / "run", tmp_path / "run")
        (tmp_path / "run" / "Q_1.csv").rename(tmp_path / "run" / "Q_3.csv")
        cfg = write_cfg(tmp_path / "metrics.cfg",
                        f"io.data_dir = {solved / 'data'}\n"
                        f"io.run_dir = {tmp_path / 'run'}\n")
        assert main(["metrics", "--config", cfg,
                     "--out", str(tmp_path / "report")]) == 4
        assert (f"factor file not found: {tmp_path / 'run' / 'Q_1.csv'}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_factor_without_rows(self, solved, tmp_path, capsys, text):
        # numpy warns on such a file and reads it as a 0 x 1 matrix
        shutil.copytree(solved / "run", tmp_path / "run")
        target = tmp_path / "run" / "Q_1.csv"
        target.write_text(text, encoding="ascii")
        cfg = write_cfg(tmp_path / "metrics.cfg",
                        f"io.data_dir = {solved / 'data'}\n"
                        f"io.run_dir = {tmp_path / 'run'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["metrics", "--config", cfg,
                         "--out", str(tmp_path / "report")]) == 4
        assert (f"cannot parse {target}: no rows in {target}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("case", FACTOR_CASES)
    def test_eval_retrieval(self, solved, tmp_path, capsys, case):
        target = self.corrupt(solved, tmp_path, case)
        views = ",".join(str(tmp_path / "data" / f"view_{i}.mtx")
                         for i in range(3))
        factors = ",".join(str(tmp_path / "run" / f"Q_{i}.csv")
                           for i in range(3))
        cfg = write_cfg(tmp_path / "eval.cfg",
                        f"io.views = {views}\nio.factors = {factors}\n")
        assert main(["eval-retrieval", "--config", cfg,
                     "--out", str(tmp_path / "eval")]) == 4
        assert str(target) in capsys.readouterr().err


class TestHashAndRetrievalCommands:
    def test_hash_round_trip(self, tmp_path):
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\njumps over\nthe lazy dog\n")
        cfg = write_cfg(tmp_path / "hash.cfg",
                        f"io.text = {text}\nretrieval.bits = 9\n"
                        "retrieval.hash_seed = 5\n")
        out = tmp_path / "hashed"
        assert main(["hash", "--config", cfg, "--out", str(out)]) == 0
        view = load_matrix_market(out / "hashed.mtx")
        docs = [line.split() for line in
                text.read_text().splitlines()]
        ref = hash_corpus(docs, HashSpec(bits=9, seed=5))
        assert (view.raw != ref.raw).nnz == 0

    def test_undecodable_text_exit_code(self, tmp_path, capsys):
        text = tmp_path / "docs.txt"
        text.write_bytes(b"caf\xe9 au lait\n")
        cfg = write_cfg(tmp_path / "hash.cfg", f"io.text = {text}\n")
        assert main(["hash", "--config", cfg,
                     "--out", str(tmp_path / "hashed")]) == 4
        assert str(text) in capsys.readouterr().err

    def test_empty_text_exit_code(self, tmp_path, capsys):
        text = tmp_path / "docs.txt"
        text.write_bytes(b"")
        cfg = write_cfg(tmp_path / "hash.cfg", f"io.text = {text}\n")
        assert main(["hash", "--config", cfg,
                     "--out", str(tmp_path / "hashed")]) == 4
        err = capsys.readouterr().err
        assert "empty corpus" in err and str(text) in err

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_out_of_range_hash_seed_exit_code(self, tmp_path, capsys, seed):
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\n")
        cfg = write_cfg(tmp_path / "hash.cfg",
                        f"io.text = {text}\nretrieval.hash_seed = {seed}\n")
        assert main(["hash", "--config", cfg,
                     "--out", str(tmp_path / "hashed")]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", [0, 31])
    def test_out_of_range_bits_exit_code(self, tmp_path, capsys, bits):
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\n")
        cfg = write_cfg(tmp_path / "hash.cfg",
                        f"io.text = {text}\nretrieval.bits = {bits}\n")
        out = tmp_path / "hashed"
        assert main(["hash", "--config", cfg, "--out", str(out)]) == 2
        assert "bits must be in [1, 30]" in capsys.readouterr().err
        assert not out.exists()

    # an absolute path, a step up out of --out, and an empty name (the
    # hidden file <out>/.mtx)
    @pytest.mark.parametrize("name", ["{root}/escaped", "../up", ""],
                             ids=["absolute", "parent", "empty"])
    def test_name_outside_out_rejected(self, tmp_path, capsys, name):
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\n")
        cfg = write_cfg(tmp_path / "hash.cfg",
                        f"io.text = {text}\n"
                        f"io.name = {name.format(root=tmp_path)}\n")
        out = tmp_path / "hashed"
        assert main(["hash", "--config", cfg, "--out", str(out)]) == 2
        assert "io.name" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob("*.mtx"))

    def test_eval_retrieval(self, tmp_path, synth_dir):
        solve_cfg = write_cfg(tmp_path / "solve.cfg",
                              SOLVE_CFG.format(data_dir=synth_dir))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", solve_cfg,
                     "--out", str(run_dir)]) == 0
        views = ",".join(str(synth_dir / f"view_{i}.mtx") for i in range(3))
        factors = ",".join(str(run_dir / f"Q_{i}.csv") for i in range(3))
        cfg = write_cfg(tmp_path / "eval.cfg",
                        f"io.views = {views}\nio.factors = {factors}\n")
        out = tmp_path / "eval"
        assert main(["eval-retrieval", "--config", cfg,
                     "--out", str(out)]) == 0
        lines = (out / "pairs.csv").read_text().splitlines()
        assert lines[0] == "query_view,gallery_view,aroc,nn_freq"
        assert len(lines) == 1 + 3 * 2 + 1
        assert lines[-1].startswith("avg,avg,")
        # factors were trained on these very views, retrieval should be easy
        assert float(lines[-1].split(",")[2]) >= 80.0


class TestConfigParsing:
    def test_malformed_line(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "solver.k 3\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "key = value" in err

    @pytest.mark.parametrize("content", [None, b"io.data_dir = caf\xe9\n"],
                             ids=["missing", "undecodable"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, content):
        cfg = tmp_path / "solve.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 4
        assert str(cfg) in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "solver.k = 3\nsolver.k = 4\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "duplicate" in err

    def test_missing_required_key(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "bad.cfg", f"io.data_dir = {synth_dir}\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "solver.k" in err

    def test_comments_and_blanks_ok(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "ok.cfg",
                        "# comment\n\n" + SOLVE_CFG.format(data_dir=synth_dir)
                        + "\nsolver.outer_max = 3\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2  # duplicate solver.outer_max
        cfg2 = write_cfg(tmp_path / "ok2.cfg",
                         "# comment\n\n"
                         + SOLVE_CFG.format(data_dir=synth_dir))
        assert main(["solve", "--config", cfg2,
                     "--out", str(tmp_path / "run2")]) == 0

    @pytest.mark.parametrize("reg", ["reg.kind = bogus",
                                     "reg.1.kind = bogus",
                                     "reg.lambda = -1"])
    def test_bad_penalty_is_config_error(self, tmp_path, synth_dir, reg):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir) + reg + "\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "config error" in err

    # an index that names no view of the three: out of range; a leading
    # zero or an Arabic-Indic digit is no index, so that key is unknown
    @pytest.mark.parametrize("key", ["reg.7.kind", "reg.01.kind",
                                     "reg.\u0661.kind"],
                             ids=["past_last", "leading_zero", "non_ascii"])
    def test_per_view_key_without_view_rejected(self, tmp_path, synth_dir,
                                                capsys, key):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + f"{key} = nonneg\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not run_dir.exists()

    def test_per_view_reg_keys_accepted(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "reg.kind = l1\nreg.lambda = 0.01\n"
                        + "reg.1.kind = l21\nreg.1.lambda = 0.05\n")
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 0


class TestKeysMirrorDataclasses:
    """solver.*, reg.*, synth.* and retrieval.* are the fields of
    SolverConfig, Regularizer, SynthSpec and HashSpec."""

    @staticmethod
    def check_defaults_echoed(cls, prefix, echo, given):
        for f in dataclasses.fields(cls):
            key = f"{prefix}.{f.name}"
            if f.name not in given:
                assert echo[key] == fmt_value(f.default), key

    def test_solver_defaults_echoed(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        f"solver.k = 3\nsolver.outer_max = 2\n"
                        f"io.data_dir = {synth_dir}\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 0
        self.check_defaults_echoed(SolverConfig, "solver",
                                   read_echo(run_dir / "resolved.cfg"),
                                   ("k", "outer_max"))

    def test_every_solver_field_accepted(self, tmp_path, synth_dir):
        given = {"k": 3, "outer_max": 2}
        lines = [f"solver.{f.name} = "
                 f"{fmt_value(given.get(f.name, f.default))}"
                 for f in dataclasses.fields(SolverConfig)]
        cfg = write_cfg(tmp_path / "solve.cfg", "\n".join(lines)
                        + f"\nio.data_dir = {synth_dir}\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(run_dir)]) == 0
        echo = read_echo(run_dir / "resolved.cfg")
        for line in lines:
            key, value = line.split(" = ")
            assert echo[key] == value

    def test_synth_defaults_echoed(self, tmp_path):
        cfg = write_cfg(tmp_path / "synth.cfg",
                        "synth.rows = 200\nsynth.features = 50\n"
                        "synth.views = 2\n")
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        echo = read_echo(out / "spec.cfg")
        assert echo["synth.density"] == fmt_value(1e-2)
        self.check_defaults_echoed(SynthSpec, "synth", echo,
                                   ("rows", "features", "views"))

    def test_every_synth_field_accepted(self, tmp_path):
        given = {"rows": 60, "features": 20, "views": 2, "density": 0.1}
        lines = [f"synth.{f.name} = "
                 f"{fmt_value(given.get(f.name, f.default))}"
                 for f in dataclasses.fields(SynthSpec)]
        cfg = write_cfg(tmp_path / "synth.cfg", "\n".join(lines) + "\n")
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        echo = read_echo(out / "spec.cfg")
        for line in lines:
            key, value = line.split(" = ")
            assert echo[key] == value

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_echo_reproduces_outputs(self, solved, tmp_path, command):
        # a command's echo, given back as its config, writes the same
        # bytes, the echo included: it holds every key the command reads
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\njumps over\n", encoding="utf-8")
        data, run = solved / "data", solved / "run"
        factors = ",".join(str(run / f"Q_{i}.csv") for i in range(3))
        given = {
            "synth": SYNTH_CFG + "synth.outliers = 10\n",
            "solve": SOLVE_CFG.format(data_dir=data)
            + "solver.virtual_clock = true\n"
            + "reg.kind = l21\nreg.lambda = 0.01\nreg.1.lambda = 0.02\n",
            "metrics": f"io.data_dir = {data}\nio.run_dir = {run}\n",
            "eval-retrieval": f"io.data_dir = {data}\n"
                              f"io.factors = {factors}\n",
            "hash": f"io.text = {text}\nio.name = docs\n"
                    "retrieval.bits = 9\n"}[command]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--config", write_cfg(tmp_path / "run.cfg",
                                                    given),
                     "--out", str(first)]) == 0
        assert main([command, "--config", str(first / COMMANDS[command][1]),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() \
                == (second / name).read_bytes(), name

    def test_negative_tol_feas_rejected(self, tmp_path, synth_dir):
        # tol_feas is the solver constant TOL_FEAS now, not a key
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.tol_feas = -1\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "unknown config key 'solver.tol_feas'" in err

    # power_iters, and the PDD constants and stop tolerances that are now
    # constants of mvcca.solver, are no longer knobs: a stale key (from an
    # older resolved.cfg) fails as unknown.  An integer is ASCII digits
    # with an optional sign, a float ASCII decimal or exponent form or
    # inf, and a boolean true or false, so int()'s and float()'s digit
    # groups, non-ASCII digits and other boolean spellings fail
    KNOB_CASES = {"solver.eta0 = nan": "eta0",
                  "solver.tol_change = -5": "unknown config key",
                  "solver.safety = 0": "unknown config key",
                  "solver.rho0 = 2": "unknown config key",
                  "solver.c = 0.9": "unknown config key",
                  "solver.eps0 = 0.01": "unknown config key",
                  "solver.eps_decay = 0.9": "unknown config key",
                  "solver.power_iters = 0": "unknown config key",
                  "reg.kind = l1\nreg.lambda = nan": "reg.lambda",
                  "reg.kind = l1\nreg.lambda = inf": "reg.lambda",
                  "reg.kind = elastic_l21\nreg.mu = nan": "reg.mu",
                  "reg.1.lambda = nan": "reg.1.lambda",
                  "reg.1.power = 2": "unknown config key",
                  "synth.outliers = 20\nsynth.noise_var = nan": "noise_var",
                  "synth.outliers = 20\nsynth.noise_var = inf": "noise_var",
                  "solver.seed = -1": "seed must be >= 0",
                  "synth.seed = -3": "seed must be >= 0",
                  "synth.views = 1": "views must be >= 2",
                  "solver.k = 1_0": "solver.k",
                  "solver.outer_max = \u0663": "solver.outer_max",
                  "solver.virtual_clock = yes": "solver.virtual_clock",
                  "solver.eta0 = 1_0": "solver.eta0",
                  "reg.lambda = \u0660.\u0665": "reg.lambda"}

    @pytest.mark.parametrize("line", list(KNOB_CASES))
    def test_out_of_range_knob_rejected(self, tmp_path, synth_dir, capsys,
                                        line):
        # synth.* cases run the synth command, the others a solve
        command, base = (("synth", SYNTH_CFG) if line.startswith("synth.")
                         else ("solve", SOLVE_CFG.format(data_dir=synth_dir)))
        # a key the base config sets is replaced, not set twice
        keys = {case.split(" = ")[0] for case in line.splitlines()}
        base = "".join(kept + "\n" for kept in base.splitlines()
                       if kept.split(" = ")[0] not in keys)
        cfg = write_cfg(tmp_path / "run.cfg", base + line + "\n")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert self.KNOB_CASES[line] in err

    # the key prefixes each command echoes, and the file it echoes them to
    ECHOES = {"synth": (("synth.",), "spec.cfg"),
              "solve": (("solver.", "reg.", "io."), "resolved.cfg"),
              "metrics": (("io.",), "resolved.cfg"),
              "eval-retrieval": (("io.", "retrieval."), "resolved.cfg"),
              "hash": (("io.", "retrieval."), "resolved.cfg")}

    @pytest.mark.parametrize("command", list(ECHOES))
    def test_echo_holds_exactly_the_command_keys(self, solved, tmp_path,
                                                 command):
        # one config serves all five commands; each echoes the keys under
        # its own prefixes, the given ones as cast and the others at their
        # defaults
        text = tmp_path / "docs.txt"
        text.write_text("the quick fox\njumps over\n", encoding="utf-8")
        given = {
            **dict(line.split(" = ") for line in SYNTH_CFG.splitlines()),
            "solver.k": "3", "solver.outer_max": "2", "reg.kind": "l1",
            "reg.1.lambda": "0.02", "retrieval.bits": "9",
            "io.data_dir": str(solved / "data"),
            "io.run_dir": str(solved / "run"),
            "io.factors": ",".join(str(solved / "run" / f"Q_{i}.csv")
                                   for i in range(3)),
            "io.text": str(text)}
        cfg = write_cfg(tmp_path / "all.cfg", "".join(
            f"{key} = {value}\n" for key, value in given.items()))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        prefixes, name = self.ECHOES[command]
        want = {key: fmt_value(default)
                for key, (_, default) in _BASE_KEYS.items()
                if key.startswith(prefixes)}
        want.update((key, fmt_value(value))
                    for key, value in RunConfig(given).values.items()
                    if key.startswith(prefixes))
        assert read_echo(out / name) == want

    # config key -> field of the dataclass that holds its default
    DEFAULT_FIELDS = {"reg.kind": (Regularizer, "kind"),
                      "reg.lambda": (Regularizer, "lam"),
                      "reg.mu": (Regularizer, "mu"),
                      "retrieval.bits": (HashSpec, "bits"),
                      "retrieval.hash_seed": (HashSpec, "seed")}

    @pytest.mark.parametrize("key", list(DEFAULT_FIELDS))
    def test_reg_and_retrieval_defaults_from_dataclasses(self, key):
        cls, name = self.DEFAULT_FIELDS[key]
        default = RunConfig({}).get(key)
        assert type(default) is type(getattr(cls(), name))
        assert default == getattr(cls(), name)
        # a per-view override casts as its base key
        if key.startswith("reg."):
            view_key = key.replace("reg.", "reg.2.", 1)
            value = RunConfig({view_key: "1"}).values[view_key]
            assert type(value) is type(default)

    def test_readme_key_table_lists_fields(self):
        table = README.split("### Config keys", 1)[1]
        rows = {}
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2:
                # drop "(values)" notes and the "; per-view ..." tail
                keys = re.sub(r" \(.*?\)|;.*", "", cells[1])
                rows[cells[0]] = keys.split(", ")
        for prefix in ("solver", "reg", "synth", "retrieval", "io"):
            assert rows[prefix] == [key.split(".", 1)[1] for key in _BASE_KEYS
                                    if key.startswith(prefix + ".")], prefix
        # the solver and synth keys are their dataclasses' fields
        for prefix, cls in (("solver", SolverConfig), ("synth", SynthSpec)):
            assert rows[prefix] == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("name", README_CONFIGS)
    def test_readme_configs_parse(self, tmp_path, name):
        # parse_config rejects unknown keys, so a removed key cannot
        # linger in an example
        path = tmp_path / name
        path.write_text(README_CONFIGS[name], encoding="utf-8")
        parse_config(path)

    # settings come from the config file only, and a flag has one
    # spelling: abbreviations of --config, --out and --verbose fail
    @pytest.mark.parametrize("flag", ["--threads 2", "--seed 3",
                                      "--conf {cfg}", "--ou {out}", "--verb"])
    def test_threads_flag_rejected(self, tmp_path, solved, help_text, capsys,
                                   flag):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=solved / "data"))
        out = tmp_path / "run"
        flag = flag.format(cfg=cfg, out=out)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(out),
                  *flag.split()])
        assert exc.value.code == 2
        name = flag.split()[0]
        assert name in capsys.readouterr().err
        # not listed as a flag of its own: "--conf" is part of "--config"
        assert not re.search(rf"{name}\b", help_text)
