import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mvcca.cli import fmt_value, main
from mvcca.linalg import load_dense_csv, load_matrix_market
from mvcca.retrieval import HashSpec, hash_corpus
from mvcca.solver import SolverConfig, Trace
from mvcca.synth import SynthSpec
from test_linalg import MALFORMED_MTX


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
        assert trace.percents()[-1] >= 90.0
        assert (run_dir / "resolved.cfg").exists()

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

    def test_step_size_violation_exit_code(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.safety = 200.0\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 3
        assert "step size violation" in err

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
        assert "solver.rho0 = 2" in echoed
        assert "solver.c = 0.90000000000000002" in echoed

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

    def test_seed_flag_overrides(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.virtual_clock = true\n")
        run_a = tmp_path / "ra"
        run_b = tmp_path / "rb"
        assert main(["solve", "--config", cfg, "--out", str(run_a),
                     "--seed", "99"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(run_b)]) == 0
        a = (run_a / "trace.csv").read_bytes()
        b = (run_b / "trace.csv").read_bytes()
        assert a != b


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
    "trace_short_row": ("run/trace.csv", lambda ls: ls[:1] + ["0,0"]),
    "index_sets_token": ("data/index_sets.txt", lambda ls: ["0 1 x"]
                         + ls[1:]),
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


class TestMalformedInputs:
    """Input files that exist but do not parse exit 4 and are named."""

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

    def test_per_view_reg_keys_accepted(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "reg.kind = l1\nreg.lambda = 0.01\n"
                        + "reg.1.kind = l21\nreg.1.lambda = 0.05\n")
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 0


class TestKeysMirrorDataclasses:
    """solver.* and synth.* are the fields of SolverConfig and SynthSpec."""

    @staticmethod
    def check_defaults_echoed(cls, prefix, echo, given):
        for f in dataclasses.fields(cls):
            key = f"{prefix}.{f.name}"
            if f.name in given:
                continue
            if f.default is None:
                assert key not in echo
            else:
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
        given = {"k": 3, "outer_max": 2, "tol_feas": 1e-3}
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

    def test_resolved_config_reproduces_trace(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.virtual_clock = true\n"
                        + "reg.kind = l21\nreg.lambda = 0.01\n"
                        + "reg.1.lambda = 0.02\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["solve", "--config", cfg, "--out", str(first)]) == 0
        assert "solver.tol_feas" not in read_echo(first / "resolved.cfg")
        assert main(["solve", "--config", str(first / "resolved.cfg"),
                     "--out", str(second)]) == 0
        for name in ("trace.csv", "resolved.cfg", "Q_1.csv", "G_1.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_negative_tol_feas_rejected(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir)
                        + "solver.tol_feas = -1\n")
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "tol_feas" in err

    # power_iters is no longer a knob: a stale key fails as unknown
    KNOB_CASES = {"solver.eta0 = nan": "eta0",
                  "solver.tol_change = -5": "tol_change",
                  "solver.safety = 0": "safety",
                  "solver.power_iters = 0": "unknown config key"}

    @pytest.mark.parametrize("line", list(KNOB_CASES))
    def test_out_of_range_knob_rejected(self, tmp_path, synth_dir, capsys,
                                        line):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir) + line + "\n")
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert self.KNOB_CASES[line] in err

    def test_readme_key_table_lists_fields(self):
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config keys", 1)[1]
        rows = {}
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2:
                rows[cells[0]] = cells[1].split(", ")
        for prefix, cls in (("solver", SolverConfig), ("synth", SynthSpec)):
            assert rows[prefix] == [f.name for f in dataclasses.fields(cls)]

    def test_threads_flag_rejected(self, tmp_path, synth_dir):
        cfg = write_cfg(tmp_path / "solve.cfg",
                        SOLVE_CFG.format(data_dir=synth_dir))
        code, _, err = run_cli("solve", "--config", cfg,
                               "--out", str(tmp_path / "run"),
                               "--threads", "2")
        assert code == 2
        assert "--threads" in err
