"""The parent-against-change checker of virtual_clock pipeline trees."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / ".github" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

TRACE = ("iter,seconds,rho,primal_residual,lagrangian,total_correlation\n"
         "0,0,2,3.5,{l0!r},0\n"
         "1,1,2,0.25,{l1!r},11.5\n")
LAGRANGIAN = (7.25, -1.2107394663189766)


def write_tree(root: Path, q="0.1,-0\n1.5,2\n",
               lagrangian=LAGRANGIAN) -> Path:
    run = root / "run_l1"
    run.mkdir(parents=True)
    (run / "Q_0.csv").write_text(q, encoding="ascii")
    (run / "G_0.csv").write_text("0.6,0.8\n", encoding="ascii")
    (run / "trace.csv").write_text(
        TRACE.format(l0=lagrangian[0], l1=lagrangian[1]), encoding="ascii")
    (root / "report_l1").mkdir()
    (root / "report_l1" / "report.csv").write_text("metric1\n0.5\n",
                                                   encoding="ascii")
    return root


def run(a, b, capsys):
    code = compare_outputs.main([str(a), str(b)])
    out, err = capsys.readouterr()
    return code, out + err


def test_identical_trees_pass(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    code, text = run(a, b, capsys)
    assert code == 0 and text.startswith("4 files equal")


def test_respelled_equal_value_passes(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", q="1E-1,-0.0\n1.5E0,2.\n")
    assert run(a, b, capsys)[0] == 0


def test_one_ulp_factor_change_fails(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b",
                   q=f"{float(np.nextafter(0.1, 1.0))!r},-0\n1.5,2\n")
    code, text = run(a, b, capsys)
    assert code == 1 and "run_l1/Q_0.csv row 1 column 1" in text


def test_sign_of_zero_counts(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", q="0.1,0\n1.5,2\n")
    assert run(a, b, capsys)[0] == 1


@pytest.mark.parametrize("rel, code", [(1e-15, 0), (1e-9, 1)])
def test_lagrangian_tolerance(tmp_path, capsys, rel, code):
    a = write_tree(tmp_path / "a")
    moved = (LAGRANGIAN[0], LAGRANGIAN[1] * (1.0 + rel))
    b = write_tree(tmp_path / "b", lagrangian=moved)
    got, text = run(a, b, capsys)
    assert got == code
    if code:
        assert "run_l1/trace.csv row 2: lagrangian" in text


def test_other_trace_column_compared_as_text(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    trace = b / "run_l1" / "trace.csv"
    trace.write_text(trace.read_text().replace(",0.25,", ",2.5E-1,"))
    code, text = run(a, b, capsys)
    assert code == 1 and "run_l1/trace.csv row 2" in text


def test_missing_file_fails(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    shutil.rmtree(b / "report_l1")
    code, text = run(a, b, capsys)
    assert code == 1 and "report_l1/report.csv" in text


def test_other_file_compared_as_bytes(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    (b / "report_l1" / "report.csv").write_text("metric1\n5E-1\n")
    code, text = run(a, b, capsys)
    assert code == 1 and "report_l1/report.csv: bytes differ" in text
