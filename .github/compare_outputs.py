"""Compare two output trees of ``.github/virtual_clock_pipeline.sh``.

Usage: ``python3 .github/compare_outputs.py A B``

The trees must hold the same files, each byte-equal, with two
exceptions.  ``Q_*.csv`` and ``G_*.csv`` are compared by value: their
parsed float64 bit patterns must be equal, so a number spelled two ways
(``0.1`` and ``1E-1``) passes and a one-ulp change does not.  In
``trace.csv`` every column but ``lagrangian`` is compared as text, and
``lagrangian`` must agree to 1e-12 relative, since it is a sum whose
round-off depends on the order of its terms.  Exits 0 and prints the
file count and the largest relative ``lagrangian`` difference, or exits
1 and names the first difference.
"""

import struct
import sys
from pathlib import Path

LAGRANGIAN_RTOL = 1e-12


class Differs(Exception):
    pass


def _files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file())


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="ascii").splitlines()


def _bits(field: str) -> bytes:
    return struct.pack("<d", float(field))


def _compare_factors(a: Path, b: Path, name: str) -> None:
    rows_a, rows_b = _lines(a), _lines(b)
    if len(rows_a) != len(rows_b):
        raise Differs(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if len(fields_a) != len(fields_b):
            raise Differs(f"{name} row {r}: {len(fields_a)} columns "
                          f"against {len(fields_b)}")
        for c, (x, y) in enumerate(zip(fields_a, fields_b), 1):
            if _bits(x) != _bits(y):
                raise Differs(f"{name} row {r} column {c}: {x} != {y}")


def _compare_trace(a: Path, b: Path, name: str) -> float:
    """The largest relative ``lagrangian`` difference of two traces."""
    rows_a, rows_b = _lines(a), _lines(b)
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        raise Differs(f"{name}: header or row count differs")
    col = rows_a[0].split(",").index("lagrangian")
    worst = 0.0
    for r, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), 1):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        x, y = float(fields_a.pop(col)), float(fields_b.pop(col))
        if fields_a != fields_b:
            raise Differs(f"{name} row {r}: {row_a} != {row_b}")
        rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        if not rel <= LAGRANGIAN_RTOL:
            raise Differs(f"{name} row {r}: lagrangian {x!r} against "
                          f"{y!r}, relative difference {rel:.3g}")
        worst = max(worst, rel)
    return worst


def compare(a: Path, b: Path) -> tuple[int, float]:
    """File count and largest relative ``lagrangian`` difference of two
    equal trees; raises :class:`Differs` at the first difference."""
    files = _files(a)
    if files != _files(b):
        only = sorted(set(files) ^ set(_files(b)))
        raise Differs(f"file sets differ: {only[0]} is on one side only")
    worst = 0.0
    for name in files:
        fa, fb = a / name, b / name
        base = Path(name).name
        if base.endswith(".csv") and base[:2] in ("Q_", "G_"):
            _compare_factors(fa, fb, name)
        elif base == "trace.csv":
            worst = max(worst, _compare_trace(fa, fb, name))
        elif fa.read_bytes() != fb.read_bytes():
            raise Differs(f"{name}: bytes differ")
    return len(files), worst


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        count, worst = compare(Path(argv[0]), Path(argv[1]))
    except Differs as exc:
        print(f"outputs differ: {exc}", file=sys.stderr)
        return 1
    print(f"{count} files equal; largest relative lagrangian difference "
          f"{worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
