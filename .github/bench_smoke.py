"""Check the last stdout line of ``bench/run.py`` for a smoke run.

Usage: ``python3 bench/run.py ... | python3 .github/bench_smoke.py [COND ...]``

``bench/run.py`` exits 0 whatever it measured; its last line is a JSON
record that says whether the outputs were correct and how many
operations failed.  The run passes when ``correct`` is true, ``failed``
is 0 and every condition holds.  A condition is ``NAME<=OTHER`` or
``NAME>OTHER``, where NAME is a metric of the record and OTHER a metric
or a number.
"""

import json
import operator
import re
import sys

OPS = {"<=": operator.le, ">": operator.gt}


def main(argv: list[str]) -> int:
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        print("bench smoke failed: no output", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    failed = []
    if record["correct"] is not True or record["failed"] != 0:
        failed.append(f"correct={record['correct']} "
                      f"failed={record['failed']}")
    for cond in argv:
        name, op, other = re.fullmatch(r"([\w.]+)(<=|>)([\w.]+)",
                                       cond).groups()
        rhs = metrics[other] if other in metrics else float(other)
        if not OPS[op](metrics[name], rhs):
            failed.append(f"{cond}: {metrics[name]} vs {rhs}")
    if failed:
        print("bench smoke failed: " + "; ".join(failed) + f"\n{record}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
