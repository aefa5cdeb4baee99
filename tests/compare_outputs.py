"""Compare the outputs of this checkout's qme with those of another revision.

Usage (from the root of the repository):

    python tests/compare_outputs.py REV

REV's ``src`` is exported with ``git archive`` into a temporary directory,
removed afterwards.  Both sources then run, each in a fresh interpreter,
the six bundled scenarios and the three benchmark scenarios at seeds 11-20,
generated by ``perfbench/workloads.scenario_bytes`` of this checkout.  Every
``states.csv``, ``diagnostics.csv`` and ``summary.json`` (less its
``wall_time_s`` line, the one line that may change from run to run) whose
bytes differ is listed, and the script exits 1 if any do, 0 otherwise.  A
CSV that differs is listed with the size of its move: the largest
|this - other| / max(1, |other|) over its numeric cells, and the column
where it is, so that a move at rounding can be told from a real one.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("states.csv", "diagnostics.csv", "summary.json")
WORKLOADS = ("chain", "jumps_dense", "oracle_boson")
SEEDS = range(11, 21)

#: Runs every scenario named on the command line into out/<name>.
RUNNER = """
import sys
from pathlib import Path
from qme.cli import bundled_scenarios, run
out, scenarios = Path(sys.argv[1]), sys.argv[2:]
for scenario in scenarios:
    code = run(scenario, out_dir=str(out / Path(scenario).stem), quiet=True)
    if code not in (0, 2):
        sys.exit(f"{scenario}: exit {code}")
"""


def _run(src: Path, out: Path, scenarios: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", RUNNER, str(out), *scenarios], env=env, check=True)


def _content(path: Path) -> bytes | None:
    if not path.exists():
        return None
    data = path.read_bytes()
    if path.name == "summary.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"wall_time_s"'))
    return data


def _move(this: bytes, other: bytes) -> str:
    """The largest |this - other| / max(1, |other|) over the cells of two
    CSVs, with its column, or why they cannot be compared cell by cell."""
    rows = [list(csv.reader(io.StringIO(data.decode()))) for data in (this, other)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]] or rows[0][:1] != rows[1][:1]:
        return "shape or header differs"
    worst, where = 0.0, None
    for new_row, old_row in zip(rows[0][1:], rows[1][1:]):
        for column, new, old in zip(rows[0][0], new_row, old_row):
            if new == old:
                continue
            try:
                a, b = float(new), float(old)
            except ValueError:
                return f"{column}: {old!r} -> {new!r}"
            move = abs(a - b) / max(1.0, abs(b))
            if not move <= worst:  # a NaN move is the largest
                worst, where = move, column
    return f"largest move {worst:.2g} in column {where}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import scenario_bytes

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenarios = sorted(p.stem for p in (ROOT / "src" / "qme" / "scenarios").glob("*.json"))
        for name in WORKLOADS:
            for seed in SEEDS:
                path = tmp / "scenarios" / f"{name}_{seed}.json"
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(scenario_bytes(name, seed))
                scenarios.append(str(path))
        other = tmp / "other"
        other.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive, check=True)
        _run(other / "src", tmp / "out_other", scenarios)
        _run(ROOT / "src", tmp / "out_this", scenarios)
        differ = []
        for scenario in scenarios:
            name = Path(scenario).stem
            for output in OUTPUTS:
                old = _content(tmp / "out_other" / name / output)
                new = _content(tmp / "out_this" / name / output)
                if old != new:
                    sized = output.endswith(".csv") and old is not None and new is not None
                    differ.append(f"{name}/{output}" + (f": {_move(new, old)}" if sized else ""))
    for item in differ:
        print(f"differs: {item}")
    print(f"{len(scenarios)} scenarios, {len(differ)} of {len(scenarios) * len(OUTPUTS)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
