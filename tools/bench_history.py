"""The benchmark's trajectory: one row per change in BENCH_history.json.

Each row holds a change's number, the commit its numbers were measured
on, and per workload and end-to-end metric the parent's and the change's
median and the verdict, as a `perfbench/run.py --compare` table gives them.

    python3 tools/bench_history.py append PR COMMIT TABLE
        read the --compare table in the file TABLE ("-" for standard
        input) and append its row for change PR, measured on COMMIT

    python3 tools/bench_history.py backfill
        rewrite the file from CHANGES.md: one row per table there, the
        change being the table's entry (the n-th line that starts with
        "- " is change n) and the commit the one `git blame` names for
        the table's header, plus the medians below that CHANGES.md states
        in prose only

Run from the repository root.  Numbers are in the units of the table (s,
1/s, MB); a row's source says whether it came from a table or from prose.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.json"
CHANGES = ROOT / "CHANGES.md"
ABOUT = ("Benchmark medians per change (python3 tools/bench_history.py): for"
         " each workload and end-to-end metric, the parent's and the"
         " change's median over alternating perfbench/run.py pairs and the"
         " --compare verdict.")
# workload, metric, then per side: median [q1, q3] unit n=pairs; won, verdict
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+) \[\S+, \S+\] (\S+) n=\d+\s+"
                 r"(\S+) \[\S+, \S+\] \S+ n=\d+\s+\d+% (\w+)\s*$")
# medians CHANGES.md states in prose, for a change with no table of them:
# (change, commit, workload, metric, unit, parent, change, verdict)
PROSE = [
    (27, "a34f83e", "connect-cubic", "throughput_ops_s", "1/s", 286.0, 351.0,
     "better"),
]


def parse_table(text: str) -> dict:
    """{workload: {metric: {unit, parent, change, verdict}}} from the rows
    of a --compare table; ValueError if there are none."""
    out: dict = {}
    for line in text.splitlines():
        m = ROW.match(line)
        if m:
            workload, metric, parent, unit, change, verdict = m.groups()
            out.setdefault(workload, {})[metric] = {
                "unit": unit, "parent": float(parent),
                "change": float(change), "verdict": verdict}
    if not out:
        raise ValueError("no --compare table row found")
    return out


def load() -> dict:
    return json.loads(HISTORY.read_text(encoding="utf-8"))


def save(history: dict) -> None:
    """One row a line, so that a change adds one line."""
    rows = ",\n".join(json.dumps(row) for row in history["rows"])
    HISTORY.write_text(f'{{"about": {json.dumps(history["about"])},\n'
                       f'"rows": [\n{rows}\n]}}\n', encoding="utf-8")


def append(pr: int, commit: str, table: str) -> None:
    history = load()
    if history["rows"] and history["rows"][-1]["pr"] >= pr:
        raise ValueError(f"change {pr} does not follow change"
                         f" {history['rows'][-1]['pr']}")
    history["rows"].append({"pr": pr, "commit": commit, "source": "table",
                            "metrics": parse_table(table)})
    save(history)


def changes_tables() -> list[tuple[int, str, str]]:
    """(change, commit, table) for each table in CHANGES.md."""
    blame = subprocess.run(["git", "blame", "--line-porcelain", str(CHANGES)],
                           cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    lines, commit = [], None
    for line in blame:
        if re.match(r"[0-9a-f]{40} ", line):
            commit = line[:7]
        elif line.startswith("\t"):
            lines.append((commit, line[1:]))
    out, entry, table = [], 0, None
    for commit, text in lines:
        if table is not None:
            if text.startswith("```"):
                out.append((entry, table[0], "\n".join(table[1])))
                table = None
            else:
                table[1].append(text)
        elif text.startswith("- "):
            entry += 1
        elif text.startswith("workload ") and "verdict" in text:
            table = (commit, [])
    return out


def backfill() -> None:
    rows = {pr: {"pr": pr, "commit": commit, "source": "table",
                 "metrics": parse_table(table)}
            for pr, commit, table in changes_tables()}
    for pr, commit, workload, metric, unit, parent, change, verdict in PROSE:
        row = rows.setdefault(pr, {"pr": pr, "commit": commit,
                                   "source": "prose", "metrics": {}})
        row["metrics"].setdefault(workload, {})[metric] = {
            "unit": unit, "parent": parent, "change": change,
            "verdict": verdict}
    save({"about": ABOUT, "rows": [rows[pr] for pr in sorted(rows)]})


def main(argv: list[str]) -> int:
    if argv == ["backfill"]:
        backfill()
        return 0
    if len(argv) == 4 and argv[0] == "append":
        _, pr, commit, path = argv
        table = sys.stdin.read() if path == "-" else Path(path).read_text()
        append(int(pr), commit, table)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
