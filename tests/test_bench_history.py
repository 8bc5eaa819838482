"""The benchmark's trajectory file, BENCH_history.json, as
tools/bench_history.py writes it: one row per change."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_history", ROOT / "tools" / "bench_history.py")
bench_history = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_history)
HISTORY = json.loads((ROOT / "BENCH_history.json").read_text())
VERDICTS = {"better", "worse", "unchanged", "unresolved"}


def test_every_row_has_its_fields():
    assert set(HISTORY) == {"about", "rows"} and HISTORY["rows"]
    for row in HISTORY["rows"]:
        assert set(row) == {"pr", "commit", "source", "metrics"}, row["pr"]
        assert isinstance(row["pr"], int)
        assert re.fullmatch(r"[0-9a-f]{7,40}", row["commit"])
        assert row["source"] in ("table", "prose")
        assert row["metrics"]
        for metrics in row["metrics"].values():
            assert metrics
            for m in metrics.values():
                assert set(m) == {"unit", "parent", "change", "verdict"}
                assert isinstance(m["parent"], float)
                assert isinstance(m["change"], float)
                assert m["verdict"] in VERDICTS


def test_change_numbers_increase():
    prs = [row["pr"] for row in HISTORY["rows"]]
    assert prs == sorted(set(prs))


def test_every_compare_table_in_changes_has_a_row():
    text = (ROOT / "CHANGES.md").read_text()
    tables = len(re.findall(r"^workload +metric +parent median", text,
                            re.MULTILINE))
    assert tables == sum(row["source"] == "table" for row in HISTORY["rows"])


def test_a_compare_row_parses_to_its_medians_and_verdict():
    table = ("workload          metric                          parent median"
             " [q1, q3]               change median [q1, q3]   won verdict\n"
             "oracle-exact      throughput_ops_s         354.8 [340.9, 359.4]"
             " 1/s n=10          471.1 [459, 475.3] 1/s n=10  100% better\n")
    assert bench_history.parse_table(table) == {"oracle-exact": {
        "throughput_ops_s": {"unit": "1/s", "parent": 354.8, "change": 471.1,
                             "verdict": "better"}}}
