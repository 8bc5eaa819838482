"""Golden certificates: connect must reproduce every recorded certificate
byte for byte, and the exact searches every pinned witness
(tests/golden/make_golden.py wrote both)."""

import json
from pathlib import Path

import pytest

from golden.make_golden import as_json, oracle_call

from sgflow.core import parse_sg
from sgflow.duality import k6_projective_embedding
from sgflow.flows import connect, format_avoidance, parse_avoidance

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cert"))


def test_golden_corpus_is_present():
    assert len(CASES) >= 20


@pytest.mark.parametrize("name", CASES)
def test_connect_reproduces_golden_certificate(name):
    g = parse_sg((GOLDEN / f"{name}.sg").read_text())
    want = (GOLDEN / f"{name}.cert").read_text()
    recorded = parse_avoidance(want)
    hint = k6_projective_embedding() if name.startswith("k6hint-") else None
    cert = connect(g, recorded.group, recorded.fbar, embedding=hint)
    assert format_avoidance(cert) == want


WITNESSES = json.loads((GOLDEN / "oracle_witnesses.json").read_text())


def test_oracle_witness_file_covers_every_search():
    calls = {rec["call"] for rec in WITNESSES}
    assert calls == {"has_nz_A_flow", "has_nz_k_flow", "satisfy_boundary",
                     "z2_to_3flow", "is_A_connected"}
    assert any(rec.get("allow_zero") for rec in WITNESSES)
    assert any(rec["result"] is None for rec in WITNESSES)
    verdicts = {rec["result"]["status"] for rec in WITNESSES
                if rec["call"] == "is_A_connected"}
    assert verdicts == {"yes", "no"}


@pytest.mark.parametrize("index", range(len(WITNESSES)))
def test_oracle_reproduces_pinned_witness(index):
    rec = WITNESSES[index]
    assert as_json(oracle_call(rec)) == rec["result"]
