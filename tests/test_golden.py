"""Golden certificates: connect must reproduce every recorded certificate
byte for byte, and the exact searches every pinned witness
(tests/golden/make_golden.py wrote both)."""

import json
import shutil
from pathlib import Path

import pytest

from golden.make_golden import GRAPHS, as_json, check, oracle_call

from sgflow.core import parse_sg
from sgflow.duality import k6_projective_embedding
from sgflow.flows import (connect, format_avoidance, parse_avoidance,
                          verify_avoidance)
from sgflow.groups import boundary, integer_boundary, parse_group

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


@pytest.mark.parametrize("name", CASES)
def test_every_golden_certificate_verifies(name):
    g = parse_sg((GOLDEN / f"{name}.sg").read_text())
    cert = parse_avoidance((GOLDEN / f"{name}.cert").read_text())
    assert verify_avoidance(g, cert)


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


FLOWS = [i for i, rec in enumerate(WITNESSES)
         if rec["call"] != "is_A_connected" and rec["result"] is not None]


@pytest.mark.parametrize("index", FLOWS)
def test_every_pinned_flow_meets_its_call(index):
    # checked by boundary arithmetic alone, not by the search that found it
    rec = WITNESSES[index]
    g = GRAPHS[rec["graph"]]()
    f = rec["result"]
    assert len(f) == g.m
    if rec["call"] == "has_nz_k_flow":
        assert integer_boundary(g, f) == [0] * g.n
        assert all(1 <= abs(x) <= rec["k"] - 1 for x in f)
        return
    if rec["call"] == "z2_to_3flow":
        assert integer_boundary(g, f) == [0] * g.n
        sup, car = set(rec["support"]), set(rec["carrier"])
        assert all(abs(x) == 1 if e in sup else abs(x) <= 2 if e in car
                   else x == 0 for e, x in enumerate(f))
        return
    A = parse_group(rec["group"])
    f = [tuple(x) for x in f]
    beta = ([A.zero] * g.n if rec["call"] == "has_nz_A_flow"
            else [tuple(x) for x in rec["beta"]])
    assert boundary(g, f, A) == beta
    if rec.get("fbar") is not None:
        assert all(x != tuple(y) for x, y in zip(f, rec["fbar"]))
    if not rec.get("allow_zero"):
        assert A.zero not in f


def test_make_golden_check_lists_every_difference(tmp_path, capsys):
    corpus = tmp_path / "golden"
    shutil.copytree(GOLDEN, corpus,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert check(corpus) == 0
    with open(corpus / "petersen-Z6.cert", "a") as f:
        f.write("\n")
    (corpus / "cubic8-0-Z6.sg").unlink()
    (corpus / "stray.cert").write_text("")
    capsys.readouterr()
    assert check(corpus) == 1
    assert capsys.readouterr().out.splitlines() == [
        "changed: petersen-Z6.cert", "missing: cubic8-0-Z6.sg",
        "extra: stray.cert"]
