"""Golden certificates: connect must reproduce every recorded certificate
byte for byte (tests/golden/make_golden.py wrote them)."""

from pathlib import Path

import pytest

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
