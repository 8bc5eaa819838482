"""End-to-end CLI behavior: exit codes, report formats, piping, errors."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sgflow
from helpers import CUBIC_GRAPHS, doubled_k4_bridge, joined_prisms, \
    orientable_double_cover, renumbered, theorem_instances
from sgflow import core, decompose, flows, oracle
from sgflow.cli import main
from sgflow.core import MINUS, PLUS, SignedGraph, format_sg, parse_sg
from sgflow.duality import format_emb, k6_projective_embedding
from sgflow.generators import GENERATORS, k4, k4_negative_triangle, \
    negsun, petersen, petersen_2neg, random_cubic_3connected
from sgflow.groups import parse_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.sg"):
    path = tmp_path / name
    path.write_text(format_sg(g))
    return str(path)


def test_gen_and_check_balance(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "negsun", "4")
    assert code == 0
    path = tmp_path / "negsun.sg"
    path.write_text(out)
    code, out, _ = run(capsys, "check", "balance", str(path))
    assert code == 1
    assert out.startswith("unbalanced negative-cycle")


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_gen_writes_the_generator_table_graph(capsys, name):
    code, out, _ = run(capsys, "gen", name)
    assert code == 0
    assert out == format_sg(GENERATORS[name]())


def test_check_balance_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_sg(negsun(4))))
    code, out, _ = run(capsys, "check", "balance")
    assert code == 1 and "unbalanced" in out


def test_check_connectivity_and_unbalancedness(tmp_path, capsys):
    path = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "check", "connectivity", path)
    assert code == 0 and "edge-connectivity 3" in out
    code, out, _ = run(capsys, "check", "unbalanced", path)
    assert code == 0 and "2-unbalanced yes" in out
    code, out, _ = run(capsys, "check", "cyclic-connectivity", path)
    assert code == 0
    # exact up to 4, as min-negative-edges is up to 2
    k7 = SignedGraph(7, tuple((u, v, PLUS) for u in range(7)
                              for v in range(u + 1, 7)))
    path = write_graph(tmp_path, k7, "k7.sg")
    assert run(capsys, "check", "connectivity", path) == (
        0, "edge-connectivity >4\n", "")


@pytest.mark.parametrize("graph,label,two,code", [
    (GENERATORS["petersen-ps"](), ">2", "yes", 0),
    (petersen_2neg(), "2", "yes", 0),
    (k4_negative_triangle(), "2", "yes", 0),
    (negsun(4), "1", "no", 1),
    (k4(), "0", "no", 1),
])
def test_check_unbalanced_report(tmp_path, capsys, graph, label, two, code):
    # frustration index exactly 2 is 2-unbalanced
    path = write_graph(tmp_path, graph)
    assert run(capsys, "check", "unbalanced", path) == (
        code, f"min-negative-edges {label}\n2-unbalanced {two}\n", "")


def test_check_unbalanced_labels_the_graph_once(tmp_path, capsys,
                                                monkeypatch):
    # is_k_unbalanced after min_negative_edges used to label it again
    labelled = []
    cut_labels = core._cut_labels

    def spy(g):
        labelled.append(g)
        return cut_labels(g)

    monkeypatch.setattr(core, "_cut_labels", spy)
    path = write_graph(tmp_path, petersen_2neg())
    code, _, _ = run(capsys, "check", "unbalanced", path)
    assert (code, len(labelled)) == (0, 1)


def test_closure_report(tmp_path, capsys):
    g = petersen(all_positive=True)
    path = write_graph(tmp_path, g)
    seeds = ",".join(str(e + 1) for e in range(g.m) if e != 14)
    code, out, _ = run(capsys, "closure", "--k", "2",
                       "--seed-edges", seeds, path)
    assert code == 0
    assert out.splitlines()[0] == "closure 15 of 15"


@pytest.mark.parametrize("seeds, where", [
    ("1,x", "--seed-edges entry 2: 'x' is not an integer"),
    ("3 1 16", "--seed-edges entry 3: edge 16 out of range 1..15"),
])
def test_closure_names_a_bad_seed_edge(tmp_path, capsys, seeds, where):
    path = write_graph(tmp_path, petersen())
    code, out, err = run(capsys, "closure", "--k", "2", "--seed-edges", seeds,
                         path)
    assert (code, out, err) == (2, "", f"error: {where}\n")


def test_decompose_then_verify_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen_2neg())
    code, out, _ = run(capsys, "decompose", "base-sun", gpath)
    assert code == 0
    cpath = tmp_path / "cert.txt"
    cpath.write_text(out)
    code, out, _ = run(capsys, "verify", str(cpath), gpath)
    assert code == 0 and out.strip() == "OK"


def test_verify_accepts_the_empty_spanning_tree_of_one_vertex(tmp_path,
                                                             capsys):
    gpath = write_graph(tmp_path, SignedGraph(1, ((0, 0, MINUS),
                                                  (0, 0, PLUS))))
    cpath = tmp_path / "cert.txt"
    for x1, x2, want in (("", "1 2", (0, "OK")),
                         ("1", "2", (1, "FAIL X1 not spanning tree"))):
        cpath.write_text(f"part tree-2base\nX1: {x1}\nX2: {x2}\nF:\n")
        code, out, _ = run(capsys, "verify", str(cpath), gpath)
        assert (code, out.strip()) == want


def test_connect_then_verify_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "connect", "--group", "Z6", gpath)
    assert code == 0
    assert out.startswith("cert composite")
    cpath = tmp_path / "cert.txt"
    cpath.write_text(out)
    code, out, _ = run(capsys, "verify", str(cpath), gpath)
    assert code == 0 and out.strip() == "OK"


def test_connect_with_projective_hint(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    epath = tmp_path / "k6.emb"
    epath.write_text(format_emb(k6_projective_embedding()))
    code, out, _ = run(capsys, "connect", "--group", "Z6",
                       "--hint", f"projective:{epath}", gpath)
    assert code == 0 and out.startswith("cert projective")


@pytest.mark.parametrize("name", ["k4-negtri", "petersen-2neg"])
def test_connect_with_a_hint_whose_dual_is_not_the_graph_exits_2(
        tmp_path, capsys, name):
    # K4's dual would need 4 vertices, not 10; the 2-negative Petersen graph
    # is the dual's underlying graph in another switching class
    code, out, _ = run(capsys, "gen", name)
    gpath = tmp_path / "g.sg"
    gpath.write_text(out)
    epath = tmp_path / "k6.emb"
    epath.write_text(format_emb(k6_projective_embedding()))
    code, out, err = run(capsys, "connect", "--group", "Z6",
                         "--hint", f"projective:{epath}", str(gpath))
    assert (code, out) == (2, "")
    assert err == ("error: no face orientation/relabelling matches the"
                   " target\n")


def test_connect_with_a_hint_past_the_search_budget_exits_3(
        tmp_path, capsys):
    # the icosahedron's dual, the dodecahedron, is not this cubic graph on
    # 20 vertices; under this edge numbering saying so takes 539 721 search
    # nodes, several times the budget, which proves nothing either way
    eg = renumbered(orientable_double_cover(k6_projective_embedding()),
                    random.Random(37))
    gpath = write_graph(tmp_path, random_cubic_3connected(20, random.Random(0)))
    epath = tmp_path / "ico.emb"
    epath.write_text(format_emb(eg))
    code, out, err = run(capsys, "connect", "--group", "Z6",
                         "--hint", f"projective:{epath}", gpath)
    assert (code, out) == (3, "")
    assert err == ("desk-scale limit: vertex-bijection search past its"
                   " budget of 65536 nodes\n")


def test_decompose_general_rejects_a_3_cut_before_listing_cycles(
        tmp_path, capsys):
    gpath = write_graph(tmp_path, joined_prisms(11))
    code, out, err = run(capsys, "decompose", "general", gpath)
    assert (code, out) == (2, "")
    assert err == "error: graph is not cyclically 4-edge-connected\n"


def test_decompose_general_exits_2_on_a_short_positive_cycle(
        tmp_path, capsys):
    # K3,3 always has a positive 4-cycle; the decomposition gets stuck on
    # it, and names it as bad input rather than as an internal error
    gpath = write_graph(tmp_path, random_cubic_3connected(6, random.Random(0)))
    code, out, err = run(capsys, "decompose", "general", gpath)
    assert (code, out) == (2, "")
    assert err.startswith("error: positive cycle of length 4: edges ")
    assert "precondition violated" in err


def test_connect_reports_unsat_with_exit_1(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "connect", "--group", "Z5", gpath)
    assert code == 1 and "unsat" in out
    cpath = tmp_path / "cert.txt"
    cpath.write_text(out)
    code, out, _ = run(capsys, "verify", str(cpath), gpath)
    assert code == 0 and out.strip() == "OK"


def test_oracle_k_flow_on_petersen(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "oracle", "k-flow", "--k", "5", gpath)
    assert code == 1 and "UNSAT" in out
    code, out, _ = run(capsys, "oracle", "k-flow", "--k", "6", gpath)
    assert code == 0 and out.startswith("flow")


@pytest.mark.parametrize("k", ["0", "1"])
def test_oracle_k_flow_below_two_without_edges(tmp_path, capsys, k):
    # the empty map is a flow there; it used to print UNSAT and exit 1
    gpath = write_graph(tmp_path, SignedGraph(2, ()))
    code, out, _ = run(capsys, "oracle", "k-flow", "--k", k, gpath)
    assert (code, out) == (0, "flow\n")


def test_oracle_a_connected_exact(tmp_path, capsys):
    gpath = write_graph(tmp_path, k4_negative_triangle())
    code, out, _ = run(capsys, "oracle", "a-connected", "--group", "Z6", gpath)
    assert code == 0
    assert "a-connected yes checked 648" in out


def test_oracle_a_connected_exact_on_the_prism(tmp_path, capsys):
    # 6^5 * 3 = 23328 boundaries, out of reach of one search per boundary
    prism = theorem_instances(CUBIC_GRAPHS["prism"])[0]
    gpath = write_graph(tmp_path, prism)
    code, out, _ = run(capsys, "oracle", "a-connected", "--group", "Z6", gpath)
    assert code == 0
    assert out == "a-connected yes checked 23328\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_sampling_needs_at_least_one_sample(tmp_path, capsys, samples):
    # it used to print "a-connected sampled-yes checked 0" and exit 0
    gpath = write_graph(tmp_path, petersen())
    code, out, err = run(capsys, "oracle", "a-connected", "--group", "Z6",
                         "--samples", samples, gpath)
    assert (code, out) == (2, "") and "at least 1 sample" in err


@pytest.mark.parametrize("argv, flag", [
    (("a-connected", "--group", "Z6", "--seed", "7"), "--seed"),
    (("a-connected", "--group", "Z6", "--k", "4"), "--k"),
    (("nz-flow", "--group", "Z6", "--samples", "5"), "--samples"),
    (("nz-flow", "--group", "Z6", "--seed", "0"), "--seed"),
    (("k-flow", "--k", "4", "--group", "Z6"), "--group"),
    (("k-flow", "--k", "4", "--samples", "5", "--seed", "1"), "--samples"),
])
def test_oracle_refuses_a_flag_its_query_does_not_read(tmp_path, capsys,
                                                        argv, flag):
    # each ran without the flag and exited 0 or 1: exact mode for --seed
    # alone, one search for nz-flow's --samples, k-flow with no group
    gpath = write_graph(tmp_path, k4_negative_triangle())
    code, out, err = run(capsys, "oracle", *argv, gpath)
    assert (code, out) == (2, "") and flag in err


def test_oracle_sampling_seeds_0_by_default(tmp_path, capsys):
    # Petersen is not Z4-connected: the first pair of seed 0 fails, and its
    # witness of 25 values would differ under another seed
    gpath = write_graph(tmp_path, petersen())
    argv = ("oracle", "a-connected", "--group", "Z4", "--samples", "20")
    code, out, _ = run(capsys, *argv, gpath)
    assert code == 1 and out.startswith("a-connected no checked 1\n")
    assert run(capsys, *argv, "--seed", "0", gpath) == (code, out, "")


def test_oracle_respects_desk_scale_limit(tmp_path, capsys, monkeypatch):
    gpath = write_graph(tmp_path, petersen())
    code, _, err = run(capsys, "oracle", "a-connected", "--group", "Z7", gpath)
    assert code == 3 and "desk-scale limit" in err and "sweep budget" in err
    # the bridge's "no" takes 30 305 free branchings over Z5
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 1000)
    gpath = write_graph(tmp_path, doubled_k4_bridge(), "bridge.sg")
    code, _, err = run(capsys, "oracle", "nz-flow", "--group", "Z5", gpath)
    assert code == 3 and "search budget of 1000" in err


def test_connect_reports_an_unverified_fallback_flow(tmp_path, capsys,
                                                     monkeypatch):
    # a non-flow from the search is an internal error, never a certificate
    monkeypatch.setattr(oracle, "satisfy_boundary",
                        lambda g, A, beta, **kwargs: [(1,)] * g.m)
    gpath = write_graph(tmp_path, petersen())
    code, out, err = run(capsys, "connect", "--group", "Z5", gpath)
    assert (code, out) == (4, "")
    assert "internal error: oracle flow failed to verify" in err


def test_dual_command(tmp_path, capsys):
    epath = tmp_path / "k6.emb"
    epath.write_text(format_emb(k6_projective_embedding()))
    code, out, _ = run(capsys, "dual", str(epath))
    assert code == 0
    g = parse_sg(out)
    assert g.n == 10 and g.m == 15


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("sg 3 1\ne 1 9 +\n")
    code, _, err = run(capsys, "check", "balance", str(bad))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("command, name, text", [
    ("check balance", "neg.sg", "sg -1 0\n"),  # used to print "balanced"
    ("check balance", "sign.sg", "sg 2 1\ne 1 2 +-\n"),
    ("dual", "bare.emb", "emb plane 1 0\nr\n"),  # used to exit 1
])
def test_malformed_graph_and_embedding_files_exit_2(tmp_path, capsys, command,
                                                    name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "") and err.startswith("error: line ")


@pytest.mark.parametrize("head", ["emb projective 6 99999999999",
                                  "emb projective 99999999999 15"])
def test_an_embedding_header_past_its_records_exits_2(tmp_path, capsys, head):
    # the header's counts used to size lists before any record was read,
    # and the MemoryError exited 1
    path = tmp_path / "big.emb"
    lines = format_emb(k6_projective_embedding()).splitlines()
    path.write_text("\n".join([head] + lines[1:]) + "\n")
    code, out, err = run(capsys, "dual", str(path))
    assert (code, out) == (2, "") and err.startswith("error: ") \
        and "count mismatch: header says 99999999999" in err


def test_running_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(sgflow.cli, "_cmd_check", exhausted)
    path = write_graph(tmp_path, negsun(4))
    code, out, err = run(capsys, "check", "balance", path)
    assert (code, out, err) == (3, "", "desk-scale limit: out of memory\n")


def test_internal_errors_exit_4_and_hypothesis_refusals_exit_2(
        tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, negsun(4))
    code, _, err = run(capsys, "connect", "--group", "Z6", path)
    assert code == 2 and err.startswith("error: ") \
        and "not 3-edge-connected" in err

    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(sgflow.cli, "_cmd_check", broken)
    code, out, err = run(capsys, "check", "balance", path)
    assert (code, out, err) == (4, "", "internal error: invariant broken\n")

    # Petersen has a positive 5-cycle, a precondition decompose_general
    # reports only for bad input; a broken invariant stays a bug.  The
    # decomposition checks its certificate through verify_partition's
    # checks, against the one closure scan it keeps the steps of
    monkeypatch.setattr(sgflow.decompose, "_check_partition",
                        lambda g, cert, closure: (False, "forced"))
    ppath = write_graph(tmp_path, petersen(), "petersen.sg")
    code, out, err = run(capsys, "decompose", "general", ppath)
    assert (code, out, err) == (
        4, "", "internal error: internal invariant breach: forced\n")


def test_unknown_group_exits_2(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, _, err = run(capsys, "connect", "--group", "D4", gpath)
    assert code == 2 and "error" in err


def test_gen_output_is_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "petersen-ps")
    code, out2, _ = run(capsys, "gen", "petersen-ps")
    assert code == 0 and out1 == out2


def _cert_and_graph(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "connect", "--group", "Z6", gpath)
    assert code == 0
    return out.splitlines(), gpath


def _verify_lines(tmp_path, capsys, lines, gpath):
    cpath = tmp_path / "bad.cert"
    cpath.write_text("\n".join(lines) + "\n")
    return run(capsys, "verify", str(cpath), gpath)


def test_verify_exits_2_on_duplicate_certificate_line(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("fbar 2 "))
    code, _, err = _verify_lines(tmp_path, capsys,
                                 lines[:i + 1] + [lines[i]] + lines[i + 1:], gpath)
    assert code == 2 and f"line {i + 2}" in err


def test_verify_exits_2_on_missing_certificate_line(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    for prefix in ("fbar 2 ", "f 2 ", "f 15 "):
        i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        code, _, err = _verify_lines(tmp_path, capsys, lines[:i] + lines[i + 1:], gpath)
        assert code == 2 and "error: line" in err


def test_verify_exits_2_on_flow_past_the_last_edge(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    code, _, err = _verify_lines(tmp_path, capsys, lines + ["f 16 1"], gpath)
    assert code == 2 and f"line {len(lines) + 1}" in err


def test_verify_exits_2_on_value_outside_the_group(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("fbar 4 "))
    lines[i] = "fbar 4 7"
    code, _, err = _verify_lines(tmp_path, capsys, lines, gpath)
    assert code == 2 and f"line {i + 1}" in err


@pytest.mark.parametrize("value", ["0", "99", "-3"])
def test_verify_exits_2_on_eprime_outside_the_edges(tmp_path, capsys, value):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    i = lines.index("eprime -")
    lines[i] = f"eprime {value}"
    code, _, err = _verify_lines(tmp_path, capsys, lines, gpath)
    assert code == 2 and f"error: line {i + 1}: eprime {value}" in err
    lines[i] = "eprime 15"
    code, out, _ = _verify_lines(tmp_path, capsys, lines, gpath)
    assert (code, out.strip()) == (0, "OK")


def test_decompose_base_sun_names_the_balanced_cut_first(tmp_path, capsys):
    # Petersen with one negative edge fails both of the prime route's
    # checks: its negative cycles all run through that edge, and the side
    # without one of its ends is balanced.  The polynomial cut check runs
    # first, so its message is the one printed.
    g = petersen(all_positive=True)
    g = g.with_signs([MINUS] + [PLUS] * (g.m - 1))
    assert decompose.has_two_disjoint_cycles(g, want_negative=True) is None
    code, out, err = run(capsys, "decompose", "base-sun",
                         write_graph(tmp_path, g))
    assert (code, out, err) == (
        2, "", "error: hypothesis violated: balanced side"
               " [0, 2, 3, 4, 5, 6, 7, 8, 9] of a 3-edge-cut\n")


def _partition_lines(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen_2neg())
    code, out, _ = run(capsys, "decompose", "base-sun", gpath)
    assert code == 0
    return out.splitlines(), gpath


@pytest.mark.parametrize("record,index", [("F:", "0"), ("X1:", "-3")])
def test_verify_exits_2_on_partition_index_below_1(tmp_path, capsys, record,
                                                   index):
    # an index of 0 used to parse to -1, which Python reads as the last edge
    lines, gpath = _partition_lines(tmp_path, capsys)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(record))
    lines[i] = lines[i].replace(record, f"{record} {index}", 1)
    code, _, err = _verify_lines(tmp_path, capsys, lines, gpath)
    assert code == 2 and f"error: line {i + 1}:" in err
    assert f"edge index {index} is below 1" in err


def test_verify_fails_on_a_partition_edge_past_the_last(tmp_path, capsys):
    # F: 16 on a 15-edge graph used to crash in as_negative_sun
    lines, gpath = _partition_lines(tmp_path, capsys)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("F:"))
    lines[i] = "F: 16 " + lines[i].split(None, 2)[2]
    code, out, _ = _verify_lines(tmp_path, capsys, lines, gpath)
    assert (code, out.strip()) == (1, "FAIL F not inside E")


def _tree_2base_lines(tmp_path, capsys):
    gpath = write_graph(tmp_path, GENERATORS["petersen-ps"]())
    code, out, _ = run(capsys, "decompose", "tree-2base", gpath)
    assert code == 0
    return out.splitlines(), gpath


def test_verify_fails_a_tree_2base_certificate_with_edges_in_f(tmp_path,
                                                               capsys):
    # a tree-2base partition protects no edges: F: 1 2 3 used to verify OK
    lines, gpath = _tree_2base_lines(tmp_path, capsys)
    assert lines[3].strip() == "F:"
    lines[3] = "F: 1 2 3"
    code, out, _ = _verify_lines(tmp_path, capsys, lines, gpath)
    assert (code, out.strip()) == (1, "FAIL F not empty")


def test_verify_exits_2_on_a_repeated_partition_record(tmp_path, capsys):
    # the last X1: line used to win
    lines, gpath = _tree_2base_lines(tmp_path, capsys)
    code, _, err = _verify_lines(tmp_path, capsys, lines + [lines[1]], gpath)
    assert code == 2 and "error: line 5:" in err
    assert "X1: already given on line 2" in err


def test_verify_exits_2_on_a_repeated_partition_index(tmp_path, capsys):
    # repeats used to fold into a set: X2: 1 1 1 2 3 4 5 11 verified OK
    lines, gpath = _tree_2base_lines(tmp_path, capsys)
    assert lines[2] == "X2: 1 2 3 4 5 11"
    lines[2] = "X2: 1 1 1 2 3 4 5 11"
    code, _, err = _verify_lines(tmp_path, capsys, lines, gpath)
    assert code == 2 and "error: line 3:" in err
    assert "edge 1 listed twice" in err


def test_verify_skips_an_indented_comment_in_a_partition(tmp_path, capsys):
    # '  # x' used to be read as the unknown record '#'
    lines, gpath = _tree_2base_lines(tmp_path, capsys)
    lines.insert(2, "  # x")
    code, out, _ = _verify_lines(tmp_path, capsys, lines, gpath)
    assert (code, out.strip()) == (0, "OK")


@pytest.mark.parametrize("kind", ["partition", "avoidance"])
def test_verify_reads_the_format_past_leading_comments(tmp_path, capsys,
                                                       kind):
    # a certificate that began with a comment used to exit 2 with
    # "unrecognized certificate header '#'"
    if kind == "partition":
        lines, gpath = _tree_2base_lines(tmp_path, capsys)
    else:
        lines, gpath = _cert_and_graph(tmp_path, capsys)
    code, out, _ = _verify_lines(tmp_path, capsys,
                                 ["# note", "", "  #indented"] + lines, gpath)
    assert (code, out.strip()) == (0, "OK")


@pytest.mark.parametrize("extra", ["cert prime", "group Z7", "eprime 15"])
def test_verify_exits_2_on_a_repeated_header_line(tmp_path, capsys, extra):
    # the last cert, group or eprime line used to win
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    key = extra.split()[0]
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    code, _, err = _verify_lines(tmp_path, capsys, lines + [extra], gpath)
    assert code == 2 and f"error: line {len(lines) + 1}:" in err
    assert f"{key} already given on line {i + 1}" in err


def test_verify_exits_2_on_a_repeated_aux_key(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("aux phi1 "))
    code, _, err = _verify_lines(tmp_path, capsys, lines + ["aux phi1 junk"],
                                 gpath)
    assert code == 2 and f"error: line {len(lines) + 1}:" in err
    assert f"aux phi1 already given on line {i + 1}" in err


def _unsat_lines(tmp_path, capsys):
    gpath = write_graph(tmp_path, petersen())
    code, out, _ = run(capsys, "connect", "--group", "Z5", gpath)
    assert code == 1 and "unsat" in out.splitlines()
    return out.splitlines(), gpath


def test_verify_exits_2_on_a_repeated_unsat_line(tmp_path, capsys):
    lines, gpath = _unsat_lines(tmp_path, capsys)
    i = lines.index("unsat")
    code, _, err = _verify_lines(tmp_path, capsys, lines + ["unsat"], gpath)
    assert code == 2 and f"error: line {len(lines) + 1}:" in err
    assert f"unsat already given on line {i + 1}" in err


def test_verify_exits_2_on_f_lines_in_an_unsat_certificate(tmp_path, capsys):
    # the f lines used to be parsed and dropped, and verify printed FAIL
    lines, gpath = _unsat_lines(tmp_path, capsys)
    i = lines.index("unsat")
    flow = [f"f {e + 1} 0" for e in range(15)]
    code, _, err = _verify_lines(tmp_path, capsys,
                                 lines[:i + 1] + flow + lines[i + 1:], gpath)
    assert code == 2 and f"error: line {i + 2}: f line" in err
    assert f"says unsat on line {i + 1}" in err


def test_verify_exits_2_on_certificate_for_fewer_edges(tmp_path, capsys):
    lines, gpath = _cert_and_graph(tmp_path, capsys)
    kept = [ln for ln in lines if not ln.startswith(("fbar 15 ", "f 15 "))]
    code, _, err = _verify_lines(tmp_path, capsys, kept, gpath)
    assert code == 2 and "size mismatch" in err


def test_cli_import_leaves_networkx_unloaded():
    src = Path(sgflow.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sgflow.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def _sg_in_a_fresh_process(*argv: str) -> tuple[int, str, set[str]]:
    """Exit code, standard output and loaded sgflow modules (named without
    the package prefix, and "networkx" if it was loaded) of cli.main(argv)
    run in a new interpreter."""
    src = Path(sgflow.__file__).resolve().parent.parent
    script = ("import contextlib, io, json, sys\n"
              "from sgflow import cli\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "mods = [m.rpartition('.')[2] for m in sys.modules\n"
              "        if m.split('.')[0] == 'sgflow' or m == 'networkx']\n"
              "print(json.dumps([code, out.getvalue(), mods]))\n")
    res = subprocess.run([sys.executable, "-c", script, *argv],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    code, out, mods = json.loads(res.stdout)
    return code, out, set(mods)


# what every command loads: the parser lists generators.GENERATORS
CLI_BASE = {"sgflow", "cli", "core", "generators"}


@pytest.fixture
def cli_files(tmp_path):
    """Graphs, an embedding and one certificate of each kind, as files."""
    files = {"petersen": write_graph(tmp_path, petersen()),
             "petersen_2neg": write_graph(tmp_path, petersen_2neg(),
                                          "p2.sg"),
             "k4_negtri": write_graph(tmp_path, k4_negative_triangle(),
                                      "k4n.sg"),
             "k6": tmp_path / "k6.emb"}
    files["k6"].write_text(format_emb(k6_projective_embedding()))
    A = parse_group("Z6")
    made = {"flow": flows.connect(petersen(), A, [A.zero] * 15),
            "unsat": flows.connect(petersen(), parse_group("Z5"),
                                   [(0,)] * 15)}
    for kind, cert in made.items():
        files[kind] = tmp_path / f"{kind}.cert"
        files[kind].write_text(flows.format_avoidance(cert))
    files["part"] = tmp_path / "part.cert"
    files["part"].write_text(decompose.format_certificate(
        decompose.decompose_base_sun(petersen_2neg())))
    return {key: str(path) for key, path in files.items()}


@pytest.mark.parametrize("argv, code, extra", [
    (("gen", "petersen-ps"), 0, set()),
    (("check", "balance", "{petersen}"), 1, set()),
    (("oracle", "k-flow", "--k", "4", "{petersen}"), 1, {"oracle", "groups"}),
    # an avoidance certificate lives in groups
    (("verify", "{flow}", "{petersen}"), 0, {"groups"}),
    (("verify", "{unsat}", "{petersen}"), 0, {"groups", "oracle"}),
    # decompose reads its cycles from structures
    (("verify", "{part}", "{petersen_2neg}"), 0,
     {"decompose", "structures"}),
], ids=["gen", "check", "oracle", "verify-flow", "verify-unsat",
        "verify-part"])
def test_each_command_loads_only_what_it_runs(cli_files, argv, code, extra):
    got, _, mods = _sg_in_a_fresh_process(
        *(a.format(**cli_files) for a in argv))
    assert (got, mods) == (code, CLI_BASE | extra)


@pytest.mark.parametrize("argv, head", [
    (("connect", "--group", "Z11", "{petersen_2neg}"), "cert prime"),
    (("decompose", "base-sun", "{petersen_2neg}"), "part base-sun"),
], ids=["connect-prime", "decompose-base-sun"])
def test_the_cut_check_tests_planarity_without_networkx(cli_files, argv,
                                                        head):
    # petersen-2neg's 4-edge cut has a side of 8 vertices and 10 edges that
    # counting cannot settle, so the planarity test runs; networkx, its
    # test reference, stays unloaded
    code, out, mods = _sg_in_a_fresh_process(
        *(a.format(**cli_files) for a in argv))
    assert code == 0 and out.startswith(head)
    assert "planarity" in mods and "networkx" not in mods


def _imported_by_sg(*argv: str) -> set[str]:
    """Modules that ``python -X importtime -m sgflow.cli argv`` imports once
    site has loaded: the command line that starts each benchmarked sg
    process."""
    src = Path(sgflow.__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sgflow.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert res.returncode in (0, 1), res.stderr
    names = [line.rpartition("|")[2].strip()
             for line in res.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("site") + 1:])


# dataclasses (with inspect, ast, dis and tokenize) would cost a cold sg
# process more than the records it writes
@pytest.mark.parametrize("argv", [
    ("gen", "petersen-ps"),
    ("connect", "--group", "Z6", "{petersen}"),
    ("verify", "{flow}", "{petersen}"),
    ("oracle", "a-connected", "--group", "Z6", "{k4_negtri}"),
    ("oracle", "k-flow", "--k", "4", "{petersen}"),
    ("oracle", "nz-flow", "--group", "Z6", "{petersen}"),
], ids=["gen", "connect", "verify", "a-connected", "k-flow", "nz-flow"])
def test_cold_sg_imports_neither_dataclasses_nor_inspect(cli_files, argv):
    mods = _imported_by_sg(*(a.format(**cli_files) for a in argv))
    assert "sgflow.core" in mods
    assert mods & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("hint", [False, True], ids=["plain", "hint"])
def test_connect_in_a_fresh_process_builds_a_verifying_certificate(
        cli_files, tmp_path, capsys, hint):
    argv = ["connect", "--group", "Z6", cli_files["petersen"]]
    if hint:
        argv[3:3] = ["--hint", f"projective:{cli_files['k6']}"]
    code, out, mods = _sg_in_a_fresh_process(*argv)
    # duality loads only for the projective route the hint asks for
    assert code == 0 and "flows" in mods and ("duality" in mods) == hint
    assert out.startswith("cert projective" if hint else "cert composite")
    cpath = tmp_path / "made.cert"
    cpath.write_text(out)
    assert run(capsys, "verify", str(cpath), cli_files["petersen"]) == \
        (0, "OK\n", "")
