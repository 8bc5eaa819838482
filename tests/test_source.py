"""Static checks on the library and test sources (no linter is a test
dependency)."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import sgflow

SRC = Path(sgflow.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names an import statement binds that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\n"
                     "x: Sequence[int] = []\n")
    assert _unused_imports(tree) == ["Optional (line 2)", "os (line 1)"]


def _unused_imports_under(root: Path, pattern: str) -> dict[str, list[str]]:
    found = {str(path.relative_to(root)):
             _unused_imports(ast.parse(path.read_text()))
             for path in sorted(root.glob(pattern))}
    return {name: names for name, names in found.items() if names}


def test_sgflow_has_no_unused_imports():
    assert _unused_imports_under(SRC, "*.py") == {}


def test_tests_have_no_unused_imports():
    assert _unused_imports_under(TESTS, "**/*.py") == {}


def _lines_matching(root: Path, pattern: re.Pattern, skip=()) -> list[str]:
    return [f"{path.name}:{no}" for path in sorted(root.glob("*.py"))
            if path.name not in skip
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]


# A loop over every vertex subset: exponential in n with no named budget.
VERTEX_SUBSET_SCAN = re.compile(r"1\s*<<\s*\(?\s*g\.n\b")


def test_vertex_subset_scan_pattern():
    for line in ("for mask in range(1, 1 << g.n):", "range(1 << (g.n - 1))",
                 "x = 1<<g.n"):
        assert VERTEX_SUBSET_SCAN.search(line), line
    for line in ("1 << v", "1 << g.m", "1 << g.nodes", "g.n << 1"):
        assert not VERTEX_SUBSET_SCAN.search(line), line


def test_sgflow_has_no_vertex_subset_scan():
    assert _lines_matching(SRC, VERTEX_SUBSET_SCAN) == []


# The whole graph's memoised cycle list.  A cycle question about an edge set
# goes to structures.cycles_within of that set; only the modules below still
# read the whole list.
ALL_CYCLES = re.compile(r"\ball_cycles\b")
ALL_CYCLES_READERS = ("structures.py", "decompose.py")


def test_all_cycles_scan(tmp_path):
    (tmp_path / "structures.py").write_text("def all_cycles(g):\n    pass\n")
    (tmp_path / "flows.py").write_text(
        "from .structures import (cycle_sign,\n    all_cycles)\n"
        "LIMIT = ALL_CYCLES_MEMO\nx = all_cycles_within\n"
        "y = structures.all_cycles(g)\n")
    assert _lines_matching(tmp_path, ALL_CYCLES, ALL_CYCLES_READERS) == [
        "flows.py:2", "flows.py:5"]


def test_only_structures_and_decompose_read_the_whole_cycle_list():
    assert _lines_matching(SRC, ALL_CYCLES, ALL_CYCLES_READERS) == []


# A cycle-space scan of an edge set.  The constructions read each circuit
# off a spanning tree (flows.circuit_coeffs), so cycle enumeration stays in
# the modules below, out of flows, oracle, reduce and cli.
CYCLES_WITHIN = re.compile(r"\bcycles_within\b")
CYCLES_WITHIN_READERS = ("structures.py", "decompose.py")


def test_cycles_within_scan(tmp_path):
    (tmp_path / "decompose.py").write_text("x = cycles_within(g, es)\n")
    (tmp_path / "flows.py").write_text(
        "from .structures import (cycle_sign,\n    cycles_within)\n"
        "x = reference_cycles_within\ny = all_cycles_within\n"
        "z = structures.cycles_within(g, es)\n")
    assert _lines_matching(tmp_path, CYCLES_WITHIN, CYCLES_WITHIN_READERS) \
        == ["flows.py:2", "flows.py:5"]


def test_only_structures_and_decompose_scan_cycle_spaces():
    assert _lines_matching(SRC, CYCLES_WITHIN, CYCLES_WITHIN_READERS) == []


# connect's two hypotheses are asked in one place: core.unmet_hypothesis
# reads 3-edge-connectivity and 2-unbalance off one cut labelling, for
# connect's entry check, and cubicize reads every candidate off the same
# labelling, so the separate questions, each labelling the graph again,
# stay out of flows and reduce.
SEPARATE_HYPOTHESIS_CHECKS = re.compile(
    r"\b(edge_connectivity|is_k_unbalanced)\b")
ONE_GATE_MODULES = ("flows.py", "reduce.py")


def _separate_hypothesis_checks(root: Path) -> list[str]:
    return [hit for hit in _lines_matching(root, SEPARATE_HYPOTHESIS_CHECKS)
            if hit.split(":")[0] in ONE_GATE_MODULES]


def test_separate_hypothesis_check_scan(tmp_path):
    (tmp_path / "core.py").write_text("def edge_connectivity(g):\n    pass\n")
    (tmp_path / "reduce.py").write_text(
        "from .core import (SignedGraph,\n    is_k_unbalanced)\n"
        "x = brute_edge_connectivity(g)\nok = unmet_hypothesis(g)\n"
        "y = core.edge_connectivity(g) >= 3\n")
    (tmp_path / "flows.py").write_text("k = is_k_unbalanced_twice\n")
    assert _separate_hypothesis_checks(tmp_path) == ["reduce.py:2",
                                                     "reduce.py:5"]


def test_flows_and_reduce_ask_both_hypotheses_at_once():
    assert _separate_hypothesis_checks(SRC) == []


# The constructions fix over the closure steps and around the sun that the
# decomposition checked and left on its certificate (steps and sun of
# decompose.PartitionCertificate), so flows neither scans a 2-closure nor
# reads a sun off an edge set again.
REDERIVED_DECOMPOSITION = re.compile(r"\b(k_closure|as_negative_sun)\b")


def _rederived_decomposition(root: Path) -> list[str]:
    return [hit for hit in _lines_matching(root, REDERIVED_DECOMPOSITION)
            if hit.split(":")[0] == "flows.py"]


def test_rederived_decomposition_scan(tmp_path):
    (tmp_path / "decompose.py").write_text("closure = k_closure(g, x2, 2)\n")
    (tmp_path / "flows.py").write_text(
        "from .structures import (cycle_sign,\n    k_closure)\n"
        "x = reference_k_closure\ny = k_closure_steps\nsun = part.sun\n"
        "sun = structures.as_negative_sun(g, part.f)\n")
    assert _rederived_decomposition(tmp_path) == ["flows.py:2", "flows.py:6"]


def test_flows_reads_the_closure_steps_and_the_sun_off_the_certificate():
    assert _rederived_decomposition(SRC) == []


# Refusals for scale.  Only the oracle's two budgets, on the work one search
# or one sweep does, duality's budget on the nodes of its vertex-bijection
# search, and structures.cycles_within's cycle-space dimension (ROADMAP
# item 3 removes it) raise DeskScaleError: a check on input size anywhere
# else would refuse inputs the search answers at once.
DESK_SCALE_RAISES = {("oracle.py", "_walk"), ("oracle.py", "is_A_connected"),
                     ("duality.py", "_isomorphisms"),
                     ("structures.py", "cycles_within")}
BUDGETS = re.compile(r"\b(SEARCH|SWEEP)_BUDGET\b")


def _desk_scale_raises(root: Path) -> set[tuple[str, str]]:
    """(module, top-level definition) of each raise of DeskScaleError or of
    a class derived from it."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(root.glob("*.py"))}
    kinds = {"DeskScaleError"}
    kinds.update(node.name for tree in trees.values()
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 and any(getattr(b, "id", None) in kinds for b in node.bases))
    found = set()
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                exc = getattr(node, "exc", None) \
                    if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if getattr(exc, "id", None) in kinds:
                    found.add((name, getattr(top, "name", "<module>")))
    return found


def test_desk_scale_raise_scan(tmp_path):
    (tmp_path / "oracle.py").write_text(
        "class _OverBudget(DeskScaleError):\n    pass\n\n\n"
        "def _walk(plan):\n    def dfs(d):\n"
        "        raise _OverBudget('search budget')\n")
    (tmp_path / "flows.py").write_text(
        "def z2_to_3flow(g, support, carrier):\n"
        "    if len(carrier) > 36:\n"
        "        raise DeskScaleError(f'carrier of {len(carrier)} edges')\n"
        "    raise ValueError('no flow')\n")
    assert _desk_scale_raises(tmp_path) == {("oracle.py", "_walk"),
                                            ("flows.py", "z2_to_3flow")}


def test_only_the_budgets_and_the_cycle_scan_refuse_for_scale():
    assert _desk_scale_raises(SRC) == DESK_SCALE_RAISES
    assert _lines_matching(SRC, BUDGETS, ("oracle.py",)) == []


# One orientation: boundaries, searches and constructions read every flow in
# the default orientation, which core.end_coeffs states, and the oriented
# dual walks every face in its traced direction, so no function takes an
# orientation or a face orientation.
ORIENTATION_PARAMETERS = {"tau", "face_choice"}


def _tau_parameters(root: Path) -> list[str]:
    """module:function of each function or lambda with a parameter named
    tau or face_choice."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                     + [a.vararg, a.kwarg] if x is not None]
            if ORIENTATION_PARAMETERS.intersection(names):
                found.append(f"{path.name}:{getattr(node, 'name', '<lambda>')}")
    return found


def test_tau_parameter_scan(tmp_path):
    (tmp_path / "flows.py").write_text(
        "def circulation_coeffs(g, cycle):\n    pass\n\n\n"
        "def z2_to_3flow(g, support, carrier, tau=None):\n"
        "    key = lambda *, tau: tau\n")
    (tmp_path / "duality.py").write_text(
        "def oriented_dual(eg, direction=None):\n    tau = direction\n\n\n"
        "def match_dual(eg, target, face_choice=None):\n    pass\n")
    (tmp_path / "groups.py").write_text(
        "def boundary(g, f, A, **tau):\n    tau_s = 1\n")
    assert _tau_parameters(tmp_path) == [
        "duality.py:match_dual", "flows.py:z2_to_3flow", "flows.py:<lambda>",
        "groups.py:boundary"]


def test_no_function_under_src_takes_an_orientation():
    assert _tau_parameters(SRC) == []


# The search kernel's internals stay inside oracle: the other modules reach
# it through public names such as oracle.integer_flow.
def _oracle_internals_named(root: Path) -> list[str]:
    """module:line of each oracle._x attribute, or name imported by
    ``from .oracle import _x``, outside oracle.py."""
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = getattr(node.value, "id", None) == "oracle" \
                    and node.attr.startswith("_")
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[-1] == "oracle" and any(
                    alias.name.startswith("_") for alias in node.names)
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_oracle_internals_scan(tmp_path):
    (tmp_path / "oracle.py").write_text("x = oracle._plan\n")
    (tmp_path / "flows.py").write_text(
        "from . import oracle\nfrom .oracle import integer_flow\n"
        "f = oracle._walk(oracle.integer_flow)\n"
        "from .oracle import (integer_flow,\n    _GroupCodes)\n")
    (tmp_path / "cli.py").write_text(
        "from sgflow.oracle import _plan\nx = plan._walk\n")
    assert _oracle_internals_named(tmp_path) == [
        "cli.py:1", "flows.py:3", "flows.py:4"]


def test_only_oracle_names_its_internals():
    assert _oracle_internals_named(SRC) == []


# One breadth-first search: core.shortest_path and core.simple_paths read
# their queue or level by index, so a queue popped from the front, a list's
# pop(0) or a deque, or a list that a loop over it appends to, is a second
# path search outside core.
def _grows_while_read(node: ast.For) -> bool:
    """A for loop over a name whose body appends to or extends that name."""
    return isinstance(node.iter, ast.Name) and any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("append", "extend")
        and getattr(call.func.value, "id", None) == node.iter.id
        for stmt in node.body for call in ast.walk(stmt))


def _front_pops(root: Path) -> list[str]:
    """module:line of each .pop(0) call, each deque import or attribute and
    each for loop over a list it grows, outside core.py."""
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                hit = (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "pop" and len(node.args) == 1
                       and getattr(node.args[0], "value", None) == 0)
            elif isinstance(node, ast.ImportFrom):
                hit = any(alias.name == "deque" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                hit = node.attr == "deque"
            elif isinstance(node, ast.For):
                hit = _grows_while_read(node)
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_front_pop_scan(tmp_path):
    (tmp_path / "core.py").write_text(
        "from collections import deque\nx = queue.pop(0)\n")
    (tmp_path / "structures.py").write_text(
        "while queue:\n    a = queue.pop(0)\n"
        "b = stack.pop()\nc = seen.pop(1)\nd = table.pop(0, None)\n")
    (tmp_path / "flows.py").write_text(
        "import collections\nfrom collections import (Counter,\n    deque)\n"
        "q = collections.deque([0])\nx = 'deque'\n")
    assert _front_pops(tmp_path) == ["flows.py:2", "flows.py:4",
                                     "structures.py:2"]


def test_growing_list_loop_scan(tmp_path):
    (tmp_path / "core.py").write_text(
        "for x in queue:\n    queue.append(x + 1)\n")
    (tmp_path / "planarity.py").write_text(
        "for x in comp:\n    if x:\n        comp.append(x)\n"
        "for x in comp:\n    other.append(x)\n"
        "for x in queue:\n    for y in adj[x]:\n        queue.extend(y)\n"
        "for x in self.queue:\n    self.queue.append(x)\n"
        "for x in list(comp):\n    comp.append(x)\n"
        "for x in comp:\n    pass\nelse:\n    comp.append(0)\n")
    assert _front_pops(tmp_path) == ["planarity.py:1", "planarity.py:6"]


def test_only_core_searches_breadth_first():
    assert _front_pops(SRC) == []


# One lowpoint search: core._blocks lists the blocks for planarity and for
# the 2-connectivity of an edge set, so a table of lowpoints or discovery
# indices outside core is a second one.
def _is_table(node: ast.AST) -> bool:
    """A list or dict display or comprehension, or a list times a count."""
    if isinstance(node, ast.BinOp):
        return _is_table(node.left) or _is_table(node.right)
    return isinstance(node, (ast.List, ast.ListComp, ast.Dict, ast.DictComp))


def _bindings(target: ast.AST, value: ast.AST):
    """Each (name, value) pair an assignment binds, tuples paired off."""
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        for t, v in zip(target.elts, value.elts):
            yield from _bindings(t, v)
    else:
        yield target, value


def _lowpoint_tables(root: Path) -> list[str]:
    """module:line of each table assigned to a name low or disc, outside
    core.py."""
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if any(getattr(t, "id", None) in ("low", "disc") and _is_table(v)
                   for target in targets
                   for t, v in _bindings(target, node.value)):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_lowpoint_table_scan(tmp_path):
    (tmp_path / "core.py").write_text("disc = [-1] * n\nlow = [0] * n\n")
    (tmp_path / "planarity.py").write_text(
        "low = mask & -mask\ndisc: list[int] = [-1] * n\n"
        "low = {v: 0 for v in adj}\nx, low = 1, [0 for _ in adj]\n"
        "lows = [0] * n\n")
    (tmp_path / "decompose.py").write_text(
        "disc, low = [-1] * n, [0] * n\nlow = x\n")
    assert _lowpoint_tables(tmp_path) == [
        "decompose.py:1", "planarity.py:2", "planarity.py:3",
        "planarity.py:4"]


def test_only_core_searches_for_lowpoints():
    assert _lowpoint_tables(SRC) == []


def _imports_of(root: Path, module: str) -> list[str]:
    """module:line of each import of the named top-level module."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


# Every sg process starts cold: importing dataclasses (with inspect, ast
# and dis) and running its decorators cost more than the records they
# write, so the library writes its records by hand.
def test_dataclasses_import_scan(tmp_path):
    (tmp_path / "core.py").write_text("import itertools, dataclasses\n")
    (tmp_path / "flows.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f():\n    import dataclasses as dc\n"
        "from .dataclasses import record\nimport mydataclasses\n"
        "x = 'dataclasses'\n")
    assert _imports_of(tmp_path, "dataclasses") == ["core.py:1", "flows.py:1",
                                                    "flows.py:3"]


def test_sgflow_imports_no_dataclasses():
    assert _imports_of(SRC, "dataclasses") == []


# The library has no runtime dependency: planarity is tested in-repo, and
# networkx is only the tests' reference for it.
def test_networkx_import_scan(tmp_path):
    (tmp_path / "decompose.py").write_text(
        "def plane(g):\n    import networkx as nx\n    return nx\n"
        "from networkx.algorithms import planarity\n"
        "from .networkx import shim\nx = 'networkx'\n")
    (tmp_path / "planarity.py").write_text("import sys, networkx.utils\n")
    assert _imports_of(tmp_path, "networkx") == ["decompose.py:2",
                                                 "decompose.py:4",
                                                 "planarity.py:1"]


def test_sgflow_imports_no_networkx():
    assert _imports_of(SRC, "networkx") == []


# Exact arithmetic only: group elements, signs and embeddings are integers,
# so a float under src/ is a rounding tolerance that nothing needs.
def _float_uses(root: Path) -> list[str]:
    """module:line of each import of math and each float literal."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] == "math"
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = not node.level and node.module == "math"
            else:
                hit = isinstance(node, ast.Constant) \
                    and isinstance(node.value, float)
            if hit:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_float_scan(tmp_path):
    (tmp_path / "duality.py").write_text(
        '"""Tolerance 1e-6 in a docstring."""\nimport itertools, math\n'
        "PHI = (1 + 5 ** 0.5) / 2\nd = abs(x - 4.0) < 1e-6\n"
        "from .math import det\nn = 10 ** 6 // 3\n")
    (tmp_path / "groups.py").write_text("from math import gcd\nx = '0.5'\n")
    assert _float_uses(tmp_path) == ["duality.py:2", "duality.py:3",
                                     "duality.py:4", "duality.py:4",
                                     "groups.py:1"]


def test_sgflow_has_no_floats():
    assert _float_uses(SRC) == []


def test_benchmark_tracer_names_resolve():
    # the benchmark's per-layer tracer looks each span up by name, so a
    # renamed or deleted function would break its --trace 1 runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.SPANS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"sgflow.{layer}"), name, None))]
    assert missing == []


# Definitions under src/ that nothing in src/ or perfbench/ names, on purpose.
UNREFERENCED_ALLOWED = {
    "__version__": "package metadata, read by tools rather than by code",
}


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, and the methods of
    top-level classes; methods named __x__ are hooks the language calls."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            out.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            out += [m.name for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def _names_read(tree: ast.Module) -> Counter:
    """Every name read, attribute and imported name, and the words of every
    string that is not a docstring (the benchmark's tracer looks functions
    up by strings)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"\w+", node.value))
    return out


def _unreferenced(defining: list[ast.Module], reading: list[ast.Module]
                  ) -> list[str]:
    read: Counter = Counter()
    for tree in reading:
        read.update(_names_read(tree))
    return sorted({name for tree in defining for name in _definitions(tree)
                   if not read[name]})


def test_unreferenced_definition_scan_sees_an_unused_name():
    lib = ast.parse('"""Doc naming unused."""\nLIMIT = 3\nSPARE = 4\n\n\n'
                    "def used():\n    return LIMIT\n\n\n"
                    "def unused():\n    return used()\n\n\n"
                    "class Box:\n    def __len__(self):\n        return 0\n\n"
                    "    def size(self):\n        return 1\n")
    user = ast.parse('SPANS = ("Box",)\n')
    assert _unreferenced([lib], [lib, user]) == ["SPARE", "size", "unused"]


def test_every_definition_under_src_is_named_in_src_or_perfbench():
    lib = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text())
             for path in sorted(PERFBENCH.glob("*.py"))]
    assert _unreferenced(lib, lib + bench) == sorted(UNREFERENCED_ALLOWED)
