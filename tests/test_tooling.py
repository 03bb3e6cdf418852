"""The benchmark's tracer hooks minvec by name; every name must resolve.
The package holds only code that a CLI run reaches, or that is named below
with the reason it stays."""

import ast
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, REPO
from oracles import torus_closure_oracle

from minvec import testfunc
from minvec.datafiles import load_query
from minvec.groups import intertwining_dichotomy


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_perfbench("traced")


def test_every_hook_resolves():
    traced = load_traced()
    assert traced.HOOKS
    missing = []
    for name, (mod_name, path) in traced.HOOKS.items():
        owner = importlib.import_module(f"minvec.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_traced_verify_records_every_hook(tmp_path):
    # a removed report field that a hook reads fails here, not only in a
    # benchmark run
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced.py"), str(spans),
         "--", "verify", str(REPO / "data" / "datum_n2e2j1p3.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = {span[0] for span in json.loads(spans.read_text())["spans"]}
    hooks = load_perfbench("workloads").VERIFY_HOOKS
    assert sorted(set(hooks) - recorded) == []


def test_traced_count_records_every_hook(tmp_path):
    # report-all over one query reaches every hook of the count workload;
    # the torus hook reads lru_cache's cache_info() and len(torus_set())
    data = tmp_path / "data"
    data.mkdir()
    query = DATA_DIR / "query_m4_shallow.json"
    shutil.copyfile(query, data / query.name)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced.py"), str(spans),
         "--", "report-all", str(data)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    recorded = {span[0] for span in traced["spans"]}
    hooks = load_perfbench("workloads").Count.hooks
    assert sorted(set(hooks) - recorded) == []
    q = load_query(query).query()
    torus = torus_closure_oracle(q.torus_generators, q.p ** q.cf, q.n)
    assert traced["counters"]["counting.torus_misses"] >= 1
    assert traced["counters"]["counting.torus_elements"] == len(torus)


@pytest.mark.parametrize("blocks, kr", [
    (["block_a"], "kr_a"), (["block_b"], "kr_b"), (["block_c"], "kr_c"),
    ([], "parabolic_kr")])
def test_traced_counts_are_python_ints(blocks, kr, request):
    # traced.py adds these up and run.py writes them with json.dumps; a
    # float would let a NaN or Infinity into its last line, and a numpy
    # scalar is no JSON number at all
    kr = request.getfixturevalue(kr)
    blocks = [request.getfixturevalue(b) for b in blocks] or kr.blocks
    values = []
    for blk in blocks:
        b = blk.bundle
        rep = intertwining_dichotomy(blk.datum, b, blk.simple.theta)
        values += [rep.total, rep.intertwining, rep.jcapk_size]
        values += [g.size for g in (*b.ua.values(), b.ul1, b.ol_units, b.h1,
                                    b.j1, b.jcapk)]
    conv = testfunc.convolve_check(testfunc.make_omega(kr))
    values += [conv.support_points_checked, conv.offsupport_points_checked]
    assert [type(v) for v in values] == [int] * len(values)


def loaded_modules(tmp_path, call):
    """The minvec modules in sys.modules after `call` in a fresh process."""
    script = (f"import json, sys\n{call}\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.startswith('minvec'))))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_boundary(tmp_path):
    # count and exponent never import the verify stack, nor the orders
    data = tmp_path / "data"
    data.mkdir()
    query = DATA_DIR / "query_m1_deep.json"
    shutil.copyfile(query, data / query.name)
    verify_stack = {"minvec.groups", "minvec.testfunc"}
    alone = loaded_modules(tmp_path, "import minvec.cli")
    assert not alone & {"minvec.groups", "minvec.counting"}
    for argv in (["count", str(query)], ["exponent", "2"],
                 ["report-all", str(data)]):
        run = (f"from minvec import cli\n"
               f"assert cli.main({argv + ['--out', 'report.txt']!r}) == 0")
        loaded = loaded_modules(tmp_path, run)
        assert "minvec.counting" in loaded
        assert not loaded & verify_stack, argv
        assert "minvec.orders" not in loaded, argv


# Functions and methods of src/minvec that `report-all data/` does not run,
# each with why it stays.
UNREACHED_OK = {
    "cli._stage": "names the stage of a MemoryError; no shipped input "
                  "runs out of memory",
    "residues.matrix_keys": "torus codes past int64 packing; no shipped "
                            "query has (p^c)^(n^2) >= 2^62",
    "datafiles.extract_block": "the reader of the block that render_report "
                               "writes, kept beside its writer",
    # the spot fallback runs only above the sweep's gate, and
    # perfbench/traced.py hooks intertwining_spot, so they go only after a
    # benchmark change; TestSpotFallback runs them at a small --budget
    "groups.intertwining_spot": "the intertwining check above the sweep's "
                                "gate",
    "groups.FiniteSubgroup.draw": "draws the spot check's members of "
                                  "J cap K",
    "residues.sample_units_outside": "draws the spot check's non-members",
    "errors.BudgetExceeded.__init__": "no shipped datum exceeds the default "
                                      "budget; the sweep's gate raises it "
                                      "at a small --budget",
}

REACHED = """
import json, sys
src = sys.argv[1]
seen = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(record)
from minvec import cli
code = cli.main(["--out", "report.txt", "report-all", sys.argv[2]])
sys.setprofile(None)
print(json.dumps([code, sorted(seen)]))
"""


def defined_functions(src):
    """module.function and module.Class.method of every def in src, nested
    functions excluded."""
    names = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(f"{path.stem}.{node.name}.{item.name}"
                             for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return names


def test_src_holds_only_what_the_cli_runs(tmp_path):
    src = REPO / "src" / "minvec"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", REACHED, str(src), str(DATA_DIR)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, seen = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    reached = {f"{Path(path).stem}.{qualname}" for path, qualname in seen}
    defined = defined_functions(src)
    unreached = sorted(defined - reached - set(UNREACHED_OK))
    assert not unreached, f"never run by report-all: {', '.join(unreached)}"
    # the allowlist names only defined functions that really go unrun
    stale = sorted(set(UNREACHED_OK) - (defined - reached))
    assert not stale, f"allowlisted but run or gone: {', '.join(stale)}"


# Defaulted parameters of src/minvec that no call in src/ passes, each with
# why it stays.
UNPASSED_OK = {
    "cli.main.argv": "the console entry point calls main() bare",
    "groups.intertwining_spot.members":
        "TestSpotBatch draws 200 non-members: 40 miss a removed coset at "
        "about one seed in sixteen",
    "groups.intertwining_spot.nonmembers": "the same spot comparison",
}


def parameter_uses(src):
    """(defaulted, passed): module.qualname.param of every defaulted
    parameter of a def in src (self and cls aside), and of those that some
    call in src passes.  A call is matched to every def of its bare name, a
    call of a class name to its __init__, and *args or **kwargs pass
    everything."""
    defs = {}      # bare name -> [(qualname, positional params, defaulted)]
    calls = []     # (bare name, positional count, keywords, starred)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())

        def walk(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", True)
                elif isinstance(child, ast.FunctionDef):
                    qual = f"{prefix}{child.name}"
                    a = child.args
                    params = [x.arg for x in a.posonlyargs + a.args]
                    static = any(getattr(dec, "id", None) == "staticmethod"
                                 for dec in child.decorator_list)
                    if in_class and not static:
                        params = params[1:]
                    defaulted = params[len(params) - len(a.defaults):] \
                        if a.defaults else []
                    defaulted += [x.arg for x, dflt in zip(a.kwonlyargs,
                                                           a.kw_defaults)
                                  if dflt is not None]
                    entry = (f"{path.stem}.{qual}", params, defaulted)
                    defs.setdefault(child.name, []).append(entry)
                    if in_class and child.name == "__init__":
                        defs.setdefault(prefix.split(".")[-2], []).append(
                            entry)
                    walk(child, f"{qual}.", False)
                else:
                    walk(child, prefix, in_class)

        walk(tree, "", False)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(x, ast.Starred) for x in call.args) \
                or any(k.arg is None for k in call.keywords)
            calls.append((name, len(call.args),
                          {k.arg for k in call.keywords}, starred))
    defaulted, passed = set(), set()
    for entries in defs.values():
        for qual, _, names in entries:
            defaulted.update(f"{qual}.{x}" for x in names)
    for name, npos, keywords, starred in calls:
        for qual, params, names in defs.get(name, []):
            passed.update(f"{qual}.{x}" for x in names
                          if starred or x in keywords or x in params[:npos])
    return defaulted, passed


def test_src_passes_every_defaulted_parameter():
    defaulted, passed = parameter_uses(REPO / "src" / "minvec")
    unpassed = defaulted - passed
    knobs = sorted(unpassed - set(UNPASSED_OK))
    assert not knobs, f"defaulted but never passed in src: {', '.join(knobs)}"
    stale = sorted(set(UNPASSED_OK) - unpassed)
    assert not stale, f"allowlisted but passed or gone: {', '.join(stale)}"


# Fields of src/minvec's dataclasses that neither src/ nor perfbench/ reads,
# each with the test that reads it and why it stays.
FIELDS_UNREAD_OK = {
    "groups.ExtensionData.coords":
        "the certified coset coordinates; TestArrayKernels::"
        "test_extend_character_matches_fraction_walk compares them with the "
        "oracle's, and TestProductTable flips one",
    "groups.ExtensionData.orders":
        "the coordinates' relative orders, read beside coords by the same "
        "two tests",
    "groups.PolarizationData.coset_reps":
        "the basis x_a of J1/H1; TestHeisenberg::"
        "test_matches_coset_table_oracle and test_pairing_is_the_trace_form "
        "read the pairing off it",
    "orders.FieldCertificate.slope_denominator":
        "TestExactDatumSide compares the certificate with datum_oracle",
    "orders.FieldCertificate.residue_minpoly": "the same comparison",
    "orders.InductionDatum.beta_rows":
        "beta as given, p^beta_scale beta_rows; test_formula_value and "
        "acceptance criterion 2 rebuild beta exactly from it",
}


def dataclass_fields(src):
    """module.Class.field of every annotated field of a @dataclass in src."""
    fields = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [getattr(dec, "func", dec)
                          for dec in node.decorator_list]
            if any(getattr(dec, "id", getattr(dec, "attr", None))
                   == "dataclass" for dec in decorators):
                fields.update(f"{path.stem}.{node.name}.{item.target.id}"
                              for item in node.body
                              if isinstance(item, ast.AnnAssign))
    return fields


def attributes_read(*dirs):
    """Every name read as .name in the Python files under dirs."""
    names = set()
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            names.update(node.attr
                         for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load))
    return names


def test_every_result_field_is_read():
    # a field that only tests read reports nothing a run decides
    fields = dataclass_fields(REPO / "src" / "minvec")
    read = attributes_read(REPO / "src", REPO / "perfbench")
    unread = {f for f in fields if f.rsplit(".", 1)[1] not in read}
    extra = sorted(unread - set(FIELDS_UNREAD_OK))
    assert not extra, f"never read in src or perfbench: {', '.join(extra)}"
    stale = sorted(set(FIELDS_UNREAD_OK) - unread)
    assert not stale, f"allowlisted but read or gone: {', '.join(stale)}"


def _no_constant(name):
    raise ValueError(f"{name} is no JSON number")


@pytest.mark.parametrize("workload", ["verify-deep", "verify-broad", "count"])
def test_traced_perfbench_last_line_is_strict_json(workload):
    # the benchmark reads one strict JSON object off the last line of a
    # traced run; the per-layer names are BENCHMARK.json's
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1],
                      parse_constant=_no_constant)
    values = [m["value"] for m in last["metrics"].values()]
    assert all(type(v) in (int, float) and math.isfinite(v) for v in values)
    schema = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in schema["per_layer"]}
    # count's cold-torus item depends on the machine's speed
    if workload != "count":
        assert last["failed"] == 0, proc.stderr
