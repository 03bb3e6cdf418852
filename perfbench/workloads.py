"""Workload inputs, seeded query generation and known-answer checks.

Nothing here imports minvec: every expected answer is either a fact about
the shipped data (stated below), a golden block from tests/golden (read,
never written), or a count computed by this file's own brute force.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

CHECK_NAMES = ("character", "heisenberg", "intertwine", "omega",
               "convolution", "concentration")
BLOCK_BEGIN = "--- BEGIN STRUCTURED BLOCK ---"
BLOCK_END = "--- END STRUCTURED BLOCK ---"

DEEP_DATUM = "datum_n2e2j3p3.json"
DEEP_H1_SIZE = 6561                  # |H1| = 3^8 for datum b
BROAD_MINIMAL = ("datum_n2e2j1p3.json", "datum_n2e1j2p3.json",
                 "datum_parabolic_n4p3.json")
BROAD_NONMINIMAL = "datum_nonminimal_n2e2j2p3.json"
SHIPPED_QUERIES = ("query_m1_deep.json", "query_m1_shallow.json",
                   "query_m4_deep.json", "query_m4_shallow.json")
DEEP_QUERY = "query_m4_deep.json"
DEEP_TORUS_SIZE = 531441             # (order of 4 mod 3^7)^2 = 729^2
GOLDEN = {
    ("order", "datum_n2e2j1p3.json"): "order_n2e2j1p3.block.json",
    ("count", DEEP_QUERY): "count_m4_deep.block.json",
    ("exponent", 2): "exponent_n2.block.json",
}
# (file name, n, entry bound) of the generated queries; the seed picks
# p, the congruence exponent, m and the torus.  The sizes are fixed so that
# every seed does the same amount of enumeration.
GENERATED = (("query_gen_a.json", 2, 10), ("query_gen_b.json", 2, 13),
             ("query_gen_c.json", 3, 1))


class Workload:
    """One benchmark workload: its CLI invocations and their known answers."""

    name = ""
    why = ""
    goldens = ()
    hooks = ()          # span names a traced run must record at least once

    def __init__(self, root: Path):
        self.data = root / "data"
        self.golden = root / "tests" / "golden"

    def prepare(self, workdir: Path, seed: int) -> list:
        """Write the inputs; return the CLI argument lists, one per process."""
        raise NotImplementedError

    def check(self, results) -> list:
        """[(item, ok)] for [(exit code, stdout text)], one per process."""
        raise NotImplementedError

    def golden_items(self, reports):
        items = []
        for title, key in self.goldens:
            fname = GOLDEN[title, key]
            found = [r for r in reports if r["title"] == title and
                     r["block"].get("n" if title == "exponent" else "input")
                     == key]
            want = (self.golden / fname).read_text()
            ok = len(found) == 1 and found[0]["block_text"] + "\n" == want
            items.append((f"golden {fname} byte-identical", ok))
        return items


VERIFY_HOOKS = (
    "cli.main", "cli.cmd_verify", "datafiles.load_datum",
    "datafiles.render_report", "orders.build", "orders.is_minimal",
    "groups.build_subgroups", "groups.simple_character",
    "groups.verify_character", "groups.heisenberg", "groups.extend_and_induce",
    "groups.intertwining_dichotomy", "groups.build_Kpi", "testfunc.volume",
    "testfunc.convolve_check", "testfunc.concentration_check")


class VerifyDeep(Workload):
    name = "verify-deep"
    why = ("one large group (|H1| = 6561) whose three O(|H1|^2) pair scans "
           "dominate; exercises ROADMAP item 2, bypasses items 3 and 4")
    hooks = VERIFY_HOOKS

    def prepare(self, workdir, seed):
        return [["verify", str(self.data / DEEP_DATUM), "--seed", str(seed)]]

    def check(self, results):
        (code, text), = results
        items = [("verify-deep exit 0", code == 0)]
        reps = parse_reports(text)
        verify = [r for r in reps if r["title"] == "verify"]
        items.append(("one verify report", len(verify) == 1))
        block = verify[0]["block"] if verify else {}
        items += verdict_items(DEEP_DATUM, block)
        h1 = [d.get("H1_size") for d in
              block.get("checks", {}).get("character", {}).get("detail", [])]
        items.append((f"{DEEP_DATUM} |H1| = {DEEP_H1_SIZE}",
                      h1 == [DEEP_H1_SIZE]))
        return items


class VerifyBroad(Workload):
    name = "verify-broad"
    why = ("report-all over many small groups: exhaustive intertwining "
           "sweeps, subgroup builds and the double datum build; items 3, 5")
    goldens = (("order", "datum_n2e2j1p3.json"), ("exponent", 2))
    hooks = VERIFY_HOOKS + ("cli.cmd_report_all", "cli.cmd_order",
                            "orders.k0", "orders.approximation_report")
    inputs = BROAD_MINIMAL + (BROAD_NONMINIMAL,)

    def prepare(self, workdir, seed):
        target = workdir / "broad"
        target.mkdir(parents=True, exist_ok=True)
        for fname in self.inputs:
            shutil.copyfile(self.data / fname, target / fname)
        return [["report-all", str(target), "--seed", str(seed)]]

    def check(self, results):
        (code, text), = results
        items = [("verify-broad exit 0", code == 0)]
        reports = parse_reports(text)
        by_input = {}
        for r in reports:
            by_input.setdefault((r["title"], r["block"].get("input")), r)
        for fname in self.inputs:
            order = by_input.get(("order", fname))
            blocks = order["block"].get("blocks", []) if order else []
            if fname == BROAD_NONMINIMAL:
                ok = _all_blocks(blocks, lambda b: b["minimal"] is False
                                 and b["k0"] > b["v_A_beta"])
                items.append((f"{fname} minimal: false, k0 > v_A(beta)", ok))
                items.append((f"{fname} verify not applicable",
                              fname in not_applicable(text) and
                              ("verify", fname) not in by_input))
                continue
            # a minimal element has k0(beta, A) = v_A(beta)
            ok = _all_blocks(blocks, lambda b: b["minimal"] is True
                             and b["k0"] == b["v_A_beta"])
            items.append((f"{fname} minimal: true, k0 = v_A(beta)", ok))
            verify = by_input.get(("verify", fname))
            items += verdict_items(fname, verify["block"] if verify else {})
        items += self.golden_items(reports)
        return items


class Count(Workload):
    name = "count"
    why = ("report-all over lattice queries: the query_m4_deep torus "
           "closure plus seeded enumerations; item 4, bypasses groups")
    goldens = (("count", DEEP_QUERY), ("exponent", 2))
    hooks = ("cli.main", "cli.cmd_report_all", "cli.cmd_count",
             "datafiles.load_query", "datafiles.render_report",
             "counting.enumerate_S", "counting.torus_set")

    def prepare(self, workdir, seed):
        target = workdir / "count"
        target.mkdir(parents=True, exist_ok=True)
        for fname in SHIPPED_QUERIES:
            shutil.copyfile(self.data / fname, target / fname)
        self.queries = {f: json.loads((target / f).read_text())
                        for f in SHIPPED_QUERIES}
        for fname, q in generate_queries(seed).items():
            (target / fname).write_text(
                json.dumps(q, sort_keys=True, indent=2) + "\n")
            self.queries[fname] = q
        return [["report-all", str(target), "--seed", str(seed)]]

    def check(self, results):
        (code, text), = results
        items = [("count exit 0", code == 0)]
        reports = parse_reports(text)
        counts = {r["block"].get("input"): r["block"].get("count")
                  for r in reports if r["title"] == "count"}
        for fname, q in sorted(self.queries.items()):
            if fname == DEEP_QUERY:
                continue                  # covered by its golden block
            want = reference_count(q)
            got = counts.get(fname)
            items.append((f"{fname} count {got} = reference {want}",
                          got == want))
        items += self.golden_items(reports)
        return items


WORKLOADS = {w.name: w for w in (VerifyDeep, VerifyBroad, Count)}


def _all_blocks(blocks, pred) -> bool:
    """pred holds on every block; a missing or mistyped field fails it."""
    try:
        return bool(blocks) and all(pred(b) for b in blocks)
    except (KeyError, TypeError):
        return False


def verdict_items(fname, block):
    checks = block.get("checks", {})
    return [(f"{fname} {c}: PASS",
             checks.get(c, {}).get("verdict") == "PASS")
            for c in CHECK_NAMES]


# ---------------------------------------------------------------------------
# report parsing
# ---------------------------------------------------------------------------

def parse_reports(text: str) -> list:
    """Every report in a CLI output: title, parsed block and raw block text."""
    out = []
    title = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("minvec report: "):
            title = line[len("minvec report: "):]
        elif line == BLOCK_BEGIN and title is not None:
            try:
                hi = lines.index(BLOCK_END, i + 1)
            except ValueError:
                break
            raw = "\n".join(lines[i + 1:hi])
            try:
                block = json.loads(raw)
            except json.JSONDecodeError:
                block = {}
            out.append({"title": title, "block": block, "block_text": raw})
            title = None
            i = hi
        i += 1
    return out


def not_applicable(text: str) -> set:
    return {line.split()[1].rstrip(":") for line in text.splitlines()
            if line.startswith("verify ") and ": not applicable" in line}


# ---------------------------------------------------------------------------
# seeded lattice queries and their brute-force reference
# ---------------------------------------------------------------------------

def generate_queries(seed: int) -> dict:
    """Lattice queries drawn from the seed, blind to how minvec prunes."""
    rng = random.Random(seed)
    out = {}
    for fname, n, bound in GENERATED:
        p = rng.choice((3, 5, 7))
        cf = rng.choice((1, 2)) if n == 2 else 1
        mod = p ** cf
        top = 12 if n == 2 else 4          # |det| <= 4 when n = 3, B = 1
        m = rng.choice([v for v in range(-top, top + 1)
                        if v and math.gcd(v, p) == 1])
        if rng.random() < 0.5:
            g = primitive_root(p, cf)
            gens = [[[g if r == c == k else int(r == c) for c in range(n)]
                     for r in range(n)] for k in range(n)]
        else:
            while True:
                cand = [[rng.randrange(mod) for _ in range(n)]
                        for _ in range(n)]
                if _batch_det(np.array([cand]))[0] % p:
                    break
            gens = [cand]
        out[fname] = {"kind": "lattice-query", "n": n, "m": m,
                      "entry_bound": bound, "p": p, "c": cf,
                      "torus_generators": gens}
    return out


def primitive_root(p: int, k: int) -> int:
    mod = p ** k
    order = mod - mod // p
    for g in range(2, mod):
        if math.gcd(g, p) == 1 and all(
                pow(g, order // q, mod) != 1 for q in _prime_factors(order)):
            return g
    raise ValueError("no primitive root")


def _prime_factors(v: int) -> set:
    out, d = set(), 2
    while d * d <= v:
        while v % d == 0:
            out.add(d)
            v //= d
        d += 1
    if v > 1:
        out.add(v)
    return out


def torus_closure(gens, mod: int, n: int) -> set:
    """Products of the generators mod `mod`, as flat tuples."""
    gens = [tuple(v % mod for row in g for v in row) for g in gens]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = tuple(sum(a[i * n + k] * g[k * n + j] for k in range(n))
                             % mod for i in range(n) for j in range(n))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def reference_count(q: dict) -> int:
    """|S(m, T, cf)| by a flat vectorised scan of all (2B+1)^(n^2) matrices."""
    n, m, bound = q["n"], q["m"], q["entry_bound"]
    mod = q["p"] ** q["c"]
    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([vals] * (n * n)), indexing="ij"),
                    axis=-1).reshape(-1, n, n)
    hits = grid[_batch_det(grid) == m]
    if mod == 1:
        return len(hits)
    torus = torus_closure(q["torus_generators"], mod, n)
    red = hits.reshape(len(hits), -1) % mod
    return sum(tuple(int(v) for v in r) in torus for r in red)


def _batch_det(a):
    """Exact integer determinants of a stack of small matrices."""
    n = a.shape[-1]
    if n == 1:
        return a[:, 0, 0]
    total = np.zeros(len(a), dtype=np.int64)
    for c in range(n):
        minor = np.delete(a[:, 1:, :], c, axis=2)
        total += (-1) ** c * a[:, 0, c] * _batch_det(minor)
    return total
