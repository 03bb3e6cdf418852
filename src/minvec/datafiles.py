"""Datum and query files, and report formatting.

Data files are JSON objects, validated field by field at parse time: p is
a prime integer, the sizes, depth and scale are integers and beta's
entries form an integer matrix, so a bad file exits 2 before any build.
A datum file holds beta exactly, as an integer matrix and a p-power scale.
Reports pair a human-readable section with one machine-readable block,
canonical JSON (sorted keys, two-space indent) between marker lines;
golden tests diff only the block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DatumInvalid
from .padic import is_prime

BLOCK_BEGIN = "--- BEGIN STRUCTURED BLOCK ---"
BLOCK_END = "--- END STRUCTURED BLOCK ---"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


@dataclass
class DatumSpec:
    """Parsed contents of a datum file (one supercuspidal block)."""

    p: int
    n: int
    e: int
    j: int
    beta_entries: list
    beta_scale: int

    def build(self) -> InductionDatum:
        """Construct the induction datum.  The field certificate and the
        normalizer check are required only of data that pass the
        coprimality clause; the others are built flagged, so that the order
        report can show why they are not minimal."""
        from .orders import HereditaryOrder, InductionDatum, v_A
        order = HereditaryOrder(self.n, self.e)
        g = v_A(self.beta_entries, order, self.p)
        val = None if g is None else g + self.e * self.beta_scale
        if val != -self.j:
            raise DatumInvalid(
                f"declared j = {self.j} but v_A(beta) = {val}")
        return InductionDatum.build(order, self.p, self.beta_entries,
                                    self.beta_scale,
                                    strict=math.gcd(self.j, self.e) == 1)


@dataclass
class ParabolicSpec:
    p: int
    blocks: list          # of DatumSpec
    inequivalent: bool


@dataclass
class QuerySpec:
    n: int
    m: int
    entry_bound: int
    p: int
    c: int
    torus_generators: list

    def query(self):
        from .counting import LatticeQuery
        return LatticeQuery(
            self.n, self.m, self.entry_bound, self.p, self.c,
            tuple(tuple(tuple(v for v in row) for row in g)
                  for g in self.torus_generators))


def _require(cond, msg):
    if not cond:
        raise DatumInvalid(msg)


def _parse_block(obj) -> DatumSpec:
    for key in ("p", "n", "e", "j", "beta"):
        _require(key in obj, f"missing field {key!r}")
    p, n, e, j = (obj[k] for k in ("p", "n", "e", "j"))
    _require_prime(p)
    for key, v in (("n", n), ("e", e), ("j", j)):
        _require(_is_int(v) and v >= 1, f"{key} must be a positive integer")
    _require(n % e == 0, "e must divide n")
    beta = obj["beta"]
    _require(isinstance(beta, dict) and "entries" in beta and "scale" in beta,
             "beta needs entries and scale")
    _require(_is_int(beta["scale"]), "beta scale must be an integer")
    ent = beta["entries"]
    _require(isinstance(ent, list) and len(ent) == n
             and all(isinstance(r, list) and len(r) == n
                     and all(_is_int(v) for v in r) for r in ent),
             f"beta entries must be an {n} x {n} integer matrix")
    return DatumSpec(p, n, e, j, [list(r) for r in ent], beta["scale"])


def _json_object(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise DatumInvalid(f"malformed {what} file: {err}") from None
    _require(isinstance(obj, dict), f"{what} file must hold a JSON object")
    return obj


def parse_datum_text(text: str):
    """Parse a datum file: a DatumSpec or a ParabolicSpec."""
    return _datum_spec(_json_object(text, "datum"))


def _datum_spec(obj: dict):
    kind = obj.get("kind", "supercuspidal")
    if kind == "supercuspidal":
        return _parse_block(obj)
    if kind == "parabolic":
        _require("blocks" in obj and isinstance(obj["blocks"], list)
                 and obj["blocks"], "parabolic datum needs blocks")
        blocks = [_parse_block(b) for b in obj["blocks"]]
        p = obj.get("p", blocks[0].p)
        _require_prime(p)
        _require(all(b.p == p for b in blocks), "blocks must share p")
        inequivalent = obj.get("inequivalent", False)
        _require(isinstance(inequivalent, bool),
                 "inequivalent must be true or false")
        return ParabolicSpec(p, blocks, inequivalent)
    raise DatumInvalid(f"unknown datum kind {kind!r}")


def parse_query_text(text: str) -> QuerySpec:
    return _query_spec(_json_object(text, "query"))


def _query_spec(obj: dict) -> QuerySpec:
    _require(obj.get("kind", "lattice-query") == "lattice-query",
             "not a lattice query file")
    for key in ("n", "m", "entry_bound", "p", "c"):
        _require(key in obj, f"missing field {key!r}")
        _require(_is_int(obj[key]), f"{key} must be an integer")
    n = obj["n"]
    _require(n >= 1, "n must be a positive integer")
    _require_prime(obj["p"])
    gens = obj.get("torus_generators", [])
    _require(isinstance(gens, list), "torus_generators must be a list")
    for g in gens:
        _require(isinstance(g, list) and len(g) == n
                 and all(isinstance(r, list) and len(r) == n
                         and all(_is_int(v) for v in r) for r in g),
                 f"each torus generator must be an {n} x {n} integer matrix")
    return QuerySpec(n, obj["m"], obj["entry_bound"], obj["p"],
                     obj["c"], [[list(r) for r in g] for g in gens])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require_prime(p):
    _require(_is_int(p) and is_prime(p), f"p = {p!r} must be a prime integer")


def _read_text(path) -> str:
    """A data file's text.  A file that cannot be read, or is not UTF-8,
    raises DatumInvalid naming it."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DatumInvalid(f"{path.name}: not UTF-8 text") from None
    except OSError as err:
        raise DatumInvalid(f"{path.name}: cannot read: {err.strerror}") \
            from None


def load_datum(path):
    return parse_datum_text(_read_text(path))


def load_query(path):
    return parse_query_text(_read_text(path))


def load_any(path):
    """A data file's spec: a QuerySpec when its kind is lattice-query, else
    a DatumSpec or ParabolicSpec.  A bad file raises DatumInvalid naming it."""
    path = Path(path)
    text = _read_text(path)
    try:
        obj = _json_object(text, "data")
        if obj.get("kind") == "lattice-query":
            return _query_spec(obj)
        return _datum_spec(obj)
    except DatumInvalid as err:
        raise DatumInvalid(f"{path.name}: {err}") from None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def render_report(title: str, human_lines, block: dict) -> str:
    out = [f"minvec report: {title}"]
    out.extend(human_lines)
    out.append("")
    out.append(BLOCK_BEGIN)
    out.append(canonical_dumps(block).rstrip("\n"))
    out.append(BLOCK_END)
    out.append("")
    return "\n".join(out)


def extract_block(text: str) -> dict:
    """The structured block of a report written by render_report.  The CLI
    never reads a report back; this reader stays beside its writer so that
    the two change together, and tests and scripts parse blocks through
    it."""
    lines = text.splitlines()
    try:
        lo = lines.index(BLOCK_BEGIN)
        hi = lines.index(BLOCK_END)
    except ValueError:
        raise ValueError("report has no structured block") from None
    return json.loads("\n".join(lines[lo + 1:hi]))
