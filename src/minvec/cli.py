"""Batch command-line front end.

Subcommands: order, verify, count, exponent, report-all.
Exit codes: 0 all checks pass, 1 a verified identity is falsified,
2 usage or parse error, 3 construction failure, 4 budget exceeded (or
memory exhausted).
Identical inputs and seed produce byte-identical report files; wall-clock
timings appear only in the human-readable section, never in the structured
block.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import datafiles
from .errors import (BudgetExceeded, ConstructionFailure, DatumInvalid,
                     MinvecError)

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_BUDGET = 4

ALL_CHECKS = ("character", "heisenberg", "intertwine", "omega",
              "convolution", "concentration")


def _frac(x) -> str:
    return datafiles._frac_str(x)


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path, load):
    if not Path(path).is_file():
        raise DatumInvalid(f"no such file: {path}")
    return load(Path(path))


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def _block_specs(spec):
    return spec.blocks if isinstance(spec, datafiles.ParabolicSpec) else [spec]


def cmd_order(args, data=None) -> int:
    """Order invariants of one datum file.  `data` are its blocks' data when
    they are already built, as report-all has them."""
    from .orders import approximation_report, is_minimal, k0
    specs = _block_specs(_load(args.datum, datafiles.load_datum))
    if data is None:
        data = [s.build() for s in specs]
    human = [f"datum: {args.datum}"]
    blocks = []
    falsified = False
    for i, (s, d) in enumerate(zip(specs, data)):
        t0 = time.perf_counter()
        res = k0(d, budget=args.budget)
        try:
            minimal = is_minimal(d)
        except DatumInvalid:
            minimal = False
        approx_ok = all(
            approximation_report(d.order, idx).holds
            for idx in range(-2 * d.order.e, 2 * d.order.e + 1))
        falsified |= not approx_ok
        ms = (time.perf_counter() - t0) * 1000
        human.append(
            f"block {i}: p={s.p} n={s.n} e={s.e} j={s.j}  "
            f"v_A(beta) = {-d.j}, k0 = {res.value}"
            f"{' (capped)' if res.capped else ''}, minimal: "
            f"{str(minimal).lower()}, radical approximation: "
            f"{'ok' if approx_ok else 'FAIL'}  [{ms:.0f} ms]")
        blocks.append({
            "p": s.p, "n": s.n, "e": s.e, "j": s.j,
            "v_A_beta": -d.j,
            "k0": res.value,
            "k0_capped": res.capped,
            "k0_nodes": res.nodes,
            "minimal": minimal,
            "normalised_depth": _frac(d.normalised_depth),
            "approximation_ok": approx_ok,
            "normalizer_ok": d.normalizes,
            "field_certified": d.field_certified,
        })
    block = {"command": "order", "input": Path(args.datum).name,
             "blocks": blocks}
    _emit(datafiles.render_report("order", human, block), args.out)
    return EXIT_FALSIFIED if falsified else EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _prepare(spec, budget, seed, data=None):
    """Blocks and K_pi of a datum file, built from `data` when given."""
    from . import groups
    from .orders import is_minimal
    if data is None:
        data = [s.build() for s in _block_specs(spec)]
    if isinstance(spec, datafiles.ParabolicSpec):
        blocks = [groups.prepare_block(d, budget=budget) for d in data]
        kr = groups.build_Kpi(blocks, inequivalent_assertion=spec.inequivalent,
                              seed=seed)
        return blocks, kr
    d, = data
    if not is_minimal(d):
        raise DatumInvalid("verification requires a minimal datum")
    blk = groups.prepare_block(d, budget=budget)
    kr = groups.build_Kpi([blk])
    return [blk], kr


def _check_character(blocks, kr, args):
    out = []
    for i, blk in enumerate(blocks):
        sc = blk.simple
        out.append({
            "block": i,
            "H1_size": blk.bundle.h1.size,
            "extensions": sc.extension_count,
            "denominator": sc.denom,
            "mode": "certified",
            "trivial_on": f"U_A({sc.trivial_level})",
        })
    return "PASS", out, None


def _check_heisenberg(blocks, kr, args):
    out = []
    for i, blk in enumerate(blocks):
        pol, ind = blk.pol, blk.induced
        entry = {
            "block": i,
            "trivial": pol.trivial,
            "dim_V": pol.dim,
            "dim_eta": ind.dim,
            "mode": "certified",
            "tilde_extensions": ind.tilde_count,
        }
        if pol.trivial:
            entry["note"] = pol.reason
        else:
            entry["pairing"] = pol.pairing
            entry["isotropic"] = pol.isotropic
        out.append(entry)
    return "PASS", out, None


def _check_intertwine(blocks, kr, args):
    from . import groups
    out = []
    for i, blk in enumerate(blocks):
        try:
            rep = groups.intertwining_dichotomy(
                blk.datum, blk.bundle, blk.simple.theta, budget=args.budget)
            out.append({
                "block": i,
                "mode": "sweep",
                "K_size": rep.total,
                "intertwining": rep.intertwining,
                "JcapK_size": rep.jcapk_size,
                "dichotomy": rep.agree,
            })
            if not rep.agree:
                return "FAIL", out, \
                    f"intertwining dichotomy failed: {rep.witness.tolist()}"
        except BudgetExceeded as err:
            # the units the sweep would list, against the budget
            rep = groups.intertwining_spot(
                blk.datum, blk.bundle, blk.simple.theta, seed=args.seed)
            out.append({
                "block": i,
                "mode": "spot",
                "gate": err.estimate,
                "budget": args.budget,
                "members_checked": rep.members_checked,
                "nonmembers_checked": rep.nonmembers_checked,
                "dichotomy": rep.agree,
            })
            if not rep.agree:
                return "FAIL", out, \
                    f"spot intertwining failed: {rep.witness.tolist()}"
    return "PASS", out, None


def _check_omega(blocks, kr, args):
    # omega(1) = 1: theta(I) = 0 is part of every certificate, and a K_pi
    # built as a group holds I.  omega is zero off K_pi by definition;
    # support_size < |K| shows that K_pi is not all of K
    return "PASS", {"mode": "certified", "support_size": kr.kpi.size}, None


def _check_convolution(blocks, kr, args):
    from . import testfunc
    tf = testfunc.make_omega(kr)
    vol = testfunc.volume(kr)
    conv = testfunc.convolve_check(tf, seed=args.seed)
    section = {
        "d_pi": _frac(vol.d_pi),
        "mode": conv.mode,
        "support_points": conv.support_points_checked,
        "support_ok": conv.support_ok,
        "offsupport_points": conv.offsupport_points_checked,
        "offsupport_ok": conv.offsupport_ok,
        "volume_bounded": vol.bounded,
        "target_exponent": _frac(vol.target_exponent),
        "v_p_inverse_volume": vol.valuation_of_inverse,
    }
    msg = None
    if not (conv.support_ok and conv.offsupport_ok):
        wit = [list(map(int, r)) for r in conv.witness]
        msg = f"convolution identity falsified, witness {wit}"
    elif not vol.bounded:
        msg = (f"volume d_pi = {_frac(vol.d_pi)} unbounded: v_p(1/d_pi) = "
               f"{vol.valuation_of_inverse} is not within n^2 of "
               f"c(n^2 - n)/2 = {_frac(vol.target_exponent)}")
    return ("PASS" if msg is None else "FAIL"), section, msg


def _check_concentration(blocks, kr, args):
    from . import testfunc
    tf = testfunc.make_omega(kr)
    conc = testfunc.concentration_check(tf)
    section = {
        "cfrak": conc.cfrak,
        "threshold": conc.threshold,
        "mode": conc.mode,
    }
    return "PASS", section, None


_CHECK_FNS = {
    "character": _check_character,
    "heisenberg": _check_heisenberg,
    "intertwine": _check_intertwine,
    "omega": _check_omega,
    "convolution": _check_convolution,
    "concentration": _check_concentration,
}


def cmd_verify(args, data=None) -> int:
    """Run the checks on one datum file.  `data` are its blocks' data when
    they are already built, as report-all has them."""
    if args.checks is not None:
        names = [c for c in args.checks.split(",") if c]
        if not names:
            raise DatumInvalid("empty check set")
        for c in names:
            if c not in ALL_CHECKS:
                raise DatumInvalid(f"unknown check {c!r}")
    else:
        names = list(ALL_CHECKS)
    from . import testfunc
    spec = _load(args.datum, datafiles.load_datum)
    blocks, kr = _prepare(spec, args.budget, args.seed, data)
    dr = testfunc.depth_report(kr)
    human = [f"datum: {args.datum}", f"checks: {','.join(names)}",
             f"depth: d = {dr.depth}, c = {_frac(dr.c)}, cfrak = {dr.cfrak}, "
             f"conductor exponent = {_frac(dr.conductor_exponent)}"]
    sections = {}
    verdicts = {}
    failure_msg = None
    for name in names:
        t0 = time.perf_counter()
        verdict, section, msg = _CHECK_FNS[name](blocks, kr, args)
        ms = (time.perf_counter() - t0) * 1000
        sections[name] = {"verdict": verdict, "detail": section}
        verdicts[name] = verdict
        extra = ""
        if name == "convolution" and "d_pi" in section:
            extra = f" (d_pi = {section['d_pi']})"
        human.append(f"{name}: {verdict}{extra}  [{ms:.0f} ms]")
        if verdict == "FAIL" and failure_msg is None:
            failure_msg = msg
    block = {"command": "verify", "input": Path(args.datum).name,
             "checks": sections, "seed": args.seed,
             "depth_report": {
                 "d": dr.depth,
                 "c": _frac(dr.c),
                 "cfrak": dr.cfrak,
                 "conductor_exponent": _frac(dr.conductor_exponent),
             }}
    _emit(datafiles.render_report("verify", human, block), args.out)
    if any(v == "FAIL" for v in verdicts.values()):
        sys.stderr.write(f"FALSIFIED: {failure_msg}\n")
        return EXIT_FALSIFIED
    return EXIT_PASS


# ---------------------------------------------------------------------------
# count / exponent
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    from . import counting
    qspec = _load(args.query, datafiles.load_query)
    rep = counting.enumerate_S(qspec.query(), budget=args.budget)
    human = [
        f"query: {args.query}",
        f"|S| = {rep.count} (scanned {rep.candidates_scanned} candidates, "
        f"{rep.elapsed_ms:.0f} ms)",
        f"abelian: {rep.abelian}; regime holds: {rep.regime_ok} "
        f"(threshold {rep.regime_threshold} vs p^c = "
        f"{rep.query.p ** rep.query.cf})",
        f"tau image (unit classes): {rep.tau_image_size}, measured fiber: "
        f"{rep.fiber_measured}, partition bound: {rep.partition_bound}",
    ]
    block = {
        "command": "count",
        "input": Path(args.query).name,
        "count": rep.count,
        "matches": [[list(r) for r in m] for m in rep.matches],
        "abelian": rep.abelian,
        "commute_witness": None if rep.commute_witness is None else
            [[list(r) for r in m] for m in rep.commute_witness],
        "regime_ok": rep.regime_ok,
        "regime_threshold": rep.regime_threshold,
        "tau_image_size": rep.tau_image_size,
        "fiber_measured": rep.fiber_measured,
        "partition_bound": rep.partition_bound,
        "bound_ok": rep.bound_ok,
    }
    _emit(datafiles.render_report("count", human, block), args.out)
    if rep.regime_ok and (not rep.abelian or not rep.bound_ok):
        sys.stderr.write("FALSIFIED: abelian-regime law failed\n")
        return EXIT_FALSIFIED
    return EXIT_PASS


def cmd_exponent(args) -> int:
    from . import counting
    rep = counting.amplifier_exponent(args.n)
    human = [
        f"n = {args.n}",
        f"sup-norm exponent: {_frac(rep.bound_exponent)}",
        f"amplifier length L0 = p^(c_frak * {_frac(rep.amplifier_exponent_coeff)})",
        f"sign audit: assembled {_frac(rep.assembled)} "
        f"(matches: {rep.assembled_matches}); penultimate display "
        f"{_frac(rep.penultimate)} (matches: {rep.penultimate_matches}); "
        f"flipped variant {_frac(rep.flipped_variant)} "
        f"(matches: {rep.flipped_matches})",
    ]
    block = {
        "command": "exponent",
        "n": args.n,
        "bound_exponent": _frac(rep.bound_exponent),
        "L0_exponent_coefficient": _frac(rep.amplifier_exponent_coeff),
        "d_pi_exponent": _frac(rep.d_pi_exponent),
        "L0_exponent": _frac(rep.l0_exponent),
        "assembled": _frac(rep.assembled),
        "assembled_matches": rep.assembled_matches,
        "penultimate": _frac(rep.penultimate),
        "penultimate_matches": rep.penultimate_matches,
        "flipped_variant": _frac(rep.flipped_variant),
        "flipped_matches": rep.flipped_matches,
    }
    _emit(datafiles.render_report("exponent", human, block), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# report-all
# ---------------------------------------------------------------------------

def cmd_report_all(args) -> int:
    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        raise DatumInvalid(f"no such directory: {args.data_dir}")
    pieces = []
    codes = []

    def run(fn, **fields):
        sub = argparse.Namespace(**{**vars(args), "out": None, **fields})
        buf, code = _capture(fn, sub)
        pieces.append(buf)
        codes.append(code)

    # every file is parsed before any runs: a bad one exits 2 up front
    specs = [(path, datafiles.load_any(path))
             for path in sorted(data_dir.glob("*.json"))]
    for path, spec in specs:
        if isinstance(spec, datafiles.QuerySpec):
            run(cmd_count, query=str(path))
            continue
        from .orders import is_minimal
        data = [s.build() for s in _block_specs(spec)]
        run(lambda a: cmd_order(a, data), datum=str(path), checks=None)
        if all(is_minimal(d) for d in data):
            run(lambda a: cmd_verify(a, data), datum=str(path), checks=None)
        else:
            pieces.append(f"verify {path.name}: not applicable "
                          "(datum is not minimal; see the order report)\n")
    for n in (2, 3):
        run(cmd_exponent, n=n)
    text = "\n".join(pieces)
    _emit(text, args.out)
    if EXIT_FALSIFIED in codes:
        return EXIT_FALSIFIED
    if EXIT_CONSTRUCTION in codes:
        return EXIT_CONSTRUCTION
    if EXIT_BUDGET in codes:
        return EXIT_BUDGET
    return EXIT_PASS


def _stage(err: BaseException) -> str:
    """The innermost minvec function (not comprehension) an exception
    passed through."""
    stage = "?"
    tb = err.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        name = tb.tb_frame.f_code.co_name
        if module.startswith("minvec.") and not name.startswith("<"):
            stage = f"{module[len('minvec.'):]}.{name}"
        tb = tb.tb_next
    return stage


def _capture(fn, args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = fn(args)
        except BudgetExceeded as err:
            buf.write(f"SKIPPED (budget): {err}\n")
            code = EXIT_BUDGET
        except MemoryError as err:
            buf.write(f"SKIPPED (budget): out of memory in {_stage(err)}\n")
            code = EXIT_BUDGET
        except ConstructionFailure as err:
            buf.write(f"CONSTRUCTION FAILURE: {err}\n")
            code = EXIT_CONSTRUCTION
    return buf.getvalue(), code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _common_flags():
    """Shared flags, accepted both before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a subcommand parse never clobbers values given up front
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="enumeration/search budget (elements)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled checks (non-negative)")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="write the report to a file instead of stdout")
    return common


_FLAG_DEFAULTS = {"budget": 5_000_000, "seed": 0, "out": None}


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="minvec", parents=[common],
        description="exact verification of minimal-vector test functions")
    sub = ap.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", parents=[common],
                             help="order/minimality invariants")
    p_order.add_argument("datum")
    p_order.set_defaults(fn=cmd_order)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="character and test-function laws")
    p_verify.add_argument("datum")
    p_verify.add_argument("--checks", type=str, default=None,
                          help=f"comma-separated subset of "
                               f"{','.join(ALL_CHECKS)}")
    p_verify.set_defaults(fn=cmd_verify)

    p_count = sub.add_parser("count", parents=[common],
                             help="lattice point counting")
    p_count.add_argument("query")
    p_count.set_defaults(fn=cmd_count)

    p_exp = sub.add_parser("exponent", parents=[common],
                           help="exact sup-norm exponent")
    p_exp.add_argument("n", type=int)
    p_exp.set_defaults(fn=cmd_exponent)

    p_all = sub.add_parser("report-all", parents=[common],
                           help="run everything in a data dir")
    p_all.add_argument("data_dir")
    p_all.set_defaults(fn=cmd_report_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            ap.error("--seed must be a non-negative integer")
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    for key, value in _FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return args.fn(args)
    except DatumInvalid as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except BudgetExceeded as err:
        sys.stderr.write(f"budget exceeded: {err}\n")
        return EXIT_BUDGET
    except MemoryError as err:
        sys.stderr.write(f"budget exceeded: out of memory in {_stage(err)}\n")
        return EXIT_BUDGET
    except ConstructionFailure as err:
        sys.stderr.write(f"construction failure: {err}\n")
        return EXIT_CONSTRUCTION
    except MinvecError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
