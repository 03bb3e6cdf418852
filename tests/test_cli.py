import argparse
import io
import json
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import DATA_DIR, GOLDEN_DIR

import numpy as np

from minvec import cli, testfunc
from minvec.datafiles import (canonical_dumps, extract_block, load_datum,
                              parse_datum_text, roundtrip_ok, serialize)
from minvec.errors import DatumInvalid


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestDatumFiles:
    def test_roundtrip_all_shipped(self):
        for path in sorted(DATA_DIR.glob("*.json")):
            assert roundtrip_ok(path), path

    def test_parse_rejects_garbage(self):
        with pytest.raises(DatumInvalid):
            parse_datum_text("{not json")

    def test_parse_rejects_bad_period(self):
        text = canonical_dumps({
            "kind": "supercuspidal", "p": 3, "n": 2, "e": 3, "j": 1,
            "beta": {"scale": -1, "entries": [[0, 1], [3, 0]]}})
        with pytest.raises(DatumInvalid, match="e must divide n"):
            parse_datum_text(text)

    def test_declared_depth_checked(self, tmp_path):
        text = canonical_dumps({
            "kind": "supercuspidal", "p": 3, "n": 2, "e": 2, "j": 2,
            "beta": {"scale": -1, "entries": [[0, 1], [3, 0]]}})
        spec = parse_datum_text(text)
        with pytest.raises(DatumInvalid, match="v_A"):
            spec.build()

    def test_serialize_is_canonical(self):
        spec = load_datum(DATA_DIR / "datum_n2e2j1p3.json")
        assert serialize(spec) == (DATA_DIR / "datum_n2e2j1p3.json").read_text()


class TestExitCodes:
    def test_order_pass(self):
        code, _ = run_cli("order", str(DATA_DIR / "datum_n2e2j1p3.json"))
        assert code == 0

    def test_order_reports_nonminimal(self):
        code, out = run_cli("order",
                            str(DATA_DIR / "datum_nonminimal_n2e2j2p3.json"))
        assert code == 0
        block = extract_block(out)
        assert block["blocks"][0]["minimal"] is False
        assert block["blocks"][0]["k0"] > block["blocks"][0]["v_A_beta"]

    def test_order_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _ = run_cli("order", str(bad))
        assert code == 2

    def test_order_missing_file(self):
        code, _ = run_cli("order", "no-such-file.json")
        assert code == 2

    def test_order_bad_period(self, tmp_path):
        bad = tmp_path / "bad_e.json"
        bad.write_text(canonical_dumps({
            "kind": "supercuspidal", "p": 3, "n": 2, "e": 3, "j": 1,
            "beta": {"scale": -1, "entries": [[0, 1], [3, 0]]}}))
        code, _ = run_cli("order", str(bad))
        assert code == 2

    def test_exponent_values(self):
        code, out = run_cli("exponent", "2")
        assert code == 0
        assert extract_block(out)["bound_exponent"] == "15/64"
        code, out = run_cli("exponent", "3")
        assert code == 0
        assert extract_block(out)["bound_exponent"] == "107/216"

    def test_exponent_small_n(self):
        code, _ = run_cli("exponent", "1")
        assert code == 2

    def test_verify_empty_checkset(self):
        code, _ = run_cli("verify", str(DATA_DIR / "datum_n2e2j1p3.json"),
                          "--checks", "")
        assert code == 2

    def test_verify_unknown_check(self):
        code, _ = run_cli("verify", str(DATA_DIR / "datum_n2e2j1p3.json"),
                          "--checks", "nonsense")
        assert code == 2

    def test_verify_nonminimal_rejected(self):
        code, _ = run_cli("verify",
                          str(DATA_DIR / "datum_nonminimal_n2e2j2p3.json"))
        assert code == 2

    def test_verify_single_check(self):
        code, out = run_cli("verify", str(DATA_DIR / "datum_n2e2j1p3.json"),
                            "--checks", "convolution")
        assert code == 0
        block = extract_block(out)
        assert block["checks"]["convolution"]["detail"]["d_pi"] == "1/16"

    def test_count_pass(self):
        code, out = run_cli("count", str(DATA_DIR / "query_m1_shallow.json"))
        assert code == 0
        block = extract_block(out)
        assert block["count"] == 20 and block["abelian"] is False

    def test_count_budget(self):
        code, _ = run_cli("--budget", "10", "count",
                          str(DATA_DIR / "query_m1_shallow.json"))
        assert code == 4


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code = cli.main(["--seed", "11", "--out", str(out), "verify",
                             str(DATA_DIR / "datum_n2e2j1p3.json")])
            assert code == 0
        ta, tb = a.read_text(), b.read_text()
        # timings live in the human section only; compare blocks byte-wise
        assert extract_block(ta) == extract_block(tb)
        assert canonical_dumps(extract_block(ta)) == \
            canonical_dumps(extract_block(tb))

    def test_count_fully_deterministic(self, tmp_path):
        outs = []
        for name in ("x.txt", "y.txt"):
            path = tmp_path / name
            code = cli.main(["--out", str(path), "count",
                             str(DATA_DIR / "query_m4_shallow.json")])
            assert code == 0
            outs.append(canonical_dumps(extract_block(path.read_text())))
        assert outs[0] == outs[1]


class TestGolden:
    def test_subgroup_dump(self, block_a):
        want = (GOLDEN_DIR / "h1_n2e2j1p3.subgroup.txt").read_text()
        got = "\n".join(block_a.bundle.h1.dump_lines()) + "\n"
        assert got == want

    def test_character_dump(self, block_a):
        want = (GOLDEN_DIR / "theta_n2e2j1p3.character.txt").read_text()
        got = "\n".join(block_a.simple.theta.dump_lines()) + "\n"
        assert got == want

    def test_order_block(self):
        code, out = run_cli("order", str(DATA_DIR / "datum_n2e2j1p3.json"))
        assert code == 0
        want = json.loads((GOLDEN_DIR / "order_n2e2j1p3.block.json").read_text())
        assert extract_block(out) == want

    def test_exponent_block(self):
        code, out = run_cli("exponent", "2")
        assert code == 0
        want = json.loads((GOLDEN_DIR / "exponent_n2.block.json").read_text())
        assert extract_block(out) == want

    def test_count_block(self):
        code, out = run_cli("count", str(DATA_DIR / "query_m4_deep.json"))
        assert code == 0
        want = json.loads((GOLDEN_DIR / "count_m4_deep.block.json").read_text())
        assert extract_block(out) == want

    @pytest.mark.parametrize("name", ["n2e2j1p3", "n2e1j2p3", "parabolic_n4p3"])
    def test_verify_block(self, name):
        # pins the sampled counts (off-support zeros, spot nonmembers,
        # off-support convolution points) as well as every verdict
        code, out = run_cli("--seed", "0", "verify",
                            str(DATA_DIR / f"datum_{name}.json"))
        assert code == 0
        want = json.loads((GOLDEN_DIR / f"verify_{name}.block.json").read_text())
        assert extract_block(out) == want


class TestConsoleEntry:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "minvec.cli",
                               "exponent", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "15/64" in proc.stdout


class TestParabolicCli:
    def test_verify_parabolic(self):
        code, out = run_cli("verify", str(DATA_DIR / "datum_parabolic_n4p3.json"))
        assert code == 0
        block = extract_block(out)
        conv = block["checks"]["convolution"]["detail"]
        assert conv["mode"] == "sampled"
        assert conv["support_ok"] and conv["offsupport_ok"]

    def test_report_all_small_dir(self, tmp_path):
        for name in ("datum_n2e2j1p3.json", "query_m1_shallow.json"):
            (tmp_path / name).write_text((DATA_DIR / name).read_text())
        out_file = tmp_path / "report.txt"
        code = cli.main(["--out", str(out_file), "report-all", str(tmp_path)])
        assert code == 0
        text = out_file.read_text()
        assert text.count("BEGIN STRUCTURED BLOCK") == 5  # order+verify+count+2 exponents
        assert "minvec report: exponent" in text


class TestOmegaCheck:
    def test_full_support_terminates(self, kr_a, monkeypatch):
        # a support that is all of K leaves no off-support point to find
        monkeypatch.setattr(testfunc.TestFunction, "exponent",
                            lambda self, residues: 0)
        args = argparse.Namespace(seed=0, budget=5_000_000)
        verdict, section, _ = cli._check_omega([], kr_a, args)
        assert verdict == "PASS"
        assert section["off_support_zeros_sampled"] == 0


class TestSingleScan:
    @pytest.mark.parametrize("name, groups_scanned", [
        ("datum_n2e2j1p3", 2),    # U_A(1) for the trace formula, H1 = B1
        ("datum_n2e1j2p3", 3),    # U_A(2), H1, B1
    ])
    def test_one_scan_per_group_and_character(self, name, groups_scanned,
                                              tmp_path, monkeypatch):
        from minvec import groups
        scans = []
        keys = set()
        scan, verify = groups.FiniteSubgroup.pair_scan, groups.verify_character

        def counted_scan(self, fns):
            scans.append(id(self))
            return scan(self, fns)

        def keyed_verify(sub, nums, denom, *args, **kwargs):
            keys.add((id(sub), np.asarray(nums, np.int64).tobytes(), denom))
            return verify(sub, nums, denom, *args, **kwargs)

        monkeypatch.setattr(groups.FiniteSubgroup, "pair_scan", counted_scan)
        for module in (groups, testfunc):
            monkeypatch.setattr(module, "verify_character", keyed_verify)
        code = cli.main(["verify", str(DATA_DIR / f"{name}.json"),
                         "--out", str(tmp_path / "report.txt")])
        assert code == cli.EXIT_PASS
        assert len(scans) == len(keys) == groups_scanned
        assert Counter(scans) == Counter(group for group, _, _ in keys)

    def test_broken_b1_is_a_construction_failure(self, tmp_path, monkeypatch,
                                                 capsys):
        # heisenberg does not closure-check B1 itself; the product scan of
        # the character extension must still reject a B1 missing one element
        from minvec import groups
        broken = []

        class DropLast(groups.FiniteSubgroup):
            def __init__(self, name, p, level, n, mats=None, **kwargs):
                if name == "B1":
                    mats = mats[:-1]
                    broken.append(self)
                super().__init__(name, p, level, n, mats, **kwargs)

        monkeypatch.setattr(groups, "FiniteSubgroup", DropLast)
        code = cli.main(["verify", str(DATA_DIR / "datum_n2e1j2p3.json"),
                         "--out", str(tmp_path / "report.txt")])
        assert code == cli.EXIT_CONSTRUCTION
        err = capsys.readouterr().err
        assert "B1 is not closed under products" in err
        # the reported pair really multiplies out of B1
        i, k = map(int, re.search(r"witness indices (\d+), (\d+)", err).groups())
        b1, = broken
        assert not b1.contains_residues(b1.mats[i] @ b1.mats[k])
