import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, GOLDEN_DIR
from oracles import (character_dump_lines, contains, first_outside_h1,
                     omega_exponent, row_disagrees, serialize_spec,
                     subgroup_dump_lines, with_flipped_block, without_coset)

from minvec import cli, testfunc
from minvec.groups import FiniteSubgroup
from minvec.residues import (Draws, contains_codes, det_inv_mod, pack,
                             sample_units_outside)
from minvec.datafiles import (canonical_dumps, extract_block, load_datum,
                              parse_datum_text, parse_query_text)
from minvec.errors import DatumInvalid


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestDatumFiles:
    def test_roundtrip_all_shipped(self):
        # parse then reserialize reproduces the bytes of every shipped file
        for path in sorted(DATA_DIR.glob("*.json")):
            text = path.read_text()
            parse = parse_query_text if json.loads(text).get("kind") == \
                "lattice-query" else parse_datum_text
            assert serialize_spec(parse(text)) == text, path

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

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_inequivalent_must_be_a_boolean(self, tmp_path, value, capsys):
        # "false" is a truthy string: it must not assert inequivalence
        obj = json.loads((DATA_DIR / "datum_parabolic_n4p3.json").read_text())
        obj["inequivalent"] = value
        with pytest.raises(DatumInvalid, match="inequivalent"):
            parse_datum_text(canonical_dumps(obj))
        bad = tmp_path / "bad_parabolic.json"
        bad.write_text(canonical_dumps(obj))
        code, _ = run_cli("verify", str(bad), "--checks", "character")
        assert code == 2
        assert "inequivalent must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [3.0, "3", True])
    def test_parabolic_p_must_be_a_prime_integer(self, tmp_path, value,
                                                 capsys):
        # 3.0 == 3 equals the blocks' p, yet it is no integer
        obj = json.loads((DATA_DIR / "datum_parabolic_n4p3.json").read_text())
        obj["p"] = value
        bad = tmp_path / "bad_parabolic.json"
        bad.write_text(canonical_dumps(obj))
        code, _ = run_cli("verify", str(bad))
        assert code == 2
        assert "must be a prime integer" in capsys.readouterr().err

    def test_serialize_is_canonical(self):
        spec = load_datum(DATA_DIR / "datum_n2e2j1p3.json")
        assert serialize_spec(spec) == \
            (DATA_DIR / "datum_n2e2j1p3.json").read_text()


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

    @pytest.mark.parametrize("command", ["report-all", "verify", "count"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys,
                                             command):
        # exit 1 would claim a falsified identity
        (tmp_path / "b.json").write_bytes(b"\xff\xfe")
        target = tmp_path if command == "report-all" else tmp_path / "b.json"
        assert cli.main([command, str(target)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: b.json: not UTF-8 text\n"

    def test_directory_named_json_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "x.json").mkdir()
        assert cli.main(["report-all", str(tmp_path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: x.json: cannot read: ")
        assert captured.out == ""

    def test_order_bad_period(self, tmp_path):
        bad = tmp_path / "bad_e.json"
        bad.write_text(canonical_dumps({
            "kind": "supercuspidal", "p": 3, "n": 2, "e": 3, "j": 1,
            "beta": {"scale": -1, "entries": [[0, 1], [3, 0]]}}))
        code, _ = run_cli("order", str(bad))
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("p", 4), ("p", True), ("p", 3.0), ("n", True), ("e", True),
        ("j", True), ("scale", "x"), ("scale", True), ("scale", -1.0),
    ])
    def test_order_rejects_bad_field(self, tmp_path, key, value, capsys):
        obj = json.loads((DATA_DIR / "datum_n2e2j1p3.json").read_text())
        (obj["beta"] if key == "scale" else obj)[key] = value
        bad = tmp_path / "bad_datum.json"
        bad.write_text(canonical_dumps(obj))
        code, _ = run_cli("order", str(bad))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_precision_margin_is_gone(self):
        code, _ = run_cli("order", str(DATA_DIR / "datum_n2e2j1p3.json"),
                          "--precision-margin", "1")
        assert code == 2

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_negative_seed_is_a_usage_error(self, where, capsys):
        # exit 1 means a falsified identity; a bad flag is exit 2, and -1
        # must not alias seed 1
        datum = str(DATA_DIR / "datum_n2e2j3p3.json")
        argv = (["--seed", "-1", "verify", datum] if where == "before"
                else ["verify", datum, "--seed", "-1"])
        code, _ = run_cli(*argv)
        assert code == 2
        assert "--seed must be a non-negative integer" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("gens", [
        [[[1, 0, 0, 4]]],                                   # a 1 x 4 matrix
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],                # 3 x 3 for n = 2
        [[[0.5, 0], [0, 1]]],                               # not an integer
    ], ids=["flat-row", "wrong-size", "fraction"])
    def test_count_rejects_bad_generator(self, tmp_path, gens, capsys):
        bad = tmp_path / "bad_query.json"
        bad.write_text(canonical_dumps({
            "kind": "lattice-query", "n": 2, "m": 4, "entry_bound": 4,
            "p": 3, "c": 2, "torus_generators": gens}))
        code, _ = run_cli("count", str(bad))
        assert code == 2
        assert "2 x 2 integer matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "m", "entry_bound", "p", "c"])
    def test_count_rejects_non_integer_field(self, tmp_path, key):
        obj = {"kind": "lattice-query", "n": 2, "m": 4, "entry_bound": 4,
               "p": 3, "c": 2, "torus_generators": []}
        obj[key] = 2.0
        bad = tmp_path / "bad_query.json"
        bad.write_text(canonical_dumps(obj))
        code, _ = run_cli("count", str(bad))
        assert code == 2

    @pytest.mark.parametrize("p", [4, 1])
    def test_count_rejects_non_prime(self, tmp_path, p, capsys):
        obj = json.loads((DATA_DIR / "query_m1_shallow.json").read_text())
        obj["p"] = p
        bad = tmp_path / "bad_query.json"
        bad.write_text(canonical_dumps(obj))
        code, out = run_cli("count", str(bad))
        assert code == 2 and out == ""
        assert "must be a prime integer" in capsys.readouterr().err


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
        got = "\n".join(subgroup_dump_lines(block_a.bundle.h1)) + "\n"
        assert got == want

    def test_character_dump(self, block_a):
        want = (GOLDEN_DIR / "theta_n2e2j1p3.character.txt").read_text()
        got = "\n".join(character_dump_lines(block_a.simple.theta)) + "\n"
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

    @pytest.mark.parametrize("name", ["n2e2j1p3", "n2e1j2p3", "parabolic_n4p3",
                                      "n3e3j2p2"])
    def test_verify_block(self, name):
        # pins the sampled counts (the parabolic convolution's points) and
        # the certified ones (0 off-support points on an enumerated
        # support) as well as every verdict
        code, out = run_cli("--seed", "0", "verify",
                            str(DATA_DIR / f"datum_{name}.json"))
        assert code == 0
        want = json.loads((GOLDEN_DIR / f"verify_{name}.block.json").read_text())
        assert extract_block(out) == want


# keys that could read only one value, or that copied another section's
RETIRED_KEYS = {"multiplicative", "inner_product", "restriction_is_multiple",
                "restriction_inner", "omega_at_identity", "closure_certified",
                "cfrak_band_ok"}
RETIRED_DEPTH_KEYS = {"d_pi", "volume_bounded"}


class TestSectionModes:
    def test_every_section_says_its_mode(self):
        # on the verify goldens and on every verify block of a live
        # report-all, each section and each per-block entry carries mode
        blocks = [json.loads((GOLDEN_DIR / f"verify_{name}.block.json")
                             .read_text())
                  for name in ("n2e2j1p3", "n2e1j2p3", "parabolic_n4p3",
                               "n3e3j2p2")]
        code, out = run_cli("report-all", str(DATA_DIR))
        assert code == 0
        live = [extract_block(piece) for piece in
                out.split("minvec report: ")[1:] if piece.startswith("verify")]
        assert live
        for block in blocks + live:
            assert set(block["checks"]) == set(cli.ALL_CHECKS)
            for name, section in block["checks"].items():
                detail = section["detail"]
                for entry in detail if isinstance(detail, list) else [detail]:
                    assert "mode" in entry, (block["input"], name)
                    assert not RETIRED_KEYS & set(entry), name
            assert not (RETIRED_KEYS | RETIRED_DEPTH_KEYS) \
                & set(block["depth_report"])
        # every shipped datum sweeps at the default budget
        assert [entry["mode"] for block in live for entry in
                block["checks"]["intertwine"]["detail"]] == ["sweep"] * 6


class TestConsoleEntry:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "minvec.cli",
                               "exponent", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "15/64" in proc.stdout

    def test_verify_leaves_numpy_ma_unimported(self, tmp_path):
        # a bare np.unique imports numpy.ma on first use, 14-19 ms a process
        script = ("import sys\nfrom minvec import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(code, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify",
             str(DATA_DIR / "datum_n2e2j3p3.json"),
             "--out", str(tmp_path / "report.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


    def test_report_all_leaves_numpy_random_unimported(self, tmp_path):
        # seeded draws come from the standard library's random.Random;
        # numpy.random pulls in secrets, hmac and OpenSSL's _hashlib
        script = ("import sys\nfrom minvec import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(code, 'numpy.random' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        proc = subprocess.run(
            [sys.executable, "-c", script, "report-all", str(DATA_DIR),
             "--out", str(tmp_path / "report.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="thread count read from /proc")
    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
    def test_verify_runs_on_one_thread(self, tmp_path, preset, want):
        # the kernels are integer and never reach BLAS, so OpenBLAS's
        # worker pool is kept to the main thread unless the caller sets it
        script = ("import os, sys\nfrom minvec import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(code, os.environ['OPENBLAS_NUM_THREADS'],\n"
                  "      len(os.listdir('/proc/self/task')))\n")
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify",
             str(DATA_DIR / "datum_n2e2j3p3.json"),
             "--out", str(tmp_path / "report.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        code, value, threads = proc.stdout.split()
        assert (code, value) == ("0", want), proc.stderr
        if preset is None:
            assert threads == "1"


class TestReportAll:
    def test_verify_reuses_the_checked_build(self, tmp_path, monkeypatch):
        from minvec import datafiles
        built = []
        build = datafiles.DatumSpec.build

        def recording(self, *args, **kwargs):
            built.append(self.j)
            return build(self, *args, **kwargs)

        monkeypatch.setattr(datafiles.DatumSpec, "build", recording)
        (tmp_path / "datum.json").write_text(
            (DATA_DIR / "datum_n2e2j1p3.json").read_text())
        code, out = run_cli("report-all", str(tmp_path))
        assert code == 0 and "minvec report: verify" in out
        # one build, shared by the order report and the verify half
        assert built == [1]

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                      '{"kind": "weird"}'],
                             ids=["malformed", "list", "unknown-kind"])
    def test_bad_file_exits_2_naming_it(self, tmp_path, capsys, text):
        (tmp_path / "datum.json").write_text(
            (DATA_DIR / "datum_n2e2j1p3.json").read_text())
        (tmp_path / "later.json").write_text(text)
        assert cli.main(["report-all", str(tmp_path)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: later.json: ")
        # every file is parsed before the first report is run
        assert captured.out == ""


class TestParabolicCli:
    def test_verify_parabolic(self):
        code, out = run_cli("verify", str(DATA_DIR / "datum_parabolic_n4p3.json"))
        assert code == 0
        block = extract_block(out)
        conv = block["checks"]["convolution"]["detail"]
        assert conv["mode"] == "sampled"
        assert conv["support_ok"] and conv["offsupport_ok"]

    def test_seed_reaches_build_kpi(self, tmp_path, monkeypatch):
        from minvec import groups
        seeds = []
        build = groups.build_Kpi

        def recording(blocks, **kwargs):
            seeds.append(kwargs.get("seed", 0))
            return build(blocks, **kwargs)

        monkeypatch.setattr(groups, "build_Kpi", recording)
        code = cli.main(["--seed", "7", "--out", str(tmp_path / "r.txt"),
                         "verify", str(DATA_DIR / "datum_parabolic_n4p3.json"),
                         "--checks", "character"])
        assert code == 0
        assert seeds == [7]

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
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("kr_name", ["kr_a", "kr_c", "parabolic_kr"])
    def test_member_mask_is_omega_support(self, kr_name, seed, request):
        # sample_units_outside decides its draws by one stacked
        # member_mask; the per-draw omega exponent must agree on every unit
        # drawn.  K_pi membership puts every diagonal block in its B1, so
        # theta is defined at every member
        kr = request.getfixturevalue(kr_name)
        tf, kpi = testfunc.make_omega(kr), kr.kpi
        seen = []

        def inside(gs):
            mask = kpi.member_mask(gs)
            assert mask.tolist() == [omega_exponent(tf, g) is not None
                                     for g in gs]
            seen.append(len(gs))
            return mask
        list(sample_units_outside(inside, kpi.p, kpi.level, kr.n,
                                  Draws(seed), 2000))
        assert sum(seen) > 0


def witness_of(msg):
    """The matrix that a FAIL message names."""
    return np.array(json.loads(re.search(r"(\[\[.*\]\])", msg).group(1)))


class TestFailingSections:
    """Each boolean of a verify block reads false on a named input, through
    the CLI's section builders."""

    args = argparse.Namespace(seed=0, budget=5_000_000)

    def test_support_ok(self, parabolic_kr):
        # block 0's theta~ wrong at one element breaks the termwise law at
        # the first drawn pair that meets it
        kr = with_flipped_block(parabolic_kr)
        verdict, section, msg = cli._check_convolution(kr.blocks, kr,
                                                       self.args)
        assert (verdict, section["support_ok"], section["offsupport_ok"]) \
            == ("FAIL", False, True)
        gs = kr.sampler(Draws(0), testfunc.CONVOLVE_SAMPLES)
        assert np.array_equal(witness_of(msg), gs[section["support_points"]])

    def test_offsupport_ok(self, parabolic_kr):
        # K_pi widened by the coset h^-1 K_pi, h = I + E_20, is no group:
        # an off-support g carries x = g h^-1 of K_pi to h^-1 inside it
        kpi = parabolic_kr.kpi
        h = np.eye(4, dtype=np.int64)
        h[2, 0] = 1
        hinv = det_inv_mod(h[None], kpi.p, kpi.level)[1][0]

        def member_mask(mats):
            return kpi.member_mask(mats) | \
                kpi.member_mask(h @ mats % kpi.modulus)

        widened = FiniteSubgroup("K_pi+coset", kpi.p, kpi.level, kpi.n,
                                 membership=member_mask, size=kpi.size)
        kr = dataclasses.replace(parabolic_kr, kpi=widened)
        verdict, section, msg = cli._check_convolution(kr.blocks, kr,
                                                       self.args)
        assert (verdict, section["support_ok"], section["offsupport_ok"]) \
            == ("FAIL", True, False)
        g = witness_of(msg)
        x = g @ hinv % kpi.modulus
        assert not contains(widened, g) and contains(kpi, x)
        ginv = det_inv_mod(g[None], kpi.p, kpi.level)[1][0]
        assert contains(widened, ginv @ x % kpi.modulus)

    def test_volume_bounded(self, parabolic_kr):
        # a membership-only K_pi whose size is p^(2n^2+1) too large moves
        # v_p(1/d_pi) out of the band of n^2 around c(n^2 - n)/2
        kpi, n = parabolic_kr.kpi, parabolic_kr.n
        big = FiniteSubgroup(kpi.name, kpi.p, kpi.level, n,
                             membership=kpi.member_mask,
                             size=kpi.size * kpi.p ** (2 * n * n + 1))
        kr = dataclasses.replace(parabolic_kr, kpi=big)
        verdict, section, msg = cli._check_convolution(kr.blocks, kr,
                                                       self.args)
        assert (verdict, section["volume_bounded"]) == ("FAIL", False)
        assert section["support_ok"] and section["offsupport_ok"]
        v = section["v_p_inverse_volume"]
        assert f"v_p(1/d_pi) = {v} is not within n^2" in msg
        assert abs(v - Fraction(section["target_exponent"])) > n * n

    def test_dichotomy(self, block_a):
        # J cap K without one H1 coset: the coset intertwines theta, and
        # the sweep's witness is a unit of it that the broken J cap K
        # leaves out.  (The spot path's 40 draws miss this coset at seed 0:
        # ROADMAP item 2.)
        bundle, _, coset = without_coset(block_a.bundle,
                                         first_outside_h1(block_a.bundle))
        blk = dataclasses.replace(block_a, bundle=bundle)
        verdict, out, msg = cli._check_intertwine([blk], None, self.args)
        assert (verdict, out[0]["mode"], out[0]["dichotomy"]) == \
            ("FAIL", "sweep", False)
        g = witness_of(msg)
        assert contains_codes(coset, pack(g[None], 3, bundle.level)).all()


class TestVolumeOnce:
    @pytest.mark.parametrize("checks, calls", [(None, 1), ("character", 0)])
    def test_once_per_verify(self, tmp_path, monkeypatch, checks, calls):
        # depth_report reads no volume; the convolution section's is the
        # only one
        seen = []
        volume = testfunc.volume

        def counting(kr):
            seen.append(kr)
            return volume(kr)

        monkeypatch.setattr(testfunc, "volume", counting)
        argv = ["--out", str(tmp_path / "r.txt"), "verify",
                str(DATA_DIR / "datum_n2e2j1p3.json")]
        assert cli.main(argv + (["--checks", checks] if checks else [])) == 0
        assert len(seen) == calls


class TestGeneratorCertificate:
    @pytest.mark.parametrize("name, group", [("datum_n2e2j1p3", "H1"),
                                             ("datum_n2e2j3p3", "H1"),
                                             ("datum_n2e1j2p3", "B1")],
                             ids=["datum_n2e2j1p3", "datum_n2e2j3p3",
                                  "datum_n2e1j2p3"])
    def test_falsified_character_names_a_failing_row(
            self, name, group, tmp_path, monkeypatch, capsys):
        # a table wrong at one element, given to extend_character (the
        # trace formula on U_A extended to H1, or theta extended to B1),
        # exits 3; the witness (i, s) must name a generator s and a g_i
        # whose convolution row disagrees in the extended table
        from minvec import groups
        extend, verify = groups.extend_character, groups.verify_character
        tables = []

        def flip_one(target, sub_codes, sub_nums, denom, denom_hint=None):
            if target.name == group:
                sub_nums = np.array(sub_nums)
                sub_nums[len(sub_nums) // 2] += 1
            return extend(target, sub_codes, sub_nums, denom, denom_hint)

        def recording(sub, nums, denom, **kwargs):
            tables.append((sub, nums, denom))
            return verify(sub, nums, denom, **kwargs)

        monkeypatch.setattr(groups, "extend_character", flip_one)
        monkeypatch.setattr(groups, "verify_character", recording)
        code = cli.main(["verify", str(DATA_DIR / f"{name}.json"),
                         "--out", str(tmp_path / "report.txt")])
        assert code == cli.EXIT_CONSTRUCTION
        err = capsys.readouterr().err
        assert f"no multiplicative extension found on {group}" in err
        i, s = map(int, re.search(r"at generator pair \(i, s\) = "
                                  r"\((\d+), (\d+)\)", err).groups())
        sub, nums, denom = tables[-1]
        assert sub.name == group
        assert s in {int(perm[sub.identity_index()])
                     for perm in sub._generator_tree()[1]}
        assert row_disagrees(sub, nums, denom, i)

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
        assert not contains(b1, b1.mats[i] @ b1.mats[k])


# beta = p^-1 [[0, 1, 0], [0, 0, 1], [3, 0, 0]] at p = 3: n = 3, e = 3, j = 2
N3_DATUM = {"beta": {"entries": [[0, 1, 0], [0, 0, 1], [3, 0, 0]],
                     "scale": -1},
            "e": 3, "j": 2, "kind": "supercuspidal", "n": 3, "p": 3}


class TestSpotFallback:
    def test_budget_between_the_groups_and_the_gate(self):
        # datum c lists at most B1's 2,187 elements; its sweep would list
        # the 3,888 units of GL_2(Z/9), so at --budget 3000 the intertwine
        # section falls back to spot and says why.  Every other section is
        # the golden's.
        code, out = run_cli("--seed", "0", "verify",
                            str(DATA_DIR / "datum_n2e1j2p3.json"),
                            "--budget", "3000")
        assert code == 0
        block = extract_block(out)
        want = json.loads((GOLDEN_DIR / "verify_n2e1j2p3.block.json")
                          .read_text())
        assert block["checks"].pop("intertwine") == {
            "detail": [{"block": 0, "mode": "spot", "gate": 3888,
                        "budget": 3000, "members_checked": 40,
                        "nonmembers_checked": 40, "dichotomy": True}],
            "verdict": "PASS"}
        del want["checks"]["intertwine"]
        assert block == want


class TestHonestExits:
    def test_small_budget_exits_4_before_allocating(self, tmp_path):
        datum = tmp_path / "datum_n3e3j2p3.json"
        datum.write_text(json.dumps(N3_DATUM))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
        proc = subprocess.run([sys.executable, "-m", "minvec.cli", "verify",
                               str(datum), "--budget", "1000"],
                              capture_output=True, text=True, env=env,
                              timeout=20)
        assert proc.returncode == cli.EXIT_BUDGET
        assert "budget exceeded" in proc.stderr

    def test_count_over_budget_builds_no_torus(self, monkeypatch, capsys):
        # the search stops on its candidate count, before any torus lookup:
        # query_m4_deep's closure has 531,441 elements
        from minvec.counting import LatticeQuery
        calls = []
        monkeypatch.setattr(LatticeQuery, "torus_set",
                            lambda self, *args: calls.append(args))
        code = cli.main(["count", "--budget", "200",
                         str(DATA_DIR / "query_m4_deep.json")])
        assert code == cli.EXIT_BUDGET
        assert "enumeration budget exceeded" in capsys.readouterr().err
        assert calls == []

    def test_count_budget_reaches_the_torus_closure(self, capsys):
        # the search scans far fewer than 100,000 candidates; the closure of
        # 531,441 elements is what exceeds that budget
        query = str(DATA_DIR / "query_m4_deep.json")
        assert cli.main(["count", query, "--budget", "100000"]) \
            == cli.EXIT_BUDGET
        assert "torus closure exceeded budget" in capsys.readouterr().err
        code, out = run_cli("count", query, "--budget", "600000")
        assert code == 0
        want = json.loads((GOLDEN_DIR / "count_m4_deep.block.json").read_text())
        assert extract_block(out) == want

    def test_memory_error_exits_4_and_names_the_stage(self, tmp_path,
                                                      monkeypatch, capsys):
        from minvec import groups

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(groups, "unit_sumset", exhausted)
        datum = str(DATA_DIR / "datum_n2e2j1p3.json")
        assert cli.main(["verify", datum]) == cli.EXIT_BUDGET
        assert "out of memory in groups.build_subgroups" in \
            capsys.readouterr().err
        (tmp_path / "datum.json").write_text(Path(datum).read_text())
        code, out = run_cli("report-all", str(tmp_path))
        assert code == cli.EXIT_BUDGET
        assert "SKIPPED (budget): out of memory in groups.build_subgroups" \
            in out
