"""minvec benchmark: CLI workloads timed in fresh interpreters.

Run from the repository root:

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 20 \\
        --trace 0

--trace 0 times untraced `python -m minvec.cli` processes, one new
interpreter per repetition, for --seconds seconds, and reports the
end-to-end metrics.  --trace 1 makes one traced in-process run (see
traced.py) after one untraced run, and reports the per-layer metrics.
Every output is checked against known answers.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 7
DEADLINE_S = 170            # the whole run, so it ends inside 180 s
MIN_COLD_TORUS_S = 0.1      # a cached torus_set returns in microseconds

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


def spawn(argv, out_path, env):
    """Run argv to completion; (exit code, wall seconds, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_path) + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage


class Runner:
    def __init__(self, workload, seed, workdir):
        self.wl = workload
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.cli_lists = workload.prepare(workdir, seed)
        self.items = []
        self.serial = 0

    def _out(self, tag):
        self.serial += 1
        return self.workdir / f"{tag}-{self.serial}.out"

    def cli_run(self):
        """One untraced workload run, one fresh process per invocation."""
        wall = cpu = 0.0
        rss = 0
        results = []
        for cli_args in self.cli_lists:
            out = self._out("cli")
            code, w, usage = spawn(
                [sys.executable, "-m", "minvec.cli", *cli_args], out, self.env)
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
            results.append((code, out.read_text()))
        self.items += self.wl.check(results)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss / 1024}

    def setup_run(self):
        out = self._out("setup")
        code, wall, _ = spawn([sys.executable, str(HERE / "setup_probe.py"),
                               *self.cli_lists[0]], out, self.env)
        self.items.append(("set-up probe exit 0", code == 0))
        return wall

    def traced_run(self):
        """One traced run per invocation; spans merged in call order."""
        spans, counters, results, wall = [], {}, [], 0.0
        for cli_args in self.cli_lists:
            out = self._out("traced")
            spans_path = out.with_suffix(".spans.json")
            code, w, _ = spawn([sys.executable, str(HERE / "traced.py"),
                                str(spans_path), "--", *cli_args],
                               out, self.env)
            if not spans_path.is_file():
                sys.stderr.write(Path(str(out) + ".err").read_text())
                raise SystemExit(f"perfbench: traced run failed (exit {code})")
            trace = json.loads(spans_path.read_text())
            base = len(spans)
            spans += [[s[0], s[1] + base if s[1] >= 0 else -1, *s[2:]]
                      for s in trace["spans"]]
            for key, value in trace["counters"].items():
                counters[key] = max(counters.get(key, 0), value) \
                    if key == "counting.torus_elements" \
                    else counters.get(key, 0) + value
            results.append((code, out.read_text()))
            wall += w
        self.items += self.wl.check(results)
        return Trace(spans, counters), wall


class Trace:
    """Span arithmetic: totals, self times and peak-RSS rises by name."""

    def __init__(self, spans, counters):
        self.spans = spans
        self.counters = counters
        self.dur = [s[3] - s[2] for s in spans]
        self.child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                self.child[s[1]] += self.dur[i]

    def total(self, *names):
        return sum(d for s, d in zip(self.spans, self.dur) if s[0] in names)

    def self_time(self, *names):
        return sum(d - c for s, d, c in zip(self.spans, self.dur, self.child)
                   if s[0] in names)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def rise_mib(self, name):
        return sum(s[4] for s in self.spans if s[0] == name) / 1024

    def count(self, key):
        return self.counters.get(key, 0)

    def stage_rows(self):
        """Inclusive stage times per verified datum, as in the ROADMAP."""
        stages = {"build_subgroups": ("groups.build_subgroups",),
                  "simple_character": ("groups.simple_character",),
                  "heisenberg": ("groups.heisenberg",),
                  "extend_and_induce": ("groups.extend_and_induce",),
                  "build_Kpi": ("groups.build_Kpi",),
                  "convolve_check": ("testfunc.convolve_check",),
                  "intertwining": ("groups.intertwining_dichotomy",
                                   "groups.intertwining_spot")}
        owner = [None] * len(self.spans)
        rows = {}
        for i, s in enumerate(self.spans):
            if s[0] == "cli.cmd_verify":
                owner[i] = s[5]
                rows[s[5]] = {k: 0.0 for k in stages}
                rows[s[5]]["intertwining_mode"] = "sweep"
            elif s[1] >= 0:
                owner[i] = owner[s[1]]
        for i, s in enumerate(self.spans):
            row = rows.get(owner[i])
            if row is None:
                continue
            for stage, names in stages.items():
                if s[0] in names:
                    row[stage] += self.dur[i]
            if s[0] == "groups.intertwining_spot":
                row["intertwining_mode"] = "spot"
        return rows


def layer_metrics(t: Trace) -> dict:
    cands = t.count("counting.candidates_scanned")
    return {
        "orders.build_s": (t.total("orders.build"), "s"),
        "orders.build_calls": (t.calls("orders.build"), "count"),
        "orders.k0_s": (t.total("orders.k0"), "s"),
        "orders.k0_nodes": (t.count("orders.k0_nodes"), "count"),
        "groups.build_subgroups_s": (t.total("groups.build_subgroups"), "s"),
        "groups.elements_enumerated":
            (t.count("groups.elements_enumerated"), "count"),
        "groups.build_subgroups.peak_rise_mib":
            (t.rise_mib("groups.build_subgroups"), "MiB"),
        "groups.simple_character_s":
            (t.self_time("groups.simple_character"), "s"),
        "groups.verify_character_s": (t.total("groups.verify_character"), "s"),
        "groups.verify_character_calls":
            (t.calls("groups.verify_character"), "count"),
        "groups.pairs_scanned": (t.count("groups.pairs_scanned"), "count"),
        "groups.heisenberg_s": (t.total("groups.heisenberg"), "s"),
        "groups.extend_and_induce_s":
            (t.self_time("groups.extend_and_induce"), "s"),
        "groups.intertwining_s": (t.total("groups.intertwining_dichotomy",
                                          "groups.intertwining_spot"), "s"),
        "groups.intertwining_conjugators":
            (t.count("groups.intertwining_conjugators"), "count"),
        "groups.intertwining_sweeps":
            (t.count("groups.intertwining_sweeps"), "count"),
        "groups.intertwining_spots":
            (t.count("groups.intertwining_spots"), "count"),
        "groups.build_Kpi_s": (t.total("groups.build_Kpi"), "s"),
        "testfunc.convolve_s": (t.total("testfunc.convolve_check"), "s"),
        "testfunc.convolve_pairs": (t.count("testfunc.convolve_pairs"), "count"),
        "testfunc.convolve.peak_rise_mib":
            (t.rise_mib("testfunc.convolve_check"), "MiB"),
        "testfunc.concentration_s":
            (t.total("testfunc.concentration_check"), "s"),
        "testfunc.volume_s": (t.total("testfunc.volume"), "s"),
        "counting.torus_set_s": (t.total("counting.torus_set"), "s"),
        "counting.torus_elements":
            (t.count("counting.torus_elements"), "count"),
        "counting.torus_set.peak_rise_mib":
            (t.rise_mib("counting.torus_set"), "MiB"),
        "counting.enumerate_S_s": (t.self_time("counting.enumerate_S"), "s"),
        "counting.candidates_scanned": (cands, "count"),
        "counting.match_ratio":
            (t.count("counting.matches") / cands if cands else 0.0, "ratio"),
        "datafiles.load_s": (t.total("datafiles.load_datum",
                                     "datafiles.load_query"), "s"),
        "datafiles.render_report_s":
            (t.total("datafiles.render_report"), "s"),
        "cli.self_s": (t.self_time(*{s[0] for s in t.spans
                                     if s[0].startswith("cli.")}), "s"),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    # inclusive: with the few repetitions of one run, stay inside the data
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(runner, seconds, lines):
    setup = [runner.setup_run() for _ in range(SETUP_REPS)]
    reps = []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(runner.cli_run())
    samples = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        samples[key] = [r[key] for r in reps]
    metrics = {}
    for name, unit in END_TO_END:
        vals = samples[name]
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name}: median {med:.4f} {unit} "
                     f"(q1 {q1:.4f}, q3 {q3:.4f}, n = {len(vals)})")
    return metrics


def trace(runner, lines):
    untraced = runner.cli_run()["wall_s"]
    t, traced_wall = runner.traced_run()
    absent = [h for h in runner.wl.hooks if t.calls(h) == 0]
    if absent:
        raise SystemExit("perfbench: hooked names never called on "
                         f"{runner.wl.name}: {', '.join(absent)}")
    found = layer_metrics(t)
    found["trace.wall_s"] = (traced_wall, "s")
    found["trace.overhead_s"] = (traced_wall - untraced, "s")
    if runner.wl.name == "count":
        # every untraced run is a fresh process, so the lru_cache'd torus
        # closure is paid cold; the traced run must show the same
        runner.items.append((
            "torus_set computed cold in the traced run",
            t.count("counting.torus_misses") >= 1 and
            t.count("counting.torus_elements") == workloads.DEEP_TORUS_SIZE and
            t.total("counting.torus_set") >= MIN_COLD_TORUS_S))
    for name, (value, unit) in found.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    for datum, row in sorted(t.stage_rows().items()):
        lines.append(f"stages {datum}: " + ", ".join(
            f"{k} {v:.3f} s" if isinstance(v, float) else f"{k} {v}"
            for k, v in row.items()))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in found.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [ROOT / "src" / "minvec" / "cli.py", ROOT / "data",
              ROOT / "tests" / "golden"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        sys.stderr.write("perfbench: run from a minvec checkout; missing "
                         + ", ".join(absent) + "\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines = [f"workload {args.workload}, seed {args.seed}"]
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](ROOT), args.seed,
                        workdir)
        if args.trace:
            metrics = trace(runner, lines)
        else:
            metrics = measure(runner, args.seconds, lines)
    except Timeout as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = [item for item, ok in runner.items if not ok]
    for item in failed:
        sys.stderr.write(f"perfbench: MISMATCH {item}\n")
    attempted = len(runner.items)
    lines.append(f"failed_ops: {len(failed)}/{attempted} = "
                 f"{len(failed) / attempted:.4f}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
