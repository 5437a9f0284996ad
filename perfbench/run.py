"""The symlog benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload corpus|proofs|search --seed N \\
        --seconds S --trace 0|1

Run it from the root of a symlog checkout; it imports the program from
``src/``.  See README.md in this directory for the workloads and metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it report every metric by name with its unit.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("corpus", "proofs", "search")
WORKERS = 3             # measuring processes, one after another
SETUP_RUNS = 5          # fresh processes timed to the first verdict
COLD_RUNS = 8           # cold runs of ``symlog.cli`` (see cold.py)
CHILD_TIMEOUT = 120

# (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cold_cli_s", "s"),
              ("verdict_p50_ms", "ms"), ("verdict_p90_ms", "ms"),
              ("positive_s", "s"), ("negative_s", "s"), ("peak_rss_mb", "MB"))
# (name, unit) of the per-layer metrics every workload exercises, reported
# with --trace 1; the traced report also lists the workload's other layers
PER_LAYER = (("cli.import_s", "s"), ("scripts.parse_s", "s"),
             ("scripts.parse_bytes_per_s", "B/s"), ("scripts.print_s", "s"),
             ("kernel.check_s", "s"), ("kernel.check_nodes_per_s", "1/s"),
             ("rules.validate_s", "s"), ("formulas.sequent_equal_s", "s"),
             ("rules.validate.axiom_us", "us"),
             ("rules.validate.additive_us", "us"),
             ("rules.validate.multiplicative_us", "us"),
             ("rules.validate.structural_us", "us"),
             ("kernel.nodes_checked", "count"), ("scripts.bytes_parsed", "count"),
             ("search.proofs_found", "count"), ("search.depth_overrun", "count"),
             ("search.proof_nodes", "count"))
# span names whose metric is a mean per call rather than a total per pass
_PER_CALL_MS = ("cli.cmd.", "corpus.item.", "domains.", "correlation.", "qubits.")


def load_program():
    """Import the checkout's program; exit non-zero when it is missing."""
    if not (SRC / "symlog" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'symlog'}; run from the "
                 f"root of a symlog checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import symlog.cli
    import_s = perf_counter() - t0
    import symlog
    if SRC not in Path(symlog.__file__).resolve().parents:
        sys.exit(f"perfbench: imported symlog from {symlog.__file__}, "
                 f"not from {SRC}")
    return import_s


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# subprocesses, one after another: measuring processes, and the set-up and
# cold-start probes

def probe(args) -> None:
    """Child side of the set-up probe: import, build the inputs, reach the
    first verdict, then report on one line."""
    speed = Speed().start()
    import_s = load_program()
    import inputs
    from spans import NULL
    wl = inputs.build(args.workload, args.seed, ROOT, WORK)
    tally = inputs.Tally()
    for case in wl.first:
        case.run(NULL, tally)
    speed.stop()
    print(json.dumps({"import_s": import_s, "digest": wl.digest,
                      "slowdown": speed.slowdown()}), flush=True)


def worker(args) -> None:
    """Child side of a measuring process: build the inputs, run whole
    passes for ``--seconds`` of measuring, and report them on one line."""
    load_program()
    import inputs
    from spans import NULL
    wl = inputs.build(args.workload, args.seed, ROOT, WORK)
    freeze()
    passes = run_phase(wl, NULL, Speed(), args.seconds, False)
    print(json.dumps({
        "digest": wl.digest, "peak_rss_mb": peak_rss_mb(),
        "passes": [{k: p[k] for k in ("raw", "scaled", "failures", "counts")}
                   for p in passes]}), flush=True)


def freeze() -> None:
    """The inputs stay alive all run, as they would not in a user's
    process; keep the collector from walking them inside timed inputs."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workers(args, seconds: float, probes) -> tuple:
    """Whole passes for ``seconds`` of measuring, in up to ``WORKERS``
    fresh processes one after another, each given an equal share of the
    time left.  Every process hashes strings with its own seed and lays
    out its heap its own way, which moves the program's speed by a few
    percent; several processes average that out.  A pass longer than a
    share takes what it needs, so a workload with long passes runs in
    fewer processes.  The probe subprocesses run between them.  Returns
    the passes and the largest peak memory of the processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed)]
    passes, rss, measured = [], 0.0, 0.0
    for k in range(WORKERS):
        if measured >= seconds:
            break
        probes.run_due(k / WORKERS)
        share = (seconds - measured) / (WORKERS - k)
        r = subprocess.run(cmd + ["--seconds", repr(share)], cwd=ROOT,
                           env=child_env(), text=True, capture_output=True,
                           timeout=CHILD_TIMEOUT)
        if r.returncode != 0:
            sys.exit(f"perfbench: measuring process failed:\n{r.stderr}")
        rec = json.loads(r.stdout.splitlines()[-1])
        probes.digests.add(rec["digest"])
        rss = max(rss, rec["peak_rss_mb"])
        for p in rec["passes"]:
            p["failures"] = [tuple(f) for f in p["failures"]]
            measured += p["raw"]
        passes += rec["passes"]
    probes.run_due(1.0)
    return passes, rss


class Probes:
    """The set-up and cold-start subprocesses of a run, one at a time.

    Each child probes the machine's speed (see speed.py) and reports its
    mean slowdown; a sample is the child's wall time over that slowdown.
    The samples are spread over the run, between the measuring processes.
    """

    def __init__(self, args, wl):
        self.setup_cmd = [sys.executable, str(Path(__file__).resolve()),
                          "--probe", "--workload", args.workload,
                          "--seed", str(args.seed)]
        self.wl = wl
        self.jobs = [self.setup, self.cold] * SETUP_RUNS
        self.jobs += [self.cold] * (COLD_RUNS - SETUP_RUNS)
        self.total = len(self.jobs)
        self.setup_s, self.import_s, self.digests = [], [], set()
        self.cold_s, self.failures = [], []
        self._setup_once()      # warms the bytecode cache; not a sample

    def run_due(self, fraction: float) -> None:
        """Run the jobs due once ``fraction`` of the run has gone by."""
        while self.jobs and self.total - len(self.jobs) <= fraction * self.total:
            self.jobs.pop(0)()

    def _setup_once(self) -> tuple:
        t0 = perf_counter()
        proc = subprocess.Popen(self.setup_cmd, cwd=ROOT, env=child_env(),
                                text=True, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: set-up probe failed:\n{err}")
        return elapsed, json.loads(line)

    def setup(self) -> None:
        elapsed, rec = self._setup_once()
        self.setup_s.append(elapsed / rec["slowdown"])
        self.import_s.append(rec["import_s"] / rec["slowdown"])
        self.digests.add(rec["digest"])

    def cold(self) -> None:
        t0 = perf_counter()
        r = subprocess.run([sys.executable, str(HERE / "cold.py"),
                            *self.wl.cold_argv],
                           cwd=WORK, env=child_env(), text=True,
                           capture_output=True, timeout=CHILD_TIMEOUT)
        elapsed = perf_counter() - t0
        last = r.stderr.rstrip().rpartition("\n")[2].split()
        if len(last) != 2 or last[0] != "slowdown":
            sys.exit(f"perfbench: cold run printed no slowdown:\n{r.stderr}")
        self.cold_s.append(elapsed / float(last[1]))
        try:
            self.wl.cold_expect(r.returncode, r.stdout)
        except Exception as e:   # noqa: BLE001 - every mismatch is reported
            self.failures.append(("cold:" + " ".join(self.wl.cold_argv),
                                  _status(e), str(e)))


# --------------------------------------------------------------------------
# passes

def _status(e: Exception) -> str:
    import inputs
    if isinstance(e, inputs.Wrong):
        return "wrong"
    if isinstance(e, inputs.Defect):
        return "defect"
    return "exception:" + type(e).__name__


def run_pass(wl, tr, speed) -> dict:
    """One pass over the inputs.  A sample is an input's start, end and
    time, less the time the speed probe took inside it."""
    import inputs
    tally = inputs.Tally()
    samples, failures = [], []
    with tr.span("pass"):
        for case in wl.cases:
            spent, t0 = speed.spent, perf_counter()
            try:
                with tr.span("input", case.id):
                    case.run(tr, tally)
            except Exception as e:   # noqa: BLE001 - a crash is a counted failure
                failures.append((case.id, _status(e), str(e)[:200]))
            t1 = perf_counter()
            samples.append((case.id, t0, t1, t1 - t0 - (speed.spent - spent)))
    return {"raw": sum(x[3] for x in samples), "samples": samples,
            "failures": failures, "tally": tally, "counts": tally.counts()}


def run_phase(wl, tr, speed, seconds: float, replay: bool) -> list:
    """Whole passes for ``seconds`` of measuring: at least one, and no
    further pass once the last one would not fit.  The rules replay of a
    traced pass is not measured."""
    import inputs
    passes = []
    start, unmeasured = perf_counter(), 0.0
    speed.start()
    try:
        while (not passes or perf_counter() - start - unmeasured
               + passes[-1]["raw"] <= seconds):
            rec = run_pass(wl, tr, speed)
            if replay:
                t0, extra = perf_counter(), inputs.Tally()
                with tr.span("replay"):
                    if wl.replay is not None:
                        wl.replay(tr, extra)
                    inputs.replay_rules(tr, rec["tally"].accepted + extra.accepted)
                rec["replay_tally"] = extra
                unmeasured += perf_counter() - t0
            passes.append(rec)
    finally:
        speed.stop()
    for p in passes:    # each sample at reference speed (see speed.py)
        p["scaled"] = [(case_id, speed.scale(t0, t1, raw))
                       for case_id, t0, t1, raw in p["samples"]]
    return passes


# --------------------------------------------------------------------------
# metrics

def input_times(passes) -> dict:
    """Each input's mean sample over the passes, at reference speed.  The
    machine flips between fast and slow from one millisecond to the next,
    so a short input runs wholly in one state while its scale comes from
    the mean state around it: each sample is off, but their mean is not."""
    times: dict = {}
    for p in passes:
        for case_id, scaled in p["scaled"]:
            times.setdefault(case_id, []).append(scaled)
    return {case_id: statistics.fmean(ts) for case_id, ts in times.items()}


def end_to_end(wl, passes, setup, cold, rss) -> dict:
    per_input = input_times(passes)
    times = list(per_input.values())
    answer = {case.id: case.answer for case in wl.cases}
    return {
        "setup_s": median(setup),
        "wall_s": sum(times),
        "cold_cli_s": median(cold),
        "verdict_p50_ms": 1000 * statistics.median(times),
        "verdict_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "positive_s": sum(t for i, t in per_input.items()
                          if answer[i] == "positive"),
        "negative_s": sum(t for i, t in per_input.items()
                          if answer[i] == "negative"),
        "peak_rss_mb": rss,
    }


def per_layer(tr, speed, passes, imports) -> tuple:
    """Per-layer metrics of a traced phase, at reference speed, and the
    units of each."""
    n = len(passes)
    self_t, calls = tr.self_times(speed.slowdown), tr.counts()
    out, units = {}, {}

    def put(name, value, unit):
        out[name], units[name] = value, unit

    put("cli.import_s", median(imports), "s")
    for name in sorted(self_t):
        t = self_t[name]
        if name in ("pass", "input", "replay"):
            put(f"bench.{name}_self_s", t / n, "s")
        elif name.startswith("rules.validate."):
            put(name + "_us", 1e6 * t / calls[name], "us")
        elif name.startswith("search.goal."):     # some goals recur in a pass
            put(name + "_s", t / calls[name], "s")
        elif name.startswith(_PER_CALL_MS):
            put(name + "_ms", 1000 * t / calls[name], "ms")
        else:
            put(name + "_s", t / n, "s")
    for name, _unit in PER_LAYER:     # layers this workload never calls
        if name.endswith(("_s", "_us")) and name not in out:
            put(name, 0.0, _unit)
    validate = sum(t for k, t in self_t.items() if k.startswith("rules.validate."))
    put("rules.validate_s", validate / n, "s")
    counts = Counter()
    for p in passes:
        counts.update(p["tally"].counts())
        counts.update(p["replay_tally"].counts())
    check_t = self_t.get("kernel.check", 0.0)
    put("kernel.check_nodes_per_s",
        counts["nodes_checked"] / check_t if check_t else 0.0, "1/s")
    parse_t = self_t.get("scripts.parse", 0.0)
    put("scripts.parse_bytes_per_s",
        counts["parse_bytes"] / parse_t if parse_t else 0.0, "B/s")
    put("kernel.nodes_checked", counts["nodes_checked"] // n, "count")
    put("scripts.bytes_parsed", counts["parse_bytes"] // n, "count")
    put("search.proofs_found", counts["proofs_found"] // n, "count")
    put("search.depth_overrun", counts["depth_overrun"] // n, "count")
    put("search.proof_nodes", counts["proof_nodes"] // n, "count")
    return out, units


def environment() -> dict:
    files = sorted((SRC / "symlog").rglob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           capture_output=True, timeout=CHILD_TIMEOUT)
        commit = r.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit,
            "src_symlog_lines": sum(len(f.read_text().splitlines()) for f in files)}


# --------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if args.worker:
        worker(args)
        return 0

    load_program()
    import inputs
    from spans import NULL, Tracer

    WORK.mkdir(exist_ok=True)
    wl = inputs.build(args.workload, args.seed, ROOT, WORK)
    for fname, text in wl.files.items():
        (WORK / fname).write_text(text, encoding="utf-8")
    probes = Probes(args, wl)
    untraced, rss = run_workers(
        args, args.seconds / 2 if args.trace else args.seconds, probes)
    traced, tr, speed = [], None, Speed()
    if args.trace:
        freeze()
        tr = Tracer()
        traced = run_phase(wl, tr, speed, args.seconds / 2, True)
        rss = max(rss, peak_rss_mb())
    passes = untraced + traced
    digests, imports = probes.digests, probes.import_s

    e2e = end_to_end(wl, untraced, probes.setup_s, probes.cold_s, rss)
    # one verdict per input and cold run: an input that recurs within a
    # pass counts once, and the other passes repeat the first
    failures = sorted(set(untraced[0]["failures"])) + probes.failures
    attempted = len({case.id for case in wl.cases}) + len(probes.cold_s)
    # self-check: equal seeds give equal inputs and equal exact counts
    problems = []
    if digests != {wl.digest}:
        problems.append("input digest differs between processes")
    if len({json.dumps(p["counts"], sort_keys=True) for p in passes}) > 1:
        problems.append("exact counts differ between passes")
    if len({json.dumps(p["failures"]) for p in passes}) > 1:
        problems.append("failures differ between passes")
    wrong = [f for p in passes for f in p["failures"] + probes.failures
             if f[1] == "wrong"]
    correct = not wrong and not problems

    kinds = Counter(f[1] for f in failures)
    env = environment()
    out = [f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
           f"{len(wl.cases)} inputs per pass, {len(untraced)} untraced and "
           f"{len(traced)} traced passes, input digest {wl.digest[:16]}",
           f"# python {env['python']}, nproc {env['nproc']}, commit "
           f"{env['commit'] or 'unknown'}, src/symlog {env['src_symlog_lines']} lines"]
    units = dict(END_TO_END)
    for name, value in e2e.items():
        out.append(f"{name} {value:.6g} {units[name]}")
    out.append(f"verdict_inputs {len(input_times(untraced))} count "
               f"(mean of {len(untraced)} passes each)")
    raw_wall = statistics.median(p["raw"] for p in untraced)
    out.append(f"# raw wall (median pass, as timed) {raw_wall:.6g} s; "
               f"machine slowdown {raw_wall / e2e['wall_s']:.3g}x; times "
               f"above are at reference speed (see speed.py)")
    out.append(f"fail_share {len(failures) / attempted:.6g} share "
               f"({len(failures)} of {attempted}: "
               + (", ".join(f"{k} {v}" for k, v in sorted(kinds.items())) or "none")
               + ")")
    for case_id, status, msg in sorted(set(failures))[:12]:
        out.append(f"#   {status} {case_id}: {msg}")
    for p in problems:
        out.append(f"# self-check failed: {p}")

    layer, layer_units = {}, {}
    if args.trace:
        layer, layer_units = per_layer(tr, speed, traced, imports)
        traced_wall = sum(input_times(traced).values())
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        layer_units["trace.overhead_s"] = "s"
        for name in sorted(layer):
            out.append(f"{name} {layer[name]:.6g} {layer_units[name]}")
        tr.write(WORK / f"trace-{args.workload}-{args.seed}.json")

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "digest": wl.digest, "end_to_end": e2e, "per_layer": layer,
              "counts": passes[0]["counts"], "failures": failures,
              "problems": problems}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))

    metrics = ({n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
               if args.trace else
               {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END})
    print("\n".join(out))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
