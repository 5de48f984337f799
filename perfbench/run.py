"""covertsim benchmark: the CLI as a user runs it, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this file.  Every
invocation is a fresh `covertsim` process (through launch.py) on a shipped
config in configs/, with the seed passed as `--seed`.  A workload is a fixed
list of invocations, run one after another (a closed loop with one client);
one run of the whole list is a pass.  Passes repeat until --seconds have been
measured; a run makes at least two passes, counting the reference and
traced passes below, so that each repeat can be compared byte for byte with
the first.  The one exception is `boundary`, whose single pass outlasts
--seconds: its untraced runs make one pass, and its traced runs compare the
timed pass with the traced one.  Each invocation's outputs are checked (see
the check_* functions); one that exits nonzero, times out, fails a check or
differs from the first pass counts as failed.  A workload run with --workers 2 also makes
an untimed --workers 1 reference pass, whose artifacts must be the same bytes.

--trace 0 prints the end-to-end metrics, medians over the passes:
  wall_s        one pass, process start-up and set-up included
  trials_per_s  Monte Carlo samples the pass asked for, per second of wall_s
  setup_s       `import covertsim.cli` plus the config load, per invocation;
                fresh set-up-only processes make up at least SETUP_SAMPLES
  peak_rss_mb   largest RSS of any invocation, pool children included

--trace 1 runs the same passes, then one more with --workers 1 in which
every public function of each module is wrapped (tracer.py), and prints the
per-layer counts and times of that pass.

Results, with the environment, go to .perfbench/<workload>/ in the checkout.
The last line of standard output is the JSON summary.  `--workload all` runs
every workload in turn.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
OUT = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
MIN_PASSES = 2
SETUP_SAMPLES = 5  # set-up times per run, from invocations and set-up-only probes
SETUP_PROBE_TIMEOUT_S = 60.0

MC_TRIALS = 1000
N_LIST = (1000, 10000)
ROC_TRIALS = 500
ROC_POINTS = 101
# The boundary check fails when the 95 % Wilson interval of the mass lies
# wholly above the analytic bound 0.1.  The mass on fading_m2 is about 0.078,
# so at 20 draws one seed in 60 fails it (5 hits suffice); at 2000 draws one
# in 10^8.  Draws are cheap: the 100 spot-check root findings cost the time.
BOUNDARY_DRAWS = 2000
CAPACITY_SAMPLES = 100_000
TABLE_INTEGRALS = 2 * 2000 + 2 * 8  # per BlockLrtTable build: nodes and self-check points


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_covertness(out, gate_margin):
    # the acceptance gates' floor: 1 - eps - 0.03 (AWGN), 1 - eps - 0.04 (fading)
    floor = 1.0 - _read_json(out / "manifest.json")["epsilon"] - gate_margin
    rows = _read_csv(out / "curve.csv")
    problems = []
    if [int(r["n"]) for r in rows] != list(N_LIST):
        problems.append(f"curve.csv has slot lengths {[r['n'] for r in rows]}")
    problems += [f"n={r['n']}: min_sum {r['min_sum']} below floor {floor:.4f}"
                 for r in rows if float(r["min_sum"]) < floor]
    return problems


def check_roc(out):
    rows = _read_csv(out / "roc.csv")
    p_fa = [float(r["p_fa"]) for r in rows]
    p_md = [float(r["p_md"]) for r in rows]
    problems = []
    if len(rows) != ROC_POINTS:
        problems.append(f"roc.csv has {len(rows)} rows, not {ROC_POINTS}")
    if any(b > a for a, b in zip(p_fa, p_fa[1:])):
        problems.append("p_fa increases along the thresholds")
    if any(b < a for a, b in zip(p_md, p_md[1:])):
        problems.append("p_md decreases along the thresholds")
    return problems


def check_check(out):
    checks = _read_json(out / "check.json")["checks"]
    if not checks:
        return ["check.json lists no checks"]
    return [f"check {name} did not pass" for name, c in checks.items() if not c["passed"]]


def check_boundary(out):
    b = _read_json(out / "boundary.json")
    problems = [f"{key} = {b[key]}" for key in ("spot_mismatches", "failures") if b[key]]
    if b["ci"][0] > b["analytic_bound"]:
        problems.append(f"CI low end {b['ci'][0]} above the analytic bound {b['analytic_bound']}")
    return problems


def check_capacity(out):
    rows = _read_csv(out / "capacity.csv")
    if not rows:
        return ["capacity.csv has no rows"]
    return [f"R = {r['R']} at P_f = {r['P_f']}" for r in rows if not float(r["R"]) > 0]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple  # CLI arguments; --seed, --workers and --out are added per run
    check: Callable
    samples: int = 0  # Monte Carlo samples asked for (trials_per_s numerator)


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    workers: int = 1
    min_passes: int = MIN_PASSES  # counting the reference and traced passes
    # counts the ROADMAP baseline states for this tree; reported, not enforced
    baseline: dict = field(default_factory=dict)

    @property
    def samples(self):
        return sum(inv.samples for inv in self.invocations)


COVERTNESS = Invocation(
    "covertness",
    ("covertness", "configs/awgn.json", "--n-list", ",".join(map(str, N_LIST)),
     "--trials", str(MC_TRIALS)),
    lambda out: check_covertness(out, gate_margin=0.03),
    samples=2 * MC_TRIALS * len(N_LIST),
)
MC_BASELINE = {"synth.slot.calls": 2 * MC_TRIALS * len(N_LIST)}

WORKLOADS = {
    # synthesis-bound; no quadrature table is ever built
    "mc_awgn": Workload((COVERTNESS,), baseline=MC_BASELINE),
    # the only workload that runs the harness process pool
    "mc_awgn_w2": Workload((COVERTNESS,), workers=2, baseline=MC_BASELINE),
    # table-build-bound: roc collects statistics twice, one table build each
    "mc_mblock": Workload(
        (Invocation("roc", ("roc", "configs/fading_m4.json", "--trials", str(ROC_TRIALS)),
                    check_roc, samples=2 * ROC_TRIALS),),
        baseline={"detectors.table.builds": 2, "harness.collect.calls": 2,
                  "numerics.block_integral.calls": 2 * TABLE_INTEGRALS},
    ),
    # no synthesis: scalar quadrature inside monotonicity scans
    "certify": Workload((
        Invocation("check_awgn", ("check", "configs/awgn.json"), check_check),
        Invocation("check_m4", ("check", "configs/fading_m4.json"), check_check),
        Invocation("capacity", ("capacity", "configs/bob_fading.json",
                                "--samples", str(CAPACITY_SAMPLES)),
                   check_capacity, samples=CAPACITY_SAMPLES),
    )),
    # no synthesis: a table build plus scalar root finding in bisections
    "boundary": Workload(
        (Invocation("boundary", ("boundary", "configs/fading_m2.json",
                                 "--draws", str(BOUNDARY_DRAWS)),
                    check_boundary, samples=BOUNDARY_DRAWS),),
        min_passes=1,
    ),
}


# ---------------------------------------------------------------------------
# running invocations and passes


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "COVERTSIM_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


CHILD_ENV = _child_env()


@dataclass
class Result:
    name: str
    wall_s: float
    exit_code: int
    timed_out: bool
    maxrss_mb: float
    setup_s: float | None = None
    trace: dict | None = None
    problems: list = field(default_factory=list)


def run_invocation(inv, workers, seed, directory, trace, deadline):
    """One fresh process, timed and measured with wait4; outputs checked."""
    out = directory / "out"
    directory.mkdir(parents=True)
    report = directory / "report.json"
    cmd = [sys.executable, str(LAUNCH), str(report), *(["--trace"] if trace else []), "--",
           *inv.args, "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    timed_out = threading.Event()

    def kill(pid):
        timed_out.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(directory / "stdout.txt", "wb") as so, open(directory / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=so, stderr=se,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = Result(inv.name, wall, proc.returncode, timed_out.is_set(), usage.ru_maxrss / 1024)
    if res.timed_out:
        res.problems.append("timed out")
    elif res.exit_code != 0:
        res.problems.append(f"exit code {res.exit_code}")
    else:
        try:
            rep = _read_json(report)
            res.setup_s, res.trace = rep["setup_s"], rep.get("trace")
            res.problems += inv.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.problems.append(f"unreadable output: {exc!r}")
    return res


def probe_setup(inv, directory):
    """Set-up time of a fresh process that imports covertsim.cli, loads the
    invocation's config and exits."""
    directory.mkdir(parents=True)
    report = directory / "report.json"
    subprocess.run([sys.executable, str(LAUNCH), str(report), "--setup-only", "--", *inv.args],
                   cwd=ROOT, env=CHILD_ENV, capture_output=True, check=True,
                   timeout=SETUP_PROBE_TIMEOUT_S)
    return _read_json(report)["setup_s"]


# manifest keys that legitimately change between identical runs: the
# timestamp, and the per-run telemetry block the ROADMAP plans to add
VOLATILE_MANIFEST_KEYS = ("timestamp", "run")


def artifacts(out):
    """Output files by name; manifest.json without its volatile keys."""
    snap = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in VOLATILE_MANIFEST_KEYS:
                manifest.pop(key, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        snap[path.name] = data
    return snap


@dataclass
class Pass:
    label: str
    workers: int
    wall_s: float
    results: list


def run_pass(wl, label, workers, seed, base, trace, deadline):
    t0 = time.perf_counter()
    results = [run_invocation(inv, workers, seed, base / label / inv.name, trace, deadline)
               for inv in wl.invocations]
    return Pass(label, workers, time.perf_counter() - t0, results)


def compare_to_first(passes, base):
    """Every repeat must reproduce the first pass's artifacts byte for byte."""
    first = passes[0]
    ref = {inv.name: artifacts(base / first.label / inv.name / "out") for inv in first.results}
    for p in passes[1:]:
        for res in p.results:
            if res.problems:
                continue
            snap = artifacts(base / p.label / res.name / "out")
            if snap != ref[res.name]:
                differ = sorted(k for k in set(snap) | set(ref[res.name])
                                if snap.get(k) != ref[res.name].get(k))
                res.problems.append(f"artifacts differ from pass {first.label} "
                                    f"(workers {first.workers} vs {p.workers}): {differ}")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, timed, setups):
    walls = [p.wall_s for p in timed]
    results = [r for p in timed for r in p.results]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "trials_per_s": (statistics.median(wl.samples / w for w in walls), "trials/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in results), "MB"),
    }


# (metric, unit, span group or target, statistic)
LAYER_METRICS = [
    ("synth.slot.calls", "count", "synth.slot", "calls"),
    ("synth.slot.self_s", "s", "synth.slot", "self_s"),
    ("detectors.block_powers.calls", "count", "detectors.block_powers", "calls"),
    ("detectors.block_powers.self_s", "s", "detectors.block_powers", "self_s"),
    ("detectors.table.builds", "count", "detectors:BlockLrtTable.__init__", "calls"),
    ("detectors.table.build_s", "s", "detectors:BlockLrtTable.__init__", "incl_s"),
    ("detectors.table.self_s", "s", "detectors.table", "self_s"),
    ("detectors.lrt_term.calls", "count", "detectors.lrt_term", "calls"),
    ("detectors.lrt_term.self_s", "s", "detectors.lrt_term", "self_s"),
    ("numerics.block_integral.calls", "count", "numerics.block_integral", "calls"),
    ("numerics.block_integral.s", "s", "numerics.block_integral", "incl_s"),
    ("numerics.uniform_mixture.calls", "count", "numerics.uniform_mixture", "calls"),
    ("numerics.uniform_mixture.s", "s", "numerics.uniform_mixture", "incl_s"),
    ("numerics.adaptive_quad.calls", "count", "numerics.adaptive_quad", "calls"),
    ("numerics.adaptive_quad.self_s", "s", "numerics.adaptive_quad", "self_s"),
    ("numerics.bisect.calls", "count", "numerics.bisect", "calls"),
    ("numerics.bisect.self_s", "s", "numerics.bisect", "self_s"),
    ("harness.collect.calls", "count", "harness.collect", "calls"),
    ("harness.collect.self_s", "s", "harness.collect", "self_s"),
    ("harness.threshold.s", "s", "harness.threshold", "incl_s"),
    ("harness.search.self_s", "s", "harness.search", "self_s"),
    ("theory.lr_order.self_s", "s", "theory.lr_order", "self_s"),
    ("theory.monotone.calls", "count", "theory.monotone", "calls"),
    ("theory.monotone.self_s", "s", "theory.monotone", "self_s"),
    ("theory.boundary_root.calls", "count", "theory.boundary_root", "calls"),
    ("theory.boundary_root.self_s", "s", "theory.boundary_root", "self_s"),
    ("theory.boundary_mass.self_s", "s", "theory.boundary_mass", "self_s"),
    ("throughput.capacity.s", "s", "throughput.capacity", "incl_s"),
    ("cli.self_s", "s", "cli", "self_s"),
]


def per_layer(traced, wall_s, reference):
    """Per-layer metrics of the traced pass, summed over its invocations."""
    stats, totals, absent = {}, {"f_evals": 0, "samples": 0, "failures": 0}, set()
    for res in traced.results:
        tr = res.trace or {}
        for kind in ("groups", "targets"):
            for key, s in tr.get(kind, {}).items():
                acc = stats.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += s[k]
        for k in totals:
            totals[k] += tr.get(k, 0)
        absent.update(tr.get("absent", ()))
    out = {name: (stats.get(src, {}).get(stat, 0), unit)
           for name, unit, src, stat in LAYER_METRICS}
    out["synth.samples"] = (totals["samples"], "count")
    out["numerics.bisect.f_evals"] = (totals["f_evals"], "count")
    out["numerics.failures"] = (totals["failures"], "count")
    # wall_s of one --workers 1 pass over 2 x wall_s of the --workers 2 passes
    out["harness.pool.efficiency"] = (
        reference.wall_s / (2.0 * wall_s) if reference else 0.0, "ratio")
    out["unattributed_s"] = (traced.wall_s - stats.get("cli", {}).get("incl_s", 0.0), "s")
    # the traced pass runs --workers 1, so compare it with a --workers 1 pass
    untraced = reference.wall_s if reference else wall_s
    out["trace.overhead_s"] = (traced.wall_s - untraced, "s")
    return out, sorted(absent)


# ---------------------------------------------------------------------------
# environment record


def _version(dist):
    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def environment(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one run of one workload


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    # passes after the timed ones, compared byte for byte like the repeats: a
    # --workers 1 reference when the workload uses the pool, and the traced pass
    extras = (wl.workers > 1) + trace
    min_timed = max(1, wl.min_passes - extras)
    extra_cost = (wl.workers > 1) * 2.0 + trace * 1.5  # in units of one timed pass

    timed = []
    t0 = time.perf_counter()
    while len(timed) < min_timed or time.perf_counter() - t0 < seconds:
        if len(timed) >= min_timed:
            last = timed[-1].wall_s
            if time.monotonic() + last * (1.0 + extra_cost) + 5.0 > deadline:
                break
        timed.append(run_pass(wl, f"p{len(timed) + 1}", wl.workers, seed, base, False, deadline))
    reference = traced = None
    if wl.workers > 1:
        reference = run_pass(wl, "reference_w1", 1, seed, base, False, deadline)
    if trace:
        traced = run_pass(wl, "traced_w1", 1, seed, base, True, deadline)
    passes = [p for p in (*timed, reference, traced) if p is not None]
    compare_to_first(passes, base)
    setups = [r.setup_s for p in timed for r in p.results if r.setup_s is not None]
    for i in range(SETUP_SAMPLES - len(setups)):
        inv = wl.invocations[i % len(wl.invocations)]
        setups.append(probe_setup(inv, base / "setup" / f"{i + 1}"))

    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.problems)
    e2e = end_to_end(wl, timed, setups)
    summary = {
        "workload": name,
        "environment": environment(seed),
        "passes": [{"label": p.label, "workers": p.workers, "wall_s": p.wall_s,
                    "invocations": [{k: v for k, v in vars(r).items() if k != "trace"}
                                    for r in p.results]} for p in passes],
        "setup_samples_s": setups,
        "end_to_end": e2e,
    }
    if trace:
        layer, absent = per_layer(traced, e2e["wall_s"][0], reference)
        summary["per_layer"] = layer
        summary["absent"] = absent
        summary["baseline_counts"] = {
            metric: {"baseline": want, "measured": layer[metric][0]}
            for metric, want in wl.baseline.items()
        }
    metrics = summary["per_layer"] if trace else e2e
    with open(base / f"result-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)

    print(f"workload {name}: seed {seed}, {len(timed)} timed passes of "
          f"{len(wl.invocations)} invocation(s), workers {wl.workers}")
    for res in results:
        for problem in res.problems:
            print(f"  FAILED {res.name}: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    if trace:
        if summary["absent"]:
            print(f"  absent (no longer in covertsim): {', '.join(summary['absent'])}")
        for metric, c in summary["baseline_counts"].items():
            verdict = "matches" if c["measured"] == c["baseline"] else "differs from"
            print(f"  {metric} = {c['measured']} {verdict} the ROADMAP baseline {c['baseline']}")
    print(f"  attempted {len(results)}, failed {failed}")
    print("  environment " + json.dumps(summary["environment"]))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes for this long (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covertsim" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"covertsim sources or configs not found under {ROOT}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(outcomes) == 1:
        result = outcomes[names[0]]
    else:
        for n, outcome in outcomes.items():
            print(f"{n} " + json.dumps(outcome))
        result = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}/{k}": v for n, o in outcomes.items()
                        for k, v in o["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
