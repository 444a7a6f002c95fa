"""rankforge benchmark: times one workload through the rankforge CLI.

    python3 perfbench/run.py --workload rank_sqrt5 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-test

Every CLI run is one serial child process (a closed loop with one client:
the next run starts when the previous one has exited), and every output is
checked. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of BENCHMARK.json from runs with spans around each module's public
functions. The last line of stdout is a JSON object; a results file with
the samples and the environment goes to .perfbench/results/ (or --out).
See NOTES.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import spans
from workloads import WORKLOADS, legendre_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str
    start: float  # time.monotonic() just before the child was started
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env():
    env = dict(os.environ)
    env.pop("RANKFORGE_SEED", None)  # would override the workload's seed
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, tmp):
    """Run one child process to completion, with its own wall clock and
    rusage (wait4 gives the child's own RUSAGE_CHILDREN figures)."""
    out_path, err_path = Path(tmp) / "stdout", Path(tmp) / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out_path.read_text(), err_path.read_text(),
                    start, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)


def median(values):
    """Median, or 0 when every sample failed (the run is then not correct)."""
    return statistics.median(values) if values else 0


class Run:
    """Samples, problems and counts of one benchmark run of one workload;
    its inputs are written to tmp once."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.args = workload.argv(tmp, seed)
        self.attempted = self.failed = 0
        self.problems = []
        self.samples = {}

    def record(self, what, child, problems):
        self.attempted += 1
        if child.returncode != 0 and child.stderr.strip():
            problems = problems + [child.stderr.strip().splitlines()[-1]]
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems))
        return not problems

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def instrumented(self, mode, *opts):
        return run_child([sys.executable, str(HERE / "child.py"), mode, *opts,
                          "--", *self.args], self.tmp)

    def cli(self):
        child = run_child([sys.executable, "-m", "rankforge.cli", *self.args],
                          self.tmp)
        self.record("cli", child,
                    self.workload.check(child.returncode, child.stdout, self.seed))
        return child

    def setup_probe(self):
        """Set-up time of one probe child, or None if it failed."""
        child = self.instrumented("setup", *self.workload.compute)
        lines = child.stdout.splitlines()
        marked = bool(lines) and lines[-1].startswith("SETUP ")
        if not self.record("setup probe", child, [] if marked else ["no mark"]):
            return None
        return float(lines[-1].split()[1]) - child.start

    def traced(self):
        spans_path = Path(self.tmp) / "spans.json"
        child = self.instrumented("trace", str(spans_path))
        problems = self.workload.check(child.returncode, child.stdout, self.seed)
        try:
            doc = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            self.record("traced cli", child, problems + ["no spans written"])
            return None
        metrics, series, top_s = spans.layer_metrics(doc)
        problems += consistency(self.workload.name, metrics, series,
                                child.stdout, doc["absent"])
        self.record("traced cli", child, problems)
        # process wall up to the span dump, minus time inside library calls
        metrics["cli.overhead_s"] = doc["dump_start"] - child.start - top_s
        return child, metrics, doc["absent"]


def consistency(name, metrics, series, stdout, absent):
    """Cross-checks between the tracer's counts and the CLI's own output.
    A check whose inputs come from an absent target is skipped."""
    problems = []
    if name == "rank_sqrt5":
        if metrics["nagao.ap_not_minus6"]:
            problems.append(f"{metrics['nagao.ap_not_minus6']} A_p values != -6")
        used = series["ap_calls"] + series["bad_ideals"]
        if "family.is_good_prime" not in absent and used != series["ideals"]:
            problems.append(
                f"series pass: {series['ap_calls']} A_p calls + "
                f"{series['bad_ideals']} bad ideals != {series['ideals']} ideals")
    if name == "legendre_sweep":
        cli_checked = sum(int(r["checked"]) for r in legendre_rows(stdout))
        if metrics["legendre.triples_checked"] != cli_checked:
            problems.append(f"traced {metrics['legendre.triples_checked']} "
                            f"triples, CLI summed {cli_checked}")
        if metrics["legendre.mismatches"]:
            problems.append(f"{metrics['legendre.mismatches']} mismatches")
    return problems


def measure_end_to_end(run, seconds):
    """Set-up probes and CLI runs in turn for `seconds`, each child after one
    run of the calibration kernel, so that all three kinds of sample span
    the whole window. The timing metrics are the medians of the children's
    times scaled to the reference host speed by the median kernel time of
    the same window (see calibrate.py)."""
    run.setup_probe()  # warm-up: byte-compiles, fills the file cache
    calibrate.measure()
    deadline = time.monotonic() + seconds
    while True:
        step_start = time.monotonic()
        run.add("calibration_s", calibrate.measure())
        setup = run.setup_probe()
        if setup is not None:
            run.add("setup_raw_s", setup)
        run.add("calibration_s", calibrate.measure())
        child = run.cli()
        run.add("wall_raw_s", child.wall_s)
        run.add("cpu_s", child.cpu_s)
        run.add("peak_rss_mb", child.maxrss_kb / 1024)
        now = time.monotonic()
        if now + (now - step_start) > deadline:
            break
    run.add("calibration_s", calibrate.measure())
    scale = calibrate.scale(median(run.samples["calibration_s"]))
    wall = median(run.samples["wall_raw_s"]) * scale
    setup = median(run.samples.get("setup_raw_s", [])) * scale
    compute = wall - setup
    return {
        "wall_s": wall,
        "setup_s": setup,
        "throughput_per_s": run.workload.items / compute if compute > 0 else 0,
        "peak_rss_mb": median(run.samples["peak_rss_mb"]),
    }


def measure_layers(run, seconds, names):
    """Pairs of an untraced and a traced CLI run for `seconds`; per-layer
    medians over the traced runs."""
    absent = []
    per_run = []
    deadline = time.monotonic() + seconds
    while True:
        pair_start = time.monotonic()
        plain = run.cli()
        run.add("wall_s", plain.wall_s)
        run.add("cpu_s", plain.cpu_s)
        traced = run.traced()
        if traced is not None:
            child, metrics, absent = traced
            run.add("traced_wall_s", child.wall_s)
            per_run.append(metrics)
        now = time.monotonic()
        if now + (now - pair_start) > deadline:
            break
    out = {name: median([m[name] for m in per_run if name in m])
           for name in names}
    out["cli.cpu_s"] = median(run.samples["cpu_s"])
    out["trace.overhead_s"] = (median(run.samples.get("traced_wall_s", []))
                               - median(run.samples["wall_s"]))
    return out, spans.absent_metrics(absent, names)


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def pin_to_one_cpu():
    """Run this process and every child on the lowest CPU allowed. The
    vCPUs of a shared host slow down independently of each other, so the
    calibration kernel tracks the children only on the CPU they share."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus), min(cpus)


def environment(nproc, cpu):
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": nproc,
            "cpu": cpu,
            "cpu_count": os.cpu_count(),
            "loadavg_before": loadavg(),
            "calibration_s_before": calibrate.measure(),
            "commit": git_commit(),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def bench_one(workload, seed, seconds, trace, declared, cpus):
    env = environment(*cpus)
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        run = Run(workload, seed, tmp)
        if trace:
            names = [m["name"] for m in declared["per_layer"]]
            metrics, absent = measure_layers(run, seconds, names)
        else:
            metrics, absent = measure_end_to_end(run, seconds), []
    env["loadavg_after"] = loadavg()
    env["calibration_s_after"] = calibrate.measure()
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if trace else "end_to_end"]}
    failed_ratio = run.failed / run.attempted
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"child runs {run.attempted}")
    for name, value in metrics.items():
        note = "  (absent)" if name in absent else ""
        print(f"  {name:<42} {value:.6g} {units[name]}{note}")
    if not trace:
        print(f"  as measured, before scaling to the reference speed: "
              f"wall {median(run.samples['wall_raw_s']):.6g} s, "
              f"setup {median(run.samples.get('setup_raw_s', [])):.6g} s, "
              f"kernel {median(run.samples['calibration_s']):.6g} s "
              f"(reference {calibrate.REFERENCE_S} s)")
    print(f"  {'failed_ratio':<42} {failed_ratio:.6g} "
          f"({run.failed} of {run.attempted} child runs)")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": env,
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed, "failed_ratio": failed_ratio,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "absent": absent, "samples": run.samples, "problems": run.problems,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file (default .perfbench/results/)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the checks and the tracer on small inputs")
    args = parser.parse_args(argv)
    if not (SRC / "rankforge" / "cli.py").is_file():
        sys.exit(f"error: no rankforge sources under {SRC}")
    if args.self_test:
        import selftest
        sys.exit(selftest.main())
    if args.workload is None:
        parser.error("--workload is required")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cpus = pin_to_one_cpu()
    results = [bench_one(WORKLOADS[n], args.seed, seconds, args.trace, declared, cpus)
               for n in names]
    doc = results[0] if len(results) == 1 else {"runs": results}
    out = Path(args.out) if args.out else STATE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{n}" if prefix else n): m
                    for r in results for n, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
