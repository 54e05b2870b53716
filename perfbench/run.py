"""Pipeline benchmark for kronstap: simulate -> estimate -> filter -> detect.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-q --seed 1 --seconds 20 --trace 0

One client drives the CLI in-process (kronstap.cli.main) in a closed
loop: each pass runs the four subcommands in order on files in a
scratch directory under .perfbench/, and the next stage starts when the
previous one returns. Passes repeat until --seconds have elapsed. Every
pass is checked: each CLI call must exit 0, the map must be finite and
peak at the planted target's (bin, Doppler cell), and every artifact
must match the first pass byte for byte.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones;
the spans go to .perfbench/traces/, never next to the artifacts, and the
traced artifacts must match the untraced ones. The last line of stdout
is the JSON result; the lines before it are a readable table and the
host facts.
"""

import argparse
import filecmp
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import numpy as np

import spans
from host import host_facts
from workloads import CONFIG_NAME, GRID_DOPPLER, STAGES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

ARTIFACTS = ("scene.kph", "fit.kes", "fit.kes.residuals.csv", "filtered.kph",
             "map.csv", "map.pgm")
# Fresh interpreters timed importing the package; setup_s is the median.
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kronstap.cli; "
                "print(time.perf_counter() - t)")
# Self times under a stage must add up to its wall time to this many s.
BALANCE_TOL = 1e-4
# simulate is near zero on some workloads (about 20 ms on wide-q), too
# short for a steady median over a few passes. After each untraced pass
# it is repeated while the repeats fit in this share of the pass time;
# on a workload whose simulate is long, no repeat fits.
REPEAT_SHARE = 0.1

END_TO_END = (
    ("pipeline_s", "s"), ("simulate_s", "s"), ("estimate_s", "s"),
    ("filter_s", "s"), ("detect_s", "s"), ("peak_rss_mb", "MB"),
    ("detect_margin_db", "dB"), ("setup_s", "s"),
)


def load_cli():
    """Import kronstap.cli from the checkout's source tree."""
    if not os.path.isfile(os.path.join(SRC, "kronstap", "cli.py")):
        raise SystemExit(f"perfbench: no kronstap source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from kronstap import cli
    return cli


def measure_setup(workload, seed):
    """Median over fresh interpreters of import time plus input generation."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               cwd=ROOT, capture_output=True, text=True,
                               check=True, timeout=120)
        start = time.perf_counter()
        workload.config_text(seed)
        generate = time.perf_counter() - start
        samples.append(float(probe.stdout.split()[-1]) + generate)
    return statistics.median(samples)


def _call(cli, argv, stage, tracer):
    try:
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli.main(argv)
            with tracer.span(spans.STAGE_PREFIX + stage, "cli"):
                return cli.main(argv)
    except Exception:  # a crash is one failed operation, not the end of the run
        traceback.print_exc()
        return -1


def run_pass(cli, workload, pass_dir, config_text, tracer=None):
    """One closed-loop pass: (pipeline s, {stage: s}, exit codes so far)."""
    os.makedirs(pass_dir)
    with open(os.path.join(pass_dir, CONFIG_NAME), "w") as fh:
        fh.write(config_text)
    seconds, codes = {}, []
    start = time.perf_counter()
    for stage, argv in zip(STAGES, workload.commands(pass_dir)):
        t0 = time.perf_counter()
        codes.append(_call(cli, argv, stage, tracer))
        seconds[stage] = time.perf_counter() - t0
        if codes[-1] != 0:
            break
    return time.perf_counter() - start, seconds, codes


def read_map(path):
    """(Doppler grid, values) of a detection or change map CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    dopplers = np.array([float(cell[2:]) for cell in header[1:]])
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    return dopplers, values


def check_map(workload, seed, pass_dir):
    """Problems with a pass's map, and the target's margin over the median in dB."""
    bin_index, cell = workload.target(seed)
    dopplers, values = read_map(os.path.join(pass_dir, "map.csv"))
    if not np.all(np.isfinite(values)):
        return ["map has non-finite values"], math.nan
    nearest = int(np.argmin(np.abs(dopplers - cell / GRID_DOPPLER)))
    problems = []
    peak = tuple(int(i) for i in np.unravel_index(np.argmax(values), values.shape))
    if peak != (bin_index, nearest):
        problems.append(f"map peaks at (bin, cell) {peak}, "
                        f"target is at {(bin_index, nearest)}")
    margin = 20.0 * math.log10(values[bin_index, nearest] / np.median(values))
    return problems, margin


def differing_artifacts(pass_dir, ref_dir):
    return [name for name in ARTIFACTS
            if not filecmp.cmp(os.path.join(pass_dir, name),
                               os.path.join(ref_dir, name), shallow=False)]


def repeat_simulate(cli, workload, pass_dir, budget, last):
    """Timed repeats of a pass's simulate call that fit in `budget` s.

    Each repeat writes repeat.kph, which must match the pass's scene
    byte for byte. Returns (times, problems, calls made).
    """
    argv = workload.commands(pass_dir)[0]
    out = os.path.join(pass_dir, "repeat.kph")
    argv[argv.index("--output") + 1] = out
    times, spent = [], 0.0
    while spent + last <= budget:
        start = time.perf_counter()
        code = _call(cli, argv, "simulate", None)
        last = time.perf_counter() - start
        spent += last
        if code != 0:
            return times, [f"repeated simulate exited {code}"], len(times) + 1
        if not filecmp.cmp(out, os.path.join(pass_dir, "scene.kph"),
                           shallow=False):
            return times, ["repeated simulate wrote other bytes"], len(times) + 1
        times.append(last)
    return times, [], len(times)


def _median_dict(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def balance_problems(balance):
    problems = []
    for stage, (wall, layers, overlap) in balance.items():
        gap = sum(layers.values()) - overlap - wall
        if abs(gap) > BALANCE_TOL:
            problems.append(f"{stage}: self times miss the stage wall by {gap:.3g} s")
    return problems


def later_pass_problems(workload, seed, pass_dir, ref_dir, ref_problems):
    """Checks of a completed pass after the first, against the first."""
    differ = differing_artifacts(pass_dir, ref_dir)
    if not differ:
        return list(ref_problems)   # same bytes, so the same map verdict
    return ([f"differs from the first pass: {', '.join(differ)}"]
            + check_map(workload, seed, pass_dir)[0])


def run_benchmark(workload, seed, seconds, trace):
    """Measure one workload and return a report dict.

    The report has "end_to_end" (and, traced, "per_layer") only when at
    least one untraced pass (and one traced pass) passed every check.
    """
    cli = load_cli()
    work = os.path.join(WORK, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s = measure_setup(workload, seed)
        return _measure(cli, workload, seed, seconds, trace, work, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(cli, workload, seed, seconds, trace, work, setup_s):
    config = workload.config_text(seed)
    ref = os.path.join(work, "pass0")
    report = {"workload": workload.name, "seed": seed, "passes": 0,
              "attempted": 0, "failed": 0, "problems": []}
    plain, traced = [], []      # (pipeline s, {stage: s}) of passes that passed
    traces = {}                 # pass index -> (spans, stage balance)
    simulate_samples = []       # simulate s of untraced passes and repeats
    ref_problems, margin = [], math.nan
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline or (trace and i < 2):
        pass_dir = os.path.join(work, f"pass{i}")
        if trace and i % 2 == 1:
            tracer = spans.Tracer(pass_id=i)
            with tracer.installed():
                pipeline, stage_s, codes = run_pass(cli, workload, pass_dir,
                                                    config, tracer)
        else:
            tracer = None
            pipeline, stage_s, codes = run_pass(cli, workload, pass_dir, config)
        report["passes"] += 1
        report["attempted"] += len(codes)
        report["failed"] += sum(code != 0 for code in codes)
        if codes[-1] != 0:
            report["problems"].append(
                f"pass {i}: stage {STAGES[len(codes) - 1]} exited {codes[-1]}")
            if i == 0:
                break           # nothing to compare later passes with
        else:
            if i == 0:
                ref_problems, margin = check_map(workload, seed, pass_dir)
                problems = list(ref_problems)
            else:
                problems = later_pass_problems(workload, seed, pass_dir, ref,
                                               ref_problems)
            if tracer is not None:
                balance = spans.stage_balance(tracer.spans)
                problems += balance_problems(balance)
            report["attempted"] += 1
            report["failed"] += bool(problems)
            report["problems"] += [f"pass {i}: {p}" for p in problems]
            if not problems and tracer is None:
                repeats, problems, calls = repeat_simulate(
                    cli, workload, pass_dir, REPEAT_SHARE * pipeline,
                    stage_s["simulate"])
                report["attempted"] += calls
                report["failed"] += bool(problems)
                report["problems"] += [f"pass {i}: {p}" for p in problems]
            if not problems and tracer is None:
                plain.append((pipeline, stage_s))
                simulate_samples += [stage_s["simulate"]] + repeats
            elif not problems:
                traced.append((pipeline, stage_s))
                traces[i] = (tracer.spans, balance)
        if i > 0:
            shutil.rmtree(pass_dir)
        i += 1

    report["error_rate"] = report["failed"] / report["attempted"]
    if not plain or (trace and not traced):
        return report
    pipelines = [p for p, _ in plain]
    e2e = {"pipeline_s": statistics.median(pipelines)}
    for stage in STAGES:
        e2e[f"{stage}_s"] = statistics.median(s[stage] for _, s in plain)
    e2e["simulate_s"] = statistics.median(simulate_samples)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["detect_margin_db"] = margin
    e2e["setup_s"] = setup_s
    report["end_to_end"] = e2e
    report["timed_passes"] = len(plain)
    report["simulate_samples"] = len(simulate_samples)
    report["pipeline_range_s"] = (min(pipelines), max(pipelines))
    if trace:
        layers = _median_dict([spans.layer_metrics(recorded)
                               for recorded, _ in traces.values()])
        layers["trace.overhead_s"] = (statistics.median(p for p, _ in traced)
                                      - e2e["pipeline_s"])
        report["per_layer"] = layers
        report["traces"] = traces
    return report


def write_trace(report, host):
    """Write a traced run's spans, stage balance and metrics to a file."""
    traces = report.pop("traces")
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces",
                        f"{report['workload']}-seed{report['seed']}.json")
    balance = {i: {stage: {"wall_s": wall, "self_s_by_layer": layers,
                           "overlap_s": overlap}
                   for stage, (wall, layers, overlap) in stages.items()}
               for i, (_, stages) in traces.items()}
    records = [r for recorded, _ in traces.values()
               for r in spans.span_records(recorded)]
    with open(path, "w") as fh:
        json.dump({"host": host, "report": report, "stage_balance": balance,
                   "spans": records}, fh)
    return path, balance


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    report = run_benchmark(workload, args.seed, args.seconds, args.trace)
    host = host_facts()
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    if "end_to_end" not in report:
        sys.stderr.write("perfbench: no pass completed its checks\n")
        return 1

    if args.trace:
        path, balance = write_trace(report, host)
        metrics = report["per_layer"]
        units = dict(spans.PER_LAYER)
        for i, stages in balance.items():
            for stage, row in stages.items():
                parts = " ".join(f"{layer}={s:.4f}" for layer, s
                                 in sorted(row["self_s_by_layer"].items()))
                print(f"pass {i} {stage}: wall {row['wall_s']:.4f} s, "
                      f"self {parts}, overlap {row['overlap_s']:.4f}")
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = report["end_to_end"]
        units = dict(END_TO_END)
        lo, hi = report["pipeline_range_s"]
        print(f"{report['timed_passes']} timed passes, pipeline_s "
              f"min {lo:.4f} max {hi:.4f}; "
              f"{report['simulate_samples']} simulate samples")
    print(f"workload {workload.name}, seed {args.seed}: {report['passes']} passes")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<26} {report['error_rate']:>16.6g} fraction")
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in spans.WHERE_RUN},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
