"""passivekey benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root.  The package is imported from ``src/`` next
to this directory and the mpmath reference from ``tests/``; without them
the run exits with code 2 and prints no result.

``--trace 0`` is a closed loop with one client: operations run back to back
for ``--seconds`` seconds with nothing wrapped, and the last line reports the
end-to-end metrics.  A speed probe (``speed.py``) samples the machine's speed
throughout the loop, and ``ref_ops_per_s`` is the throughput scaled to the
reference machine's speed; the raw ``ops_per_s`` is in the detail line.
``--trace 1`` runs the workload's fixed traced op set twice per op, once with
every layer boundary wrapped and once without, and reports per-layer counts
and times (totals over the traced ops) and the tracing overhead.  Outputs
are checked after the timed region in both modes.  Everything the run
writes goes to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("headline", "sweep", "analysis", "asymptotic")
SETUP_PROBES = 3  # before and again after the timed loop
P90_MIN_OPS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_at_start": load_at_start,
    }


def closed_loop(w, seconds, probe):
    """Ops back to back up to the op boundary nearest ``seconds``, and at least one.

    Stopping at the nearest boundary rather than the first one past
    ``seconds`` keeps a run of long ops (``headline``'s take about 12 s) from
    overrunning by up to one op.  ``probe`` samples the machine's speed
    throughout; its own time is taken off each op's time and off the
    returned wall time.
    """
    times, outcomes = [], []
    with probe:
        start = time.perf_counter()
        while True:
            busy = probe.busy_s
            elapsed, out = w.run(len(times))
            times.append(elapsed - (probe.busy_s - busy))
            outcomes.append(out)
            wall = time.perf_counter() - start
            if wall >= seconds - 0.5 * (wall - probe.busy_s) / len(times):
                return times, outcomes, wall - probe.busy_s


def traced_loop(w, tracer, ops):
    """Each op untraced and traced, alternating which goes first."""
    outcomes, untraced_s, traced_s, mismatches = [], 0.0, 0.0, []
    for k in range(ops):
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.op = k
                tracer.install()
            try:
                pair[traced] = w.run(k)
            finally:
                tracer.uninstall()
        untraced_s += pair[False][0]
        traced_s += pair[True][0]
        outcomes.append(pair[False][1])
        if repr(pair[True][1]) != repr(pair[False][1]):  # repr: nan == nan
            mismatches.append(k)
    return outcomes, untraced_s, traced_s, mismatches


def shares(outcomes) -> dict:
    n = len(outcomes)
    return {
        "ops": n,
        "vacuous_share": sum(o.status == "vacuous" for o in outcomes) / n,
        "L_km_range": [min(o.L_km for o in outcomes), max(o.L_km for o in outcomes)],
        "N_range": [min(o.N for o in outcomes), max(o.N for o in outcomes)],
    }


def layer_metrics(tracer, ops, untraced_s, traced_s) -> dict:
    self_s, busy_s = tracer.layer_times()
    counts = tracer.counts
    key_length_calls = tracer.calls("optimizer.key_length", "keylength.key_length")
    values = {
        "photonics.series_sum.calls": tracer.calls("channel.series_sum"),
        "photonics.series_sum.terms": counts["photonics.series_sum.terms"],
        "photonics.busy_s": busy_s["photonics"],
        "channel.simulate_observables.calls": tracer.calls(
            "optimizer.simulate_observables", "keylength.simulate_observables"),
        "channel.self_s": self_s["channel"],
        "decoy_bounds.evaluate_bounds.calls": tracer.calls("keylength.evaluate_bounds"),
        "decoy_bounds.x_points": counts["decoy_bounds.x_points"],
        "decoy_bounds.self_s": self_s["decoy_bounds"],
        "phase_error.calls": tracer.calls("keylength._phase_error_arrays"),
        "phase_error.omega_solves": counts["phase_error.omega_solves"],
        "phase_error.busy_s": busy_s["phase_error"],
        "keylength.key_length.calls": key_length_calls,
        "keylength.asymptotic_rate.calls": tracer.calls("optimizer.asymptotic_rate"),
        "keylength.self_s": self_s["keylength"],
        "keylength.vacuous_frac": (counts["keylength.key_length.vacuous"]
                                   / key_length_calls if key_length_calls else 0.0),
        "optimizer.optimize_rate.calls": tracer.calls("optimizer.optimize_rate"),
        "optimizer.key_length_per_op": key_length_calls / ops,
        "optimizer.self_s": self_s["optimizer"],
        "cli.rows": tracer.calls("cli.sweep_point"),
        "cli.self_s": self_s["cli"],
        "trace.ops": ops,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in per_layer}


def setup_seconds(workload, seed) -> list[tuple[float, float]]:
    """Process start to first timed op, measured in SETUP_PROBES fresh interpreters.

    The child prints ``time.perf_counter()`` once its set-up is done; both
    clocks are the system-wide monotonic clock, so the difference covers
    interpreter start, imports, config and input generation.  Each start is
    paired with ``speed.start_speed()`` measured just before it.
    """
    import speed

    out = []
    for _ in range(SETUP_PROBES):
        start_speed = speed.start_speed()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append((float(proc.stdout.split()[-1]) - start, start_speed))
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args, load_at_start) -> int:
    import spans
    import speed
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe:
        print(time.perf_counter())
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed,
              "environment": environment(load_at_start)}
    if args.trace:
        tracer = spans.Tracer()
        outcomes, untraced_s, traced_s, mismatches = traced_loop(w, tracer,
                                                                 w.trace_ops)
        detail["absent_boundaries"] = tracer.absent
        metrics = layer_metrics(tracer, w.trace_ops, untraced_s, traced_s)
        failures = workloads.check(w, outcomes, args.seed)
        for k in mismatches:
            failures.setdefault(k, "traced output differs from untraced output")
        with open(OUT_DIR / f"{tag}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        setups = setup_seconds(args.workload, args.seed)
        probe = speed.SpeedProbe()
        times, outcomes, wall = closed_loop(w, args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workloads.check(w, outcomes, args.seed)
        setups += setup_seconds(args.workload, args.seed)
        ops_per_s = len(times) / wall
        metrics = {
            "ref_ops_per_s": metric(ops_per_s / probe.speed(), "1/s"),
            "setup_s": metric(statistics.median(t * v for t, v in setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        detail["ops_per_s"] = ops_per_s
        detail["speed"] = {"mean": probe.speed(), "samples": len(probe.samples),
                           "busy_frac": probe.busy_s / (wall + probe.busy_s)}
        detail["op_samples"] = len(times)
        detail["op_s.p50"] = statistics.median(times)
        detail["op_s.p90"] = (statistics.quantiles(times, n=10)[-1]
                              if len(times) >= P90_MIN_OPS else None)
        detail["setup_s_samples"] = [t for t, _ in setups]
        detail["setup_start_speed"] = [v for _, v in setups]
    detail["shares"] = shares(outcomes)
    detail["fail_frac"] = len(failures) / len(outcomes)
    detail["failures"] = {str(k): reason for k, reason in sorted(failures.items())}
    detail["metrics"] = metrics
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one line per metric, then totals."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, detail_line, result_line = proc.stdout.splitlines()
        detail = json.loads(detail_line.removeprefix("detail "))
        result = json.loads(result_line)
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["ops_per_s"] = metric(detail["ops_per_s"], "1/s")
            metrics["op_s.p50"] = metric(detail["op_s.p50"], "s")
            p90 = detail["op_s.p90"]
            metrics["op_s.p90"] = metric(p90, "s") if p90 is not None else None
        metrics["fail_frac"] = metric(detail["fail_frac"], "fraction")
        for key, m in metrics.items():
            shown = (f"{m['value']:.6g} {m['unit']}" if m is not None
                     else f"undefined (fewer than {P90_MIN_OPS} ops)")
            print(f"{name:<11} {key:<36} {shown}")
        print(f"{name:<11} {'ops':<36} {detail['shares']['ops']} "
              f"(vacuous share {detail['shares']['vacuous_share']:.3f})")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in metrics.items()
                                    if m is not None})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/passivekey/__init__.py", "tests/reference_impl.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    return run_one(args, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
