"""anwsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload cluster_fc --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one table
    python3 bench/run.py --smoke             # tiny sizes, checks metric names

A run repeats the workload's pass (its fixed list of operations) as many
times as fit in ``--seconds`` at the workload's nominal pass time, and at
least twice: repeats of one seed must give byte-identical results. The
operation times of workloads made of short operations are scaled to the
reference host's speed (see calibrate.py). With
``--trace 1`` it runs one untraced and one traced pass instead, then the
isolated per-layer timings, all unscaled. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the provenance and the figures that are not metrics.
See bench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import sys

from env import BENCH, ROOT, SCRATCH, prepare_imports, provenance

prepare_imports()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, HostSpeed  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
CLI_COMMANDS = ("propagate", "vlf", "supermodes", "verify", "cluster", "oracle-check")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.metric_names():
        units[name] = "s" if name.endswith("_s") else "ratio" if name.endswith("yield") else "count"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
    units["cli.propagate.parallel2_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for name in micro.metric_names():
        units[name] = "us"
    return units


# ---------------------------------------------------------------------------
# one workload


class Ledger:
    """Attempted and failed operations, with the reasons kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outcomes: list[workloads.Outcome] = []
        self.first_digest: dict[str, str] = {}

    def record(self, op: workloads.Op, result) -> workloads.Outcome | None:
        self.attempted += 1
        if isinstance(result, BaseException):
            self.failures.append(f"{op.name}: {type(result).__name__}: {result}")
            return None
        try:
            outcome = op.check(result)
        except Exception as exc:  # a malformed output is a failed operation
            self.failures.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
            return None
        first = self.first_digest.setdefault(op.name, outcome.digest)
        if outcome.digest != first:
            outcome.problems.append("results differ from an earlier pass with the same seed")
        if outcome.problems:
            self.failures.append(f"{op.name}: " + "; ".join(outcome.problems))
        self.outcomes.append(outcome)
        return outcome


def run_pass(ops: list[workloads.Op], host: HostSpeed | None = None) -> list[tuple]:
    """(operation, seconds, host slowdown, result) per operation.

    An exception is kept as the result. With ``host``, the kernel is timed
    after each operation and the slowdown is estimated around it;
    otherwise the slowdown is 1.
    """
    timed = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation
            result = exc
        t1 = time.perf_counter()
        timed.append((op, t0, t1, result))
        if host is not None:
            host.after(t1 - t0)
    return [
        (op, t1 - t0, host.slowdown(t0, t1) if host is not None else 1.0, result)
        for op, t0, t1, result in timed
    ]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile.

    With too few samples for that percentile to lie above the median, the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if 2 * rank <= len(ordered):
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup(name: str, seed: int, size: str, scratch: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = scratch / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), size, str(probe_dir)],
            check=True,
            cwd=ROOT,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(args, wl: workloads.Workload, scratch: Path) -> tuple[dict, Ledger, dict]:
    # set-up is interpreter start and imports, which do not track the
    # calibration kernel, so it stays in plain wall seconds
    setup = measure_setup(wl.name, args.seed, args.size, scratch)
    host = HostSpeed() if wl.calibrated else None
    if host is not None:
        host.probe()
    wl.warmup()
    ledger = Ledger()
    pass_times, pass_rates, op_times, raw_pass_times = [], [], [], []
    by_op: dict[str, list[float]] = {}
    passes = max(MIN_PASSES, round(args.seconds / workloads.NOMINAL_PASS_S[wl.name]))
    for _ in range(passes):
        timed = run_pass(wl.ops, host)
        # every time in reference-host seconds, every rate per reference-host second
        pass_times.append(sum(dt / slow for _, dt, slow, _ in timed))
        raw_pass_times.append(sum(dt for _, dt, _, _ in timed))
        items = 0
        for op, dt, slow, result in timed:
            op_times.append(dt / slow)
            by_op.setdefault(op.name, []).append(dt / slow)
            outcome = ledger.record(op, result)
            if outcome is not None:
                items += outcome.items
        pass_rates.append(items / pass_times[-1])
    tail_s, tail_pct = tail(op_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(pass_times),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_s,
        "items_per_s": statistics.median(pass_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(pass_times),
        "ops": len(op_times),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(op_times),
        "pass_s": pass_times,
        "op_median_s": {name: statistics.median(dts) for name, dts in by_op.items()},
        "setup_samples_s": setup,
        "raw_pass_s": raw_pass_times,
    }
    if host is not None:
        info["host_slowdown"] = statistics.median(dt for _, dt in host.samples) / REFERENCE_S
        info["calibration_samples"] = len(host.samples)
    return metrics, ledger, info


def traced(args, wl: workloads.Workload) -> tuple[dict, Ledger, dict]:
    wl.warmup()
    ledger = Ledger()
    untraced = run_pass(wl.ops)
    with tracing.Tracer() as tracer:
        traced_pass = run_pass(wl.ops)
    for op, _, _, result in untraced + traced_pass:
        ledger.record(op, result)
    run_untraced = sum(dt for _, dt, _, _ in untraced)
    run_traced = sum(dt for _, dt, _, _ in traced_pass)

    metrics: dict[str, float] = tracer.metrics()
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.wall_s"] = sum(
            (dt for op, dt, _, _ in traced_pass if op.name.startswith(f"cli {cmd}[")), 0.0
        )
    metrics["cli.propagate.parallel2_s"] = 0.0
    for op, dt, _, result in run_pass(wl.traced_only):
        ledger.record(op, result)
        metrics["cli.propagate.parallel2_s"] = dt
    metrics["trace.overhead_ratio"] = run_traced / run_untraced
    micro_metrics, micro_source = micro.run_micro(tracer.captured, args.seed)
    metrics.update(micro_metrics)
    info = {
        "run_untraced_s": run_untraced,
        "run_traced_s": run_traced,
        "missing": tracer.missing,
        "micro_input": micro_source,
    }
    return metrics, ledger, info


def quality(ledger: Ledger) -> dict:
    """target_ratio and the search-quality figures that are not failures."""
    out: dict = {}
    held = [o for o in ledger.outcomes if o.stored is not None]
    if held:
        out["target_ratio"] = sum(o.achieved for o in held) / sum(o.stored for o in held)
    for key in {k for o in ledger.outcomes for k in o.extra}:
        out[key] = sorted({o.extra[key] for o in ledger.outcomes if key in o.extra})
    return out


def run_workload(args) -> int:
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        wl = workloads.build(args.workload, args.seed, args.size, scratch / "run")
        if args.trace:
            metrics, ledger, info = traced(args, wl)
            units = per_layer_units()
        else:
            metrics, ledger, info = end_to_end(args, wl, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    failed = len(ledger.failures)
    info.update(quality(ledger))
    info["fail_ratio"] = failed / ledger.attempted
    info["failures"] = ledger.failures
    info.update(workload=args.workload, seed=args.seed, size=args.size, trace=args.trace)
    info["provenance"] = provenance()
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": ledger.attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# every workload, and the smoke check


def _child(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def run_all(args) -> int:
    columns = list(END_TO_END) + ["fail_ratio", "target_ratio"]
    units = {**END_TO_END, "fail_ratio": "1", "target_ratio": "1"}
    print("workload      " + " ".join(f"{c + ' [' + units[c] + ']':>18}" for c in columns))
    ok = True
    for name in workloads.WORKLOADS:
        result, info = _child(name, args.seed, args.seconds, 0, args.size)
        ok &= result["correct"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values.update(fail_ratio=info["fail_ratio"], target_ratio=info.get("target_ratio"))
        cells = [f"{values[c]:>18.6g}" if values[c] is not None else f"{'n/a':>18}" for c in columns]
        print(f"{name:<13} " + " ".join(cells))
        for failure in info["failures"]:
            print(f"  FAILED {failure}")
    return 0 if ok else 1


def run_smoke(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                result, _ = _child(name, args.seed, 1, trace, "tiny")
            except RuntimeError as exc:
                problems.append(str(exc))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: {sorted(diff)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, {result['attempted']} operations")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance-test seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.BUDGET), default="full")
    parser.add_argument("--smoke", action="store_true", help="run every workload tiny and check metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
