"""Benchmark of the fedcpr simulator: one workload, one run.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run starts simulations one at a time, each in a fresh interpreter
(perfbench/child.py) that calls ``fedcpr.harness.run`` on the workload's
generated config, until ``--seconds`` have passed; every simulation runs
all its rounds. Then the outputs are checked (perfbench/checks.py) and the
last line of standard output is one JSON object with the metrics.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's simulations. With ``--trace 1`` untraced and traced simulations
(perfbench/tracer.py) alternate, and the metrics are per layer. The
package comes from ``src/`` next to this directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEADLINE_S = 170.0  # a run must end within 180 s

CHILD_ENV = {
    "FEDX_THREADS": "0",  # serial clients: the thread pool is slower (see README)
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(cfg_path: Path, sim_dir: Path, deadline: float, *, traced: bool,
          iteration_trace: bool, probe: bool, dump: bool) -> dict:
    """Run one simulation in a fresh interpreter and return its result."""
    sim_dir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    flags = [str(int(f)) for f in (traced, iteration_trace, probe, dump)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the simulation could start")
    t_spawn = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(cfg_path), str(sim_dir),
           repr(t_spawn), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{sim_dir.name} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{sim_dir.name} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads((sim_dir / "result.json").read_text())
    result["dir"] = sim_dir
    result["rows"] = checks.read_trace(sim_dir / "trace.csv")
    return result


def output_problems(cfg: dict, sims: list[dict], iteration_trace: bool) -> list[str]:
    """Every output check on the first simulation; the others must match it."""
    ref = sims[0]
    iters = ref["dir"] / "trace.csv.iters.csv"
    iter_rows = checks.read_trace(iters) if iteration_trace else None
    data = dict(np.load(ref["dir"] / "data.npz"))
    w = np.array(ref["final_model"])
    problems = checks.check_output(cfg, ref["rows"], w, data, iter_rows)
    for sim in sims[1:]:
        what = f"{sim['dir'].name} ({'traced' if 'spans' in sim else 'untraced'})"
        problems += checks.check_same(ref["rows"], sim["rows"], what)
        if sim["final_model"] != ref["final_model"]:
            problems.append(f"{what}: final model differs from {ref['dir'].name}'s")
        if iteration_trace and (sim["dir"] / iters.name).read_bytes() != iters.read_bytes():
            problems.append(f"{what}: iteration rows differ from {ref['dir'].name}'s")
    return problems


def end_to_end(cfg: dict, sims: list[dict]) -> dict:
    run_s = statistics.median(s["run_s"] for s in sims)
    round_s = [float(r["wall_seconds"]) for s in sims for r in s["rows"][1:]]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in sims), "s"),
        "run_s": (run_s, "s"),
        "steps_per_s": (workloads.local_steps(cfg) / run_s, "1/s"),
        "round_ms_p50": (1e3 * statistics.median(round_s), "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sims), "MB"),
    }


def per_layer(sims: list[dict], untraced: list[dict]) -> dict:
    """Span totals of the traced simulations, per call, round or simulation.

    Every time reported is of code that runs on every workload, so none of
    them reads a constant 0: buffer refills are timed together with the
    server's aggregation, buffer draws within the local steps, and the
    estimators and the u-tracker within the algorithms module's self time of
    a step; their counts are reported apart.
    """
    spans: dict[str, dict[str, int]] = {}
    for sim in sims:
        for name, tot in sim["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(tot, 0))
            for key, value in tot.items():
                acc[key] += value

    def get(span: str, key: str) -> int:
        return spans.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n_sims = len(sims)
    rounds = sum(len(s["rows"]) for s in sims)
    wall_ns = 1e9 * sum(float(r["wall_seconds"]) for s in sims for r in s["rows"])
    ms, us = 1e-6, 1e-3
    oracle_ns = get("losses.oracle", "ns") + get("losses.oracle_grad", "ns")
    eval_ns = get("metrics.auc", "ns") + get("metrics.partial_auc", "ns")
    inside_round = (get("algorithms.run_round", "ns") + oracle_ns + eval_ns
                    + get("harness.on_iteration", "ns"))
    exchange_ns = get("federation.aggregate", "ns") + get("federation.refill", "ns")
    steps = get("algorithms.step", "calls")
    step_self_ns = sum(get(f"algorithms.{n}", "self_ns") for n in ("step", "estimate", "u_update"))
    overhead = (statistics.median(s["run_s"] for s in sims)
                / statistics.median(s["run_s"] for s in untraced) - 1.0)
    return {
        "rng.substream_calls": (get("rng.substream", "calls") / n_sims, "count"),
        "rng.substream_us": (us * ratio(get("rng.substream", "ns"), get("rng.substream", "calls")), "us"),
        "model.score_calls": (get("model.score", "calls") / n_sims, "count"),
        "model.score_us": (us * ratio(get("model.score", "ns"), get("model.score", "calls")), "us"),
        "losses.step_calls": (get("losses.step", "calls") / n_sims, "count"),
        "losses.step_us": (us * ratio(get("losses.step", "ns"), get("losses.step", "calls")), "us"),
        "losses.oracle_ms": (ms * ratio(oracle_ns, get("losses.oracle", "calls")), "ms"),
        "losses.oracle_pairs": (ratio(get("losses.oracle", "items"), get("losses.oracle", "calls")), "count"),
        "metrics.eval_ms": (ms * ratio(eval_ns, get("metrics.auc", "calls")), "ms"),
        "federation.aggregate_ms": (ms * get("federation.aggregate", "ns") / rounds, "ms"),
        "federation.exchange_ms": (ms * exchange_ns / rounds, "ms"),
        "federation.aggregate_records": (get("federation.aggregate", "items") / rounds, "count"),
        "federation.refill_entries": (get("federation.refill", "items") / rounds, "count"),
        "federation.draw_entries": (get("federation.draw", "items") / n_sims, "count"),
        "algorithms.step_us": (us * ratio(get("algorithms.step", "ns"), steps), "us"),
        "algorithms.step_self_us": (us * ratio(step_self_ns, steps), "us"),
        "algorithms.estimate_calls": (get("algorithms.estimate", "calls") / n_sims, "count"),
        "algorithms.u_update_calls": (get("algorithms.u_update", "calls") / n_sims, "count"),
        "algorithms.upload_ms": (ms * get("algorithms.upload", "self_ns") / rounds, "ms"),
        "algorithms.begin_round_self_ms": (ms * get("algorithms.begin_round", "self_ns") / rounds, "ms"),
        "algorithms.round_local_ms": (ms * (get("algorithms.run_round", "ns") - get("federation.aggregate", "ns")) / rounds, "ms"),
        "algorithms.round_wall_ms": (ms * wall_ns / rounds, "ms"),
        "algorithms.round_other_ms": (ms * (wall_ns - inside_round) / rounds, "ms"),
        "harness.parse_ms": (1e3 * statistics.median(s["parse_s"] for s in sims), "ms"),
        "harness.write_ms": (ms * (get("harness.on_round", "ns") + get("harness.on_iteration", "ns")) / rounds, "ms"),
        "harness.iter_rows": (get("harness.on_iteration", "calls") / n_sims, "count"),
        "data.build_ms": (ms * get("data.build", "ns") / n_sims, "ms"),
        "setup.import_ms": (1e3 * statistics.median(s["import_s"] for s in sims), "ms"),
        "bench.trace_overhead_pct": (100.0 * overhead, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "fedcpr" / "__init__.py").is_file():
        raise BenchError(f"no fedcpr package under {ROOT / 'src'}")

    cfg = workloads.config(args.workload, args.seed)
    run_dir = OUT_DIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=1))
    cfg_path = run_dir / "run.cfg"
    cfg_path.write_text(workloads.config_text(cfg))
    iteration_trace = args.workload in workloads.ITERATION_TRACE
    probe = args.workload in workloads.STRESS_PROBE

    sims: list[dict] = []

    def simulate(traced: bool) -> None:
        sims.append(spawn(cfg_path, run_dir / f"sim-{len(sims)}", deadline, traced=traced,
                          iteration_trace=iteration_trace, probe=probe and not sims,
                          dump=not sims))

    # Under --trace 1 untraced and traced simulations alternate, so the
    # tracing overhead compares neighbours in time on a box whose speed drifts.
    start = time.perf_counter()
    while not sims or time.perf_counter() - start < args.seconds:
        simulate(False)
        if args.trace:
            simulate(True)
    untraced = [s for s in sims if "spans" not in s]
    traced = [s for s in sims if "spans" in s]

    # The operations are the R+1 rounds of one simulation plus, where the
    # workload has it, the oracle.stress probe. The other simulations repeat
    # those rounds for timing and must match them exactly (checked below), so
    # neither count grows with the number of simulations that fit: the failed
    # share is the same in every run, and a faster program fails no more.
    attempted = cfg["hyper.R"] + 1 + probe
    failed = int(probe and not sims[0]["stress"]["ok"])
    problems = output_problems(cfg, sims, iteration_trace)
    for missing in sorted({m for s in sims for m in s.get("missing_spans", [])}):
        print(f"not traced, the package has no {missing}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(cfg, untraced)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "simulations": [{k: v for k, v in s.items() if k not in ("dir", "rows", "final_model")}
                        for s in sims],
        "problems": problems,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if problems else
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
