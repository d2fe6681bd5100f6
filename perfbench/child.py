"""One simulation in a fresh interpreter.

usage: child.py <config file> <simulation dir> <spawn time> <trace 0|1>
       <iteration trace 0|1> <stress probe 0|1> <dump data 0|1>

<spawn time> is the parent's ``time.perf_counter()`` just before it started
this interpreter; the clock is system-wide, so setup time is measured from
the start of the interpreter to the call into ``harness.run``. Imports that
are not needed before that call come after it.
"""

import os
import sys
import time

_ARGS = sys.argv[1:]
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR), "src")


def main() -> int:
    cfg_path, sim_dir, t_spawn = _ARGS[0], _ARGS[1], float(_ARGS[2])
    traced, iteration_trace, probe, dump = (a == "1" for a in _ARGS[3:7])
    sys.path.insert(0, _SRC_DIR)
    t_import = time.perf_counter()
    import fedcpr
    from fedcpr import harness

    t_parse = time.perf_counter()
    config = harness.parse_config_file(cfg_path)
    t_parsed = time.perf_counter()
    tracer = None
    if traced:
        sys.path.insert(0, _BENCH_DIR)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_call = time.perf_counter()
    trace = harness.run(
        config, out=os.path.join(sim_dir, "trace.csv"), iteration_trace=iteration_trace, quiet=True
    )
    t_done = time.perf_counter()

    import resource

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import json

    import numpy as np

    src = os.path.realpath(_SRC_DIR)
    if not os.path.realpath(fedcpr.__file__).startswith(src + os.sep):
        print(f"imported fedcpr from {fedcpr.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {
        "setup_s": t_call - t_spawn,
        "import_s": t_parse - t_import,
        "parse_s": t_parsed - t_parse,
        "run_s": t_done - t_call,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "final_model": [float(v) for v in trace.final_model],
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
        result["missing_spans"] = tracer.missing
    if dump or probe:
        sys.path.insert(0, _BENCH_DIR)
        import checks
    if dump:
        ds = fedcpr.build_dataset(config.data)
        np.savez(
            os.path.join(sim_dir, "data.npz"),
            pos_X=ds.pos_union()[1],
            neg_X=ds.neg_union()[1],
            eval_pos_X=ds.eval_pos_X,
            eval_neg_X=ds.eval_neg_X,
        )
    if probe:
        result["stress"] = stress_probe(fedcpr, checks, config, np)
    with open(os.path.join(sim_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def stress_probe(fedcpr, checks, config, np) -> dict:
    """Exact oracle at a far-from-optimal model, against the log domain.

    The data are the workload's at data seed 0 whatever the run's seed, so
    the probe's outcome does not depend on the seed.
    """
    from dataclasses import replace

    ds = fedcpr.build_dataset(replace(config.data, seed=0))
    pos_X, neg_X = ds.pos_union()[1], ds.neg_union()[1]
    w = checks.stress_point(pos_X, neg_X)
    cfg = {"loss.lambda": config.loss.lam, "outer.lambda": config.outer.lam}
    want_obj, want_grad = checks.kl_log_domain(cfg, w, pos_X, neg_X)
    with np.errstate(all="ignore"):
        obj = fedcpr.exact_objective(config.loss, config.outer, config.scorer, w, pos_X, neg_X)
        grad = fedcpr.exact_grad(config.loss, config.outer, config.scorer, w, pos_X, neg_X)
    ok = (
        bool(np.isfinite(obj))
        and abs(obj - want_obj) <= 1e-9 * abs(want_obj)
        and bool(np.all(np.isfinite(grad)))
        and float(np.linalg.norm(grad - want_grad)) <= 1e-6 * float(np.linalg.norm(want_grad))
    )
    return {"ok": ok, "objective": float(obj), "log_domain_objective": want_obj}


if __name__ == "__main__":
    sys.exit(main())
