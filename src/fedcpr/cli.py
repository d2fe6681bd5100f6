"""Command-line interface.

Commands: ``run`` (one configured run), ``sweep`` (vary K or N), ``oracle``
(exact objective/gradient at the initial model, for cross-implementation
checks), ``selftest`` (checks this install against the reference traces).

Exit codes: 0 success, 2 config error, 3 runtime error, 4 a selftest check
failed, including traces that moved from the reference ones.
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import PAUC_FPRS, checked_oracle
from .data import build_dataset
from .harness import ConfigError, parse_config_file, run, sweep
from .model import initial_model
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcpr",
        description="Federated compositional pairwise risk optimization harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override both data and run seeds")
    p_run.add_argument("--out", default=None, help="override output_path")
    p_run.add_argument("--iter-trace", action="store_true",
                       help="also write per-iteration records to <out>.iters.csv")

    p_sweep = sub.add_parser("sweep", help="run one config per K or N value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["K", "N"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated integers, e.g. 1,8,32")
    p_sweep.add_argument("--out-dir", required=True)

    p_oracle = sub.add_parser(
        "oracle", help="exact objective and gradient at the initial model"
    )
    p_oracle.add_argument("--config", required=True)

    sub.add_parser("selftest", help="check this install against the reference traces")
    return parser


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    run(config, seed=args.seed, out=args.out, iteration_trace=args.iter_trace)
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config_file(args.config)
    try:
        values = [int(v) for v in args.values.split(",")]  # int("") fails too
    except ValueError:
        raise ConfigError(f"values: expected integers, got {args.values!r}") from None
    rows = sweep(config, args.axis, values, args.out_dir)
    print(f"{args.axis} value  objective   " + "".join(f"  pauc@{f:g}" for f in PAUC_FPRS)
          + "  floats")
    for row in rows:
        paucs = "".join(f"{row[f'final_pauc_{f:g}']:.4f} " for f in PAUC_FPRS)
        print(f"{row['value']:>8} {row['final_objective']:.6g} {paucs}{row['total_floats']}")
    return 0


def _cmd_oracle(args) -> int:
    config = parse_config_file(args.config)
    dataset = build_dataset(config.data)
    w0 = initial_model(config.scorer, config.hyper.seed)
    obj, grad, grad_sq = checked_oracle(config.loss, config.outer, config.scorer, w0, dataset,
                                        "the initial model")
    print(f"objective = {obj:.17g}")
    print(f"grad_norm_sq = {grad_sq:.17g}")
    print("grad = " + ",".join(format(v, ".17g") for v in grad))
    return 0


def _cmd_selftest(_args) -> int:
    results = run_selftest()
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        detail = f" ({res.detail})" if res.detail else ""
        print(f"[{status}] {res.name}{detail}")
        failed += 0 if res.ok else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 4
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
