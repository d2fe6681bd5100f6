"""Configuration parsing, experiment orchestration, and trace output.

Config files are flat ``section.key = value`` lines with ``#`` comments.
Every key has a documented default (empty file = default run: 16 clients,
K=32, B1=B2=32, beta=0.1). Unknown keys, type errors and invariant
violations raise :class:`ConfigError` naming the offending key.

Traces are CSV, one record per round, written incrementally so a crash
leaves a valid prefix. Line 1 is a ``# config:`` comment echoing the full
resolved configuration; floats carry 17 significant digits. Optional
per-iteration records go to a sibling ``<out>.iters.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .algorithms import (
    DEFAULT_PAUC_FPRS,
    HyperParams,
    IterationRecord,
    RoundRecord,
    RunTrace,
    centralized_run,
    fedx1_run,
    fedx2_run,
    local_pair_run,
    local_sgd_run,
)
from .data import DataConfig, build_dataset
from .losses import OuterFnSpec, PairwiseLossSpec
from .model import ScorerSpec

ALGORITHMS = ("fedx1", "fedx2", "local_sgd", "local_pair", "centralized")


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    data: DataConfig
    scorer: ScorerSpec
    loss: PairwiseLossSpec
    outer: OuterFnSpec
    hyper: HyperParams
    eval_every_rounds: int = 1
    oracle_every_rounds: int = 1
    output_path: str = "trace.csv"


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_opt_int(key: str, raw: str) -> int | None:
    if raw.lower() == "none":
        return None
    return _parse_int(key, raw)


def _parse_str(key: str, raw: str) -> str:
    return raw


# key -> (parser, default)
_SCHEMA = {
    "algorithm": (_parse_str, "fedx1"),
    "eval_every_rounds": (_parse_int, 1),
    "oracle_every_rounds": (_parse_int, 1),
    "output_path": (_parse_str, "trace.csv"),
    "data.n_pos_per_client": (_parse_int, 4),
    "data.n_neg_per_client": (_parse_int, 20),
    "data.input_dim": (_parse_int, 8),
    "data.n_clients": (_parse_int, 16),
    "data.hetero_step": (_parse_float, 0.01),
    "data.hetero_base": (_parse_float, -0.08),
    "data.hetero_var": (_parse_float, 0.04),
    "data.flip_fraction": (_parse_float, 0.0),
    "data.seed": (_parse_int, 0),
    "data.cluster_sep": (_parse_float, 1.9),
    "data.cluster_std": (_parse_float, 1.0),
    "scorer.kind": (_parse_str, "linear"),
    "scorer.input_dim": (_parse_opt_int, None),  # defaults to data.input_dim
    "scorer.hidden_dim": (_parse_int, 8),
    "scorer.activation": (_parse_str, "tanh"),
    "loss.kind": (_parse_str, "psm_sigmoid"),
    "loss.lambda": (_parse_float, 1.0),
    "outer.kind": (_parse_str, "identity"),
    "outer.lambda": (_parse_float, 1.0),
    "outer.u_floor": (_parse_float, 1e-8),
    "hyper.eta": (_parse_float, 0.1),
    "hyper.K": (_parse_int, 32),
    "hyper.R": (_parse_int, 30),
    "hyper.B1": (_parse_int, 32),
    "hyper.B2": (_parse_int, 32),
    "hyper.gamma": (_parse_float, 0.1),
    "hyper.beta": (_parse_float, 0.1),
    "hyper.lr_decay_every": (_parse_opt_int, None),
    "hyper.lr_decay_factor": (_parse_float, 0.1),
    "hyper.seed": (_parse_int, 0),
    "hyper.history_samples": (_parse_str, "independent"),
}


def _check(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {message}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config, filling every default."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{key}: set more than once")
        raw[key] = value

    vals: dict[str, object] = {}
    for key, (parser, default) in _SCHEMA.items():
        vals[key] = parser(key, raw[key]) if key in raw else default

    algorithm = vals["algorithm"]
    _check(algorithm in ALGORITHMS, "algorithm", f"must be one of {ALGORITHMS}")
    _check(vals["eval_every_rounds"] >= 0, "eval_every_rounds", "must be >= 0")
    _check(vals["oracle_every_rounds"] >= 0, "oracle_every_rounds", "must be >= 0")

    for key in ("data.n_pos_per_client", "data.n_neg_per_client", "data.input_dim",
                "data.n_clients"):
        _check(vals[key] >= 1, key, "must be >= 1")
    _check(0.0 <= vals["data.flip_fraction"] <= 1.0, "data.flip_fraction",
           "must be in [0, 1]")
    _check(vals["data.hetero_var"] >= 0, "data.hetero_var", "must be >= 0")
    _check(vals["data.cluster_std"] > 0, "data.cluster_std", "must be positive")

    _check(vals["scorer.kind"] in ("linear", "mlp1"), "scorer.kind",
           "must be linear or mlp1")
    if vals["scorer.input_dim"] is None:
        vals["scorer.input_dim"] = vals["data.input_dim"]
    _check(vals["scorer.input_dim"] == vals["data.input_dim"], "scorer.input_dim",
           "must match data.input_dim")
    if vals["scorer.kind"] == "mlp1":
        _check(vals["scorer.hidden_dim"] >= 1, "scorer.hidden_dim", "must be >= 1")
        _check(vals["scorer.activation"] == "tanh", "scorer.activation",
               "only tanh is supported")

    _check(vals["loss.kind"] in ("psm_sigmoid", "kl_opauc", "square"), "loss.kind",
           "must be psm_sigmoid, kl_opauc or square")
    if vals["loss.kind"] == "kl_opauc":
        _check(vals["loss.lambda"] > 0, "loss.lambda", "must be positive")
    _check(vals["outer.kind"] in ("identity", "kl_log"), "outer.kind",
           "must be identity or kl_log")
    if vals["outer.kind"] == "kl_log":
        _check(vals["outer.lambda"] > 0, "outer.lambda", "must be positive")
        _check(vals["outer.u_floor"] > 0, "outer.u_floor", "must be positive")

    _check(vals["hyper.eta"] >= 0, "hyper.eta", "must be >= 0")
    for key in ("hyper.K", "hyper.R", "hyper.B1", "hyper.B2"):
        _check(vals[key] >= 1, key, "must be >= 1")
    for key in ("hyper.gamma", "hyper.beta"):
        _check(0.0 < vals[key] <= 1.0, key, "must be in (0, 1]")
    if vals["hyper.lr_decay_every"] is not None:
        _check(vals["hyper.lr_decay_every"] >= 1, "hyper.lr_decay_every",
               "must be >= 1 or none")
    _check(vals["hyper.lr_decay_factor"] > 0, "hyper.lr_decay_factor",
           "must be positive")
    _check(vals["hyper.history_samples"] in ("independent", "reuse"),
           "hyper.history_samples", "must be independent or reuse")

    if algorithm == "fedx1":
        _check(vals["outer.kind"] == "identity", "outer.kind",
               "fedx1 requires outer.kind = identity")
    if algorithm == "fedx2":
        _check(vals["outer.kind"] == "kl_log", "outer.kind",
               "fedx2 requires outer.kind = kl_log")

    data = DataConfig(
        n_pos_per_client=vals["data.n_pos_per_client"],
        n_neg_per_client=vals["data.n_neg_per_client"],
        input_dim=vals["data.input_dim"],
        n_clients=vals["data.n_clients"],
        hetero_step=vals["data.hetero_step"],
        hetero_base=vals["data.hetero_base"],
        hetero_var=vals["data.hetero_var"],
        flip_fraction=vals["data.flip_fraction"],
        seed=vals["data.seed"],
        cluster_sep=vals["data.cluster_sep"],
        cluster_std=vals["data.cluster_std"],
    )
    scorer = ScorerSpec(
        kind=vals["scorer.kind"],
        input_dim=vals["scorer.input_dim"],
        hidden_dim=vals["scorer.hidden_dim"] if vals["scorer.kind"] == "mlp1" else 0,
        activation="tanh",
    )
    loss = PairwiseLossSpec(kind=vals["loss.kind"], lam=vals["loss.lambda"])
    outer = OuterFnSpec(
        kind=vals["outer.kind"], lam=vals["outer.lambda"], u_floor=vals["outer.u_floor"]
    )
    hyper = HyperParams(
        eta=vals["hyper.eta"],
        K=vals["hyper.K"],
        R=vals["hyper.R"],
        B1=vals["hyper.B1"],
        B2=vals["hyper.B2"],
        gamma=vals["hyper.gamma"],
        beta=vals["hyper.beta"],
        lr_decay_every=vals["hyper.lr_decay_every"],
        lr_decay_factor=vals["hyper.lr_decay_factor"],
        seed=vals["hyper.seed"],
        history_samples=vals["hyper.history_samples"],
    )
    return RunConfig(
        algorithm=algorithm,
        data=data,
        scorer=scorer,
        loss=loss,
        outer=outer,
        hyper=hyper,
        eval_every_rounds=vals["eval_every_rounds"],
        oracle_every_rounds=vals["oracle_every_rounds"],
        output_path=vals["output_path"],
    )


def parse_config_file(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def config_echo(config: RunConfig) -> str:
    """The resolved config as flat key=value pairs, in schema order."""
    c = config
    opt = lambda v: "none" if v is None else v
    items = {
        "algorithm": c.algorithm,
        "eval_every_rounds": c.eval_every_rounds,
        "oracle_every_rounds": c.oracle_every_rounds,
        "output_path": c.output_path,
        "data.n_pos_per_client": c.data.n_pos_per_client,
        "data.n_neg_per_client": c.data.n_neg_per_client,
        "data.input_dim": c.data.input_dim,
        "data.n_clients": c.data.n_clients,
        "data.hetero_step": c.data.hetero_step,
        "data.hetero_base": c.data.hetero_base,
        "data.hetero_var": c.data.hetero_var,
        "data.flip_fraction": c.data.flip_fraction,
        "data.seed": c.data.seed,
        "data.cluster_sep": c.data.cluster_sep,
        "data.cluster_std": c.data.cluster_std,
        "scorer.kind": c.scorer.kind,
        "scorer.input_dim": c.scorer.input_dim,
        "scorer.hidden_dim": c.scorer.hidden_dim,
        "scorer.activation": c.scorer.activation,
        "loss.kind": c.loss.kind,
        "loss.lambda": c.loss.lam,
        "outer.kind": c.outer.kind,
        "outer.lambda": c.outer.lam,
        "outer.u_floor": c.outer.u_floor,
        "hyper.eta": c.hyper.eta,
        "hyper.K": c.hyper.K,
        "hyper.R": c.hyper.R,
        "hyper.B1": c.hyper.B1,
        "hyper.B2": c.hyper.B2,
        "hyper.gamma": c.hyper.gamma,
        "hyper.beta": c.hyper.beta,
        "hyper.lr_decay_every": opt(c.hyper.lr_decay_every),
        "hyper.lr_decay_factor": c.hyper.lr_decay_factor,
        "hyper.seed": c.hyper.seed,
        "hyper.history_samples": c.hyper.history_samples,
    }
    return " ".join(f"{k}={v}" for k, v in items.items())


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def trace_columns(pauc_fprs=DEFAULT_PAUC_FPRS) -> list[str]:
    cols = ["round", "wall_seconds", "objective", "grad_norm_sq", "auc"]
    cols += [f"pauc_{f:g}" for f in pauc_fprs]
    cols += ["uplink_floats", "downlink_floats", "buffer_wraps"]
    return cols


class CsvTraceSink:
    """Incremental CSV writer for round (and optional iteration) records."""

    def __init__(
        self,
        path: str | Path,
        config: RunConfig,
        pauc_fprs=DEFAULT_PAUC_FPRS,
        iteration_path: str | Path | None = None,
    ) -> None:
        self.pauc_fprs = tuple(pauc_fprs)
        self._fh = open(path, "w")
        self._fh.write(f"# config: {config_echo(config)}\n")
        self._fh.write(",".join(trace_columns(self.pauc_fprs)) + "\n")
        self._fh.flush()
        self._iter_fh = None
        if iteration_path is not None:
            self._iter_fh = open(iteration_path, "w")
            self._iter_fh.write("client,round,iteration,loss_estimate,step_size\n")
            self._iter_fh.flush()

    def on_round(self, rec: RoundRecord) -> None:
        pauc = rec.pauc or {}
        row = [rec.round, rec.wall_seconds, rec.objective, rec.grad_norm_sq, rec.auc]
        row += [pauc.get(f) for f in self.pauc_fprs]
        row += [rec.uplink_floats, rec.downlink_floats, rec.buffer_wraps]
        self._fh.write(",".join(_fmt(v) for v in row) + "\n")
        self._fh.flush()

    def on_iteration(self, rec: IterationRecord) -> None:
        if self._iter_fh is None:
            return
        row = [rec.client, rec.round, rec.iteration, rec.loss_estimate, rec.step_size]
        self._iter_fh.write(",".join(_fmt(v) for v in row) + "\n")
        self._iter_fh.flush()

    def close(self) -> None:
        self._fh.close()
        if self._iter_fh is not None:
            self._iter_fh.close()


def total_floats(trace: RunTrace, n_clients: int) -> int:
    """Floats communicated over the whole run, all clients, both directions."""
    return sum(
        n_clients * (rec.uplink_floats + rec.downlink_floats) for rec in trace.rounds
    )


def run(
    config: RunConfig,
    *,
    seed: int | None = None,
    out: str | Path | None = None,
    iteration_trace: bool = False,
    quiet: bool = False,
) -> RunTrace:
    """Execute one configured run, writing the trace incrementally.

    ``seed`` overrides both the data seed and the run seed.
    """
    if seed is not None:
        config = replace(
            config,
            data=replace(config.data, seed=seed),
            hyper=replace(config.hyper, seed=seed),
        )
    out_path = Path(out) if out is not None else Path(config.output_path)
    config = replace(config, output_path=str(out_path))
    sink = CsvTraceSink(
        out_path,
        config,
        iteration_path=out_path.with_name(out_path.name + ".iters.csv")
        if iteration_trace
        else None,
    )
    try:
        dataset = build_dataset(config.data)
        kwargs = dict(
            trace_sink=sink,
            eval_every=config.eval_every_rounds,
            oracle_every=config.oracle_every_rounds,
            iteration_trace=iteration_trace,
        )
        if config.algorithm == "fedx1":
            trace = fedx1_run(dataset, config.scorer, config.loss, config.hyper, **kwargs)
        elif config.algorithm == "fedx2":
            trace = fedx2_run(
                dataset, config.scorer, config.loss, config.outer, config.hyper, **kwargs
            )
        else:
            runner = {
                "local_sgd": local_sgd_run,
                "local_pair": local_pair_run,
                "centralized": centralized_run,
            }[config.algorithm]
            trace = runner(
                dataset, config.scorer, config.loss, config.outer, config.hyper, **kwargs
            )
    finally:
        sink.close()
    if not quiet:
        final = trace.final_round()
        pauc = (final.pauc or {}).get(0.5)
        print(
            f"{config.algorithm}: final objective={_fmt(final.objective)} "
            f"final pauc@0.5={_fmt(pauc)} "
            f"floats={total_floats(trace, config.data.n_clients)}"
        )
    return trace


def sweep(
    base_config: RunConfig,
    axis: str,
    values: list[int],
    out_dir: str | Path,
    *,
    quiet: bool = True,
) -> list[dict]:
    """Run one config per value of K or N and tabulate the final metrics.

    vary-N regenerates data with the new client count and proportionally
    scaled per-client sizes, keeping the total dataset fixed. The summary
    CSV is written incrementally; a failed run aborts the sweep with the
    finished traces and summary rows preserved.
    """
    if axis not in ("K", "N"):
        raise ConfigError(f"axis: must be K or N, got {axis!r}")
    if not values:
        raise ConfigError("values: must be nonempty")
    if min(values) < 1:
        raise ConfigError(f"values: must be positive, got {values}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total_pos = base_config.data.n_pos_per_client * base_config.data.n_clients
    total_neg = base_config.data.n_neg_per_client * base_config.data.n_clients

    rows: list[dict] = []
    with open(out_dir / "summary.csv", "w") as summary:
        summary.write("value,final_objective,final_pauc_0.3,final_pauc_0.5,total_floats\n")
        summary.flush()
        for value in values:
            if axis == "K":
                cfg = replace(base_config, hyper=replace(base_config.hyper, K=value))
            else:
                if total_pos % value or total_neg % value:
                    raise ConfigError(
                        f"data.n_clients: total counts ({total_pos} pos, {total_neg} neg)"
                        f" are not divisible by N={value}"
                    )
                cfg = replace(
                    base_config,
                    data=replace(
                        base_config.data,
                        n_clients=value,
                        n_pos_per_client=total_pos // value,
                        n_neg_per_client=total_neg // value,
                    ),
                )
            trace = run(
                cfg, out=out_dir / f"trace_{axis}{value}.csv", quiet=quiet
            )
            final = trace.final_round()
            pauc = final.pauc or {}
            row = {
                "value": value,
                "final_objective": final.objective,
                "final_pauc_0.3": pauc.get(0.3),
                "final_pauc_0.5": pauc.get(0.5),
                "total_floats": total_floats(trace, cfg.data.n_clients),
            }
            rows.append(row)
            summary.write(
                ",".join(
                    _fmt(row[c])
                    for c in (
                        "value",
                        "final_objective",
                        "final_pauc_0.3",
                        "final_pauc_0.5",
                        "total_floats",
                    )
                )
                + "\n"
            )
            summary.flush()
    return rows
