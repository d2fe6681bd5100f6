"""Configuration parsing, experiment orchestration, and trace output.

Config files are flat ``section.key = value`` lines with ``#`` comments.
Every key has a documented default (empty file = default run: 16 clients,
K=32, B1=B2=32, beta=0.1). Unknown keys, type errors, non-finite numbers
and invariant violations raise :class:`ConfigError` naming the offending
key. The keys are the fields of :class:`RunConfig` and its section
dataclasses, which state each key's type and default (see ``_schema``); each
section's invariants are checked by that section's dataclass, and the checks
that span sections by :class:`RunConfig`.

Traces are CSV, one record per round, written incrementally so a crash
leaves a valid prefix. Line 1 is a ``# config:`` comment echoing the full
resolved configuration; floats carry 17 significant digits. Optional
per-iteration records go to a sibling ``<out>.iters.csv``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import get_type_hints

from .algorithms import (
    PAUC_FPRS,
    HyperParams,
    RoundRecord,
    RunTrace,
    check_algorithm,
    simulate,
)
from .data import DataConfig, build_dataset
from .fields import check_numbers
from .losses import OuterFnSpec, PairwiseLossSpec
from .model import ScorerSpec


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

    def __post_init__(self) -> None:
        # RunConfig's own fields and the checks that span sections; each
        # message starts with the key at fault.
        check_numbers(self)
        for name in ("eval_every_rounds", "oracle_every_rounds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.output_path:  # Path("") would name the working directory
            raise ValueError("output_path must not be empty")
        if self.scorer.input_dim != self.data.input_dim:
            raise ValueError("scorer.input_dim must match data.input_dim")
        check_algorithm(self.algorithm, self.outer)


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


# A field's annotation -> the parser of its key.
_PARSERS = {"int": _parse_int, "float": _parse_float, "str": lambda key, raw: raw,
            "int | None": _parse_opt_int}

# RunConfig's sections: field name -> dataclass, in declaration order.
_SECTIONS = {name: cls for name, cls in get_type_hints(RunConfig).items() if is_dataclass(cls)}

# The defaults of the keys whose dataclass field states none or another one.
_DEFAULTS = {
    "algorithm": "fedx1",
    "data.n_pos_per_client": 4,
    "data.n_neg_per_client": 20,
    "data.input_dim": 8,
    "data.n_clients": 16,
    "scorer.kind": "linear",
    "scorer.hidden_dim": 8,
    "loss.kind": "psm_sigmoid",
    "outer.kind": "identity",
}


def _schema() -> dict:
    """The one table of config keys: key -> (parser, default), in echo order:
    RunConfig's own fields, then each section's, in declaration order. A key
    "section.name" sets field `name` of that section's dataclass (`lam` for
    `lambda`, a Python keyword); a bare key sets a field of RunConfig.
    scorer.input_dim is not a key: it is data.input_dim."""
    schema = {}
    for section, cls in {"": RunConfig, **_SECTIONS}.items():
        for f in fields(cls):
            key = ".".join(filter(None, (section, "lambda" if f.name == "lam" else f.name)))
            if f.name in _SECTIONS or key == "scorer.input_dim":
                continue
            default = _DEFAULTS.get(key, f.default)
            if f.type not in _PARSERS or default is MISSING:
                raise TypeError(f"config key {key}: no parser for {f.type!r} or no default")
            schema[key] = (_PARSERS[f.type], default)
    return schema


_SCHEMA = _schema()


def _place(key: str) -> tuple[str, str]:
    """(section, field) that a key sets; section "" is RunConfig itself."""
    section, _, name = key.rpartition(".")
    return section, "lam" if name == "lambda" else name


def _build(make, section: str, fields: dict):
    """``make(**fields)``, its ValueError turned into a ConfigError naming the
    key: each message starts with the key's part after ``section``."""
    try:
        return make(**fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = f"{section}.{name}" if section else name
        raise ConfigError(f"{key}: {rest}" if key in _SCHEMA else str(exc)) from None


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

    values: dict[str, dict] = {"": {}, **{section: {} for section in _SECTIONS}}
    for key, (parser, default) in _SCHEMA.items():
        section, name = _place(key)
        values[section][name] = parser(key, raw[key]) if key in raw else default
    scorer = values["scorer"]
    scorer["input_dim"] = values["data"]["input_dim"]
    if scorer["kind"] == "linear":  # the mlp1 hidden layer does not apply
        scorer["hidden_dim"] = 0
    sections = {s: _build(cls, s, values[s]) for s, cls in _SECTIONS.items()}
    return _build(RunConfig, "", {**values[""], **sections})


def parse_config_file(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def config_echo(config: RunConfig) -> str:
    """The resolved config as flat key=value pairs, in schema order."""
    pairs = []
    for key in _SCHEMA:
        section, name = _place(key)
        value = getattr(getattr(config, section) if section else config, name)
        pairs.append(f"{key}={'none' if value is None else value}")
    return " ".join(pairs)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def trace_columns() -> list[str]:
    cols = ["round", "wall_seconds", "objective", "grad_norm_sq", "auc"]
    cols += [f"pauc_{f:g}" for f in PAUC_FPRS]
    cols += ["uplink_floats", "downlink_floats", "buffer_wraps"]
    return cols


class CsvTraceSink:
    """Incremental CSV writer for round (and optional iteration) records."""

    def __init__(
        self,
        path: str | Path,
        config: RunConfig,
        iteration_path: str | Path | None = None,
    ) -> None:
        self._iter_fh = None
        self._fh = open(path, "w")
        try:
            self._fh.write(f"# config: {config_echo(config)}\n")
            self._fh.write(",".join(trace_columns()) + "\n")
            self._fh.flush()
            if iteration_path is not None:
                self._iter_fh = open(iteration_path, "w")
                self._iter_fh.write("client,round,iteration,loss_estimate,step_size\n")
                self._iter_fh.flush()
        except BaseException:
            self.close()  # closes whatever opened before the failure
            raise

    def on_round(self, rec: RoundRecord) -> None:
        pauc = rec.pauc or {}
        row = [rec.round, rec.wall_seconds, rec.objective, rec.grad_norm_sq, rec.auc]
        row += [pauc.get(f) for f in PAUC_FPRS]
        row += [rec.uplink_floats, rec.downlink_floats, rec.buffer_wraps]
        self._fh.write(",".join(_fmt(v) for v in row) + "\n")
        self._fh.flush()
        if self._iter_fh is not None:
            # The round's iteration rows came before it: one flush per round.
            self._iter_fh.flush()

    def on_iteration(self, round_idx: int, estimates, step_sizes) -> None:
        """A round's rows, client by client, from its (K, N) loss estimates."""
        if self._iter_fh is not None:
            etas = [_fmt(float(eta)) for eta in step_sizes]
            self._iter_fh.write("".join(
                f"{i},{round_idx},{k},{_fmt(v)},{etas[k]}\n"
                for i, row in enumerate(estimates.T.tolist()) for k, v in enumerate(row)))

    def close(self) -> None:
        self._fh.close()
        if self._iter_fh is not None:
            self._iter_fh.close()


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
            data=_build(partial(replace, config.data), "data", {"seed": seed}),
            hyper=_build(partial(replace, config.hyper), "hyper", {"seed": seed}),
        )
    if out is not None:
        config = _build(partial(replace, config), "", {"output_path": str(out)})
    out_path = Path(config.output_path)
    config = replace(config, output_path=str(out_path))
    iter_path = out_path.with_name(out_path.name + ".iters.csv") if iteration_trace else None
    sink = CsvTraceSink(out_path, config, iteration_path=iter_path)
    try:
        trace = simulate(
            config.algorithm,
            build_dataset(config.data),
            config.scorer,
            config.loss,
            config.outer,
            config.hyper,
            trace_sink=sink,
            eval_every=config.eval_every_rounds,
            oracle_every=config.oracle_every_rounds,
        )
    finally:
        sink.close()
    if not quiet:
        final = trace.final_round()
        paucs = "".join(f"final pauc@{f:g}={_fmt(final.pauc[f])} " for f in PAUC_FPRS)
        print(f"{config.algorithm}: final objective={_fmt(final.objective)} {paucs}"
              f"floats={trace.total_floats}")
    return trace


# The columns of summary.csv, and the keys of each row ``sweep`` returns.
SUMMARY_COLUMNS = (
    "value", "final_objective", *(f"final_pauc_{f:g}" for f in PAUC_FPRS), "total_floats"
)


def sweep(
    base_config: RunConfig,
    axis: str,
    values: list[int],
    out_dir: str | Path,
) -> list[dict]:
    """Run one config per value of K or N and tabulate the final metrics.

    vary-N regenerates data with the new client count and proportionally
    scaled per-client sizes, keeping the total dataset fixed. The summary
    CSV is written incrementally; a failed run aborts the sweep with the
    finished traces and summary rows preserved. Bad values, and a value
    given twice, are rejected before the first run.
    """
    if axis not in ("K", "N"):
        raise ConfigError(f"axis: must be K or N, got {axis!r}")
    if not values:
        raise ConfigError("values: must be nonempty")
    if any(isinstance(v, bool) or not isinstance(v, Integral) for v in values):
        raise ConfigError(f"values: must be integers, got {values}")
    if min(values) < 1:
        raise ConfigError(f"values: must be positive, got {values}")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"values: {repeated[0]} is repeated; each value runs once, "
                          f"to trace_{axis}{repeated[0]}.csv")
    total_pos = base_config.data.n_pos_per_client * base_config.data.n_clients
    total_neg = base_config.data.n_neg_per_client * base_config.data.n_clients
    bad_n = [v for v in values if axis == "N" and (total_pos % v or total_neg % v)]
    if bad_n:
        raise ConfigError(
            f"data.n_clients: total counts ({total_pos} pos, {total_neg} neg)"
            f" are not divisible by N={bad_n[0]}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []
    with open(out_dir / "summary.csv", "w") as summary:
        summary.write(",".join(SUMMARY_COLUMNS) + "\n")
        summary.flush()
        for value in values:
            if axis == "K":
                cfg = replace(base_config, hyper=replace(base_config.hyper, K=value))
            else:
                cfg = replace(
                    base_config,
                    data=replace(
                        base_config.data,
                        n_clients=value,
                        n_pos_per_client=total_pos // value,
                        n_neg_per_client=total_neg // value,
                    ),
                )
            trace = run(cfg, out=out_dir / f"trace_{axis}{value}.csv", quiet=True)
            final = trace.final_round()
            cells = (value, final.objective, *(final.pauc[f] for f in PAUC_FPRS),
                     trace.total_floats)
            rows.append(dict(zip(SUMMARY_COLUMNS, cells)))
            summary.write(",".join(_fmt(v) for v in cells) + "\n")
            summary.flush()
    return rows
