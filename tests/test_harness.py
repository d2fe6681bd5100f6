"""Config parsing, trace output, sweeps, and the CLI surface."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import small_dataset

import fedcpr
from fedcpr import harness
from fedcpr.algorithms import ALGORITHMS, REQUIRED_OUTER, HyperParams, simulate
from fedcpr.data import build_dataset
from fedcpr.harness import (
    ConfigError,
    CsvTraceSink,
    RunConfig,
    config_echo,
    parse_config,
    run,
    sweep,
    trace_columns,
)
from fedcpr.losses import IDENTITY_OUTER, PairwiseLossSpec
from fedcpr.model import ScorerSpec

TINY = """
algorithm = fedx1
data.n_pos_per_client = 4
data.n_neg_per_client = 8
data.input_dim = 3
data.n_clients = 2
data.hetero_var = 0
data.hetero_base = 0
data.hetero_step = 0
hyper.eta = 0.05
hyper.K = 2
hyper.R = 3
hyper.B1 = 2
hyper.B2 = 2
"""

TINY_FEDX2 = """
algorithm = fedx2
loss.kind = kl_opauc
loss.lambda = 2.0
outer.kind = kl_log
outer.lambda = 2.0
data.n_pos_per_client = 4
data.n_neg_per_client = 8
data.input_dim = 3
data.n_clients = 2
data.hetero_var = 0
data.hetero_base = 0
data.hetero_step = 0
hyper.eta = 0.01
hyper.K = 2
hyper.R = 2
hyper.B1 = 2
hyper.B2 = 2
"""

# fedx2 with the mlp1 scorer on four clients, at lambda = 8.
MLP1_FEDX2 = """
algorithm = fedx2
scorer.kind = mlp1
loss.kind = kl_opauc
loss.lambda = 8
outer.kind = kl_log
outer.lambda = 8
data.n_pos_per_client = 4
data.n_neg_per_client = 8
data.input_dim = 3
data.n_clients = 4
hyper.eta = 0.01
hyper.K = 2
hyper.R = 2
hyper.B1 = 2
hyper.B2 = 2
"""


def _strip_wall(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    header = lines[1].split(",")
    wall = header.index("wall_seconds")
    for line in lines[1:]:
        cells = line.split(",")
        del cells[wall]
        out.append(",".join(cells))
    return "\n".join(out)


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.algorithm == "fedx1"
        assert cfg.data.n_clients == 16
        assert cfg.hyper.K == 32
        assert cfg.hyper.B1 == 32 and cfg.hyper.B2 == 32
        assert cfg.hyper.beta == 0.1
        assert cfg.loss.kind == "psm_sigmoid"
        assert cfg.outer.kind == "identity"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nhyper.K = 4  # trailing\n")
        assert cfg.hyper.K == 4

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="hyper.K"):
            parse_config("hyper.K = 0\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="hyper.eta"):
            parse_config("hyper.eta = fast\n")

    def test_integer_key_rejects_a_fraction(self):
        with pytest.raises(ConfigError, match="^hyper.K: expected an integer, got '2.5'"):
            parse_config("hyper.K = 2.5\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'hyper.K 4'"):
            parse_config("# comment\nhyper.K 4\n")

    def test_unknown_key_rejected(self, tmp_path):
        # The last three were keys once; their values are constants now.
        for key in ("hyper.learning_rate", "data.cluster_sep", "data.cluster_std",
                    "outer.u_floor"):
            with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(key)}'$"):
                parse_config(f"{key} = 0.1\n")
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(f"{key} = 0.1\n")
            res = _cli(["run", "--config", str(cfg_path)], tmp_path)
            assert res.returncode == 2, res.stderr
            assert res.stderr == f"config error: unknown key '{key}'\n"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="more than once"):
            parse_config("hyper.K = 2\nhyper.K = 3\n")

    def test_algorithm_outer_compatibility(self):
        with pytest.raises(ConfigError, match="outer.kind"):
            parse_config("algorithm = fedx1\nouter.kind = kl_log\n")
        with pytest.raises(ConfigError, match="outer.kind"):
            parse_config("algorithm = fedx2\n")  # defaults to identity outer

    def test_scorer_dim_must_match_data(self):
        cfg = parse_config("data.input_dim = 4\n")
        with pytest.raises(ValueError, match="scorer.input_dim"):
            replace(cfg, scorer=replace(cfg.scorer, input_dim=5))

    def test_scorer_dim_is_the_data_dim(self):
        assert parse_config("data.input_dim = 4\n").scorer.input_dim == 4
        with pytest.raises(ConfigError, match="unknown key 'scorer.input_dim'"):
            parse_config("data.input_dim = 4\nscorer.input_dim = 4\n")

    def test_echo_round_trips_resolved_values(self):
        cfg = parse_config(TINY)
        echoed = config_echo(cfg)
        assert "algorithm=fedx1" in echoed
        assert "hyper.K=2" in echoed
        # Echo is itself parseable.
        cfg2 = parse_config("\n".join(echoed.split()))
        assert cfg2 == cfg

    def test_shipped_preset_parses(self):
        from pathlib import Path

        preset = Path(__file__).resolve().parent.parent / "presets" / "full-protocol.cfg"
        cfg = parse_config(preset.read_text())
        assert cfg.algorithm == "fedx2"
        assert cfg.hyper.K == 32 and cfg.hyper.lr_decay_every == 5000
        assert cfg.data.n_clients == 16


# One invalid value per invariant, each with the key its error must name.
INVALID_VALUES = [
    ("data.n_pos_per_client", "data.n_pos_per_client = 0"),
    ("data.n_neg_per_client", "data.n_neg_per_client = 0"),
    ("data.input_dim", "data.input_dim = 0"),
    ("data.n_clients", "data.n_clients = 0"),
    ("data.flip_fraction", "data.flip_fraction = 1.5"),
    ("data.hetero_var", "data.hetero_var = -1"),
    ("scorer.kind", "scorer.kind = x"),
    ("scorer.hidden_dim", "scorer.kind = mlp1\nscorer.hidden_dim = 0"),
    ("loss.kind", "loss.kind = x"),
    ("loss.lambda", "loss.kind = kl_opauc\nloss.lambda = 0"),
    ("outer.kind", "algorithm = local_pair\nouter.kind = x"),
    ("outer.lambda", "algorithm = fedx2\nouter.kind = kl_log\nouter.lambda = 0"),
    ("hyper.eta", "hyper.eta = -0.1"),
    ("hyper.K", "hyper.K = 0"),
    ("hyper.R", "hyper.R = 0"),
    ("hyper.B1", "hyper.B1 = 0"),
    ("hyper.B2", "hyper.B2 = 0"),
    ("hyper.gamma", "hyper.gamma = 0"),
    ("hyper.beta", "hyper.beta = 1.5"),
    ("hyper.lr_decay_every", "hyper.lr_decay_every = 0"),
    ("hyper.lr_decay_factor", "hyper.lr_decay_factor = 0"),
    ("hyper.history_samples", "hyper.history_samples = x"),
    ("algorithm", "algorithm = x"),
    ("eval_every_rounds", "eval_every_rounds = -1"),
    ("oracle_every_rounds", "oracle_every_rounds = -1"),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "key,text", INVALID_VALUES, ids=[key for key, _ in INVALID_VALUES]
    )
    def test_invalid_value_names_its_key(self, key, text):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config(text + "\n")

    @pytest.mark.parametrize("value", [2**63, 2**64, -(2**63) - 1])
    @pytest.mark.parametrize("key", ["data.seed", "hyper.seed"])
    def test_seed_outside_signed_64_bits_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config(f"{key} = {value}\n")

    def test_seed_override_outside_signed_64_bits_names_its_key(self, tmp_path):
        with pytest.raises(ConfigError, match="^data.seed: "):
            run(parse_config(TINY), seed=2**64, out=tmp_path / "t.csv", quiet=True)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        ["data.hetero_step", "loss.lambda", "outer.lambda", "hyper.eta",
         "hyper.lr_decay_factor"],
    )
    def test_non_finite_float_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be finite"):
            parse_config(f"{key} = {raw}\n")


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def _config_texts(draw):
    """A config over every key but output_path, each value legal."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    outer_kind = REQUIRED_OUTER.get(algorithm) or draw(
        st.sampled_from(["identity", "kl_log"])
    )
    loss_kind = draw(st.sampled_from(["psm_sigmoid", "kl_opauc", "square"]))
    input_dim = draw(st.integers(1, 10**6))
    positive = _finite(min_value=0.0, exclude_min=True)
    count = st.integers(1, 10**6)
    seed = st.integers(-(2**63), 2**63 - 1)
    values = {
        "algorithm": algorithm,
        "eval_every_rounds": draw(st.integers(0, 10**6)),
        "oracle_every_rounds": draw(st.integers(0, 10**6)),
        "data.n_pos_per_client": draw(count),
        "data.n_neg_per_client": draw(count),
        "data.input_dim": input_dim,
        "data.n_clients": draw(count),
        "data.hetero_step": draw(_finite()),
        "data.hetero_base": draw(_finite()),
        "data.hetero_var": draw(_finite(min_value=0.0)),
        "data.flip_fraction": draw(_finite(min_value=0.0, max_value=1.0)),
        "data.seed": draw(seed),
        "scorer.kind": draw(st.sampled_from(["linear", "mlp1"])),
        "scorer.hidden_dim": draw(count),
        "loss.kind": loss_kind,
        "loss.lambda": draw(positive if loss_kind == "kl_opauc" else _finite()),
        "outer.kind": outer_kind,
        "outer.lambda": draw(positive if outer_kind == "kl_log" else _finite()),
        "hyper.eta": draw(_finite(min_value=0.0)),
        "hyper.K": draw(count),
        "hyper.R": draw(count),
        "hyper.B1": draw(count),
        "hyper.B2": draw(count),
        "hyper.gamma": draw(_finite(min_value=0.0, max_value=1.0, exclude_min=True)),
        "hyper.beta": draw(_finite(min_value=0.0, max_value=1.0, exclude_min=True)),
        "hyper.lr_decay_every": draw(st.sampled_from(["none"]) | count),
        "hyper.lr_decay_factor": draw(positive),
        "hyper.seed": draw(seed),
        "hyper.history_samples": draw(st.sampled_from(["independent", "reuse"])),
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestEchoRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_config_texts())
    def test_parse_echo_parse_is_identity(self, text):
        cfg = parse_config(text)
        echoed = config_echo(cfg)
        assert parse_config("\n".join(echoed.split())) == cfg


class TestRun:
    def test_trace_file_format(self, tmp_path):
        cfg = parse_config(TINY)
        out = tmp_path / "trace.csv"
        trace = run(cfg, out=out, quiet=True)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: algorithm=fedx1")
        assert lines[1] == ",".join(trace_columns())
        assert len(lines) == 2 + cfg.hyper.R + 1  # comment + header + rounds 0..R
        first = lines[2].split(",")
        assert first[0] == "0"
        assert len(first) == len(trace_columns())
        assert trace.rounds[0].round == 0

    def test_float_formatting_17_digits(self, tmp_path):
        cfg = parse_config(TINY)
        out = tmp_path / "t.csv"
        run(cfg, out=out, quiet=True)
        row = out.read_text().splitlines()[2].split(",")
        obj = row[trace_columns().index("objective")]
        assert float(obj) == float(format(float(obj), ".17g"))
        assert len(obj.replace(".", "").replace("-", "").lstrip("0")) >= 10

    def test_rerun_identical_modulo_wall_seconds(self, tmp_path):
        cfg = parse_config(TINY)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(cfg, out=a, quiet=True)
        run(cfg, out=b, quiet=True)
        text_a = _strip_wall(a.read_text().replace("a.csv", "trace.csv"))
        text_b = _strip_wall(b.read_text().replace("b.csv", "trace.csv"))
        assert text_a == text_b

    def test_unwritable_output_fails_before_compute(self, tmp_path):
        cfg = parse_config(TINY)
        with pytest.raises(OSError):
            run(cfg, out=tmp_path / "missing_dir" / "t.csv", quiet=True)

    def test_unopenable_iteration_file_closes_the_round_file(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(harness, "open", recording_open, raising=False)
        (tmp_path / "t.csv.iters.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            run(parse_config(TINY), out=tmp_path / "t.csv", iteration_trace=True, quiet=True)
        assert [fh.name for fh in opened] == [str(tmp_path / "t.csv")]
        assert all(fh.closed for fh in opened)

    def test_seed_override_changes_both_streams(self, tmp_path):
        cfg = parse_config(TINY)
        t1 = run(cfg, seed=101, out=tmp_path / "1.csv", quiet=True)
        t2 = run(cfg, seed=102, out=tmp_path / "2.csv", quiet=True)
        assert not np.array_equal(t1.final_model, t2.final_model)
        assert t1.rounds[0].objective != t2.rounds[0].objective

    @pytest.mark.parametrize(
        "algorithm", ["fedx2", "local_sgd", "local_pair", "centralized"]
    )
    def test_all_algorithms_dispatch(self, algorithm, tmp_path):
        base = TINY_FEDX2 if algorithm == "fedx2" else TINY
        text = base.replace("algorithm = fedx1", f"algorithm = {algorithm}")
        if algorithm == "local_pair":
            text = text  # identity outer is fine
        cfg = parse_config(text)
        trace = run(cfg, out=tmp_path / "t.csv", quiet=True)
        assert np.all(np.isfinite(trace.final_model))

    def test_iteration_trace_sidecar(self, tmp_path):
        cfg = parse_config(TINY)
        out = tmp_path / "t.csv"
        trace = run(cfg, out=out, iteration_trace=True, quiet=True)
        side = tmp_path / "t.csv.iters.csv"
        lines = side.read_text().splitlines()
        assert lines[0] == "client,round,iteration,loss_estimate,step_size"
        n, K, R = cfg.data.n_clients, cfg.hyper.K, cfg.hyper.R
        assert len(lines) == 1 + n * K * R
        # One (K, N) block of estimates and K step sizes per round.
        assert [e.shape for e in trace.loss_estimates] == [(K, n)] * R
        assert [e.shape for e in trace.step_sizes] == [(K,)] * R
        assert sum(e.size for e in trace.loss_estimates) == n * K * R

    def test_iteration_rows_on_disk_once_their_round_is(self, tmp_path):
        cfg = parse_config(TINY)
        side = tmp_path / "t.csv.iters.csv"
        on_disk = []

        class Probe(CsvTraceSink):
            def on_round(self, rec):
                super().on_round(rec)
                on_disk.append(len(side.read_text().splitlines()))

        sink = Probe(tmp_path / "t.csv", cfg, iteration_path=side)
        try:
            simulate(cfg.algorithm, build_dataset(cfg.data), cfg.scorer, cfg.loss,
                     cfg.outer, cfg.hyper, trace_sink=sink)
        finally:
            sink.close()
        n, K, R = cfg.data.n_clients, cfg.hyper.K, cfg.hyper.R
        assert on_disk == [1 + n * K * r for r in range(R + 1)]

    def test_total_floats_accounting(self, tmp_path):
        cfg = parse_config(TINY)
        trace = run(cfg, out=tmp_path / "t.csv", quiet=True)
        expected = sum(
            cfg.data.n_clients * (r.uplink_floats + r.downlink_floats)
            for r in trace.rounds
        )
        assert trace.total_floats == expected

    def test_simulate_keeps_the_iteration_blocks(self):
        cfg = parse_config(TINY)
        trace = simulate(cfg.algorithm, build_dataset(cfg.data), cfg.scorer, cfg.loss,
                         cfg.outer, cfg.hyper)
        n, K, R = cfg.data.n_clients, cfg.hyper.K, cfg.hyper.R
        assert [e.shape for e in trace.loss_estimates] == [(K, n)] * R
        assert [e.shape for e in trace.step_sizes] == [(K,)] * R

    def test_centralized_total_floats_count_its_one_worker(self, tmp_path):
        cfg = parse_config(TINY.replace("algorithm = fedx1", "algorithm = centralized"))
        trace = run(cfg, out=tmp_path / "t.csv", quiet=True)
        expected = sum(r.uplink_floats + r.downlink_floats for r in trace.rounds)
        assert trace.total_floats == expected

    def test_ragged_total_floats_count_each_clients_rows(self):
        # B1 = 4 and B2 = 8 exceed each client's 3 positives and 7
        # negatives, so every batch takes its side whole: 10 records per
        # client and step, 34 floats up and 124 down per client and round.
        n, n_pos, n_neg = 4, 3, 7
        ds = small_dataset(n, n_pos, n_neg, (12, 30), 123)
        d, K, R, B1, B2 = 4, 3, 2, 4, 8
        hyper = HyperParams(eta=0.01, K=K, R=R, B1=B1, B2=B2, seed=3)
        trace = simulate("fedx1", ds, ScorerSpec("linear", d), PairwiseLossSpec("psm_sigmoid"),
                         IDENTITY_OUTER, hyper)
        rows = min(B1, n_pos) + min(B2, n_neg)
        per_round = n * (d + K * rows) + n * (d + K * n * rows)
        assert trace.total_floats == (R + 1) * per_round == 1896

    def test_default_config_completes_within_budget(self, tmp_path):
        import time

        t0 = time.perf_counter()
        trace = run(parse_config(""), out=tmp_path / "t.csv", quiet=True)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        assert len(trace.rounds) == 31

    def test_shipped_preset_runs_to_the_end(self, tmp_path):
        # The preset as shipped (seed 0, R=50), which no fingerprint covers
        # at full length: a change to the draws can make it diverge.
        preset = Path(__file__).resolve().parent.parent / "presets" / "full-protocol.cfg"
        out = tmp_path / "t.csv"
        trace = run(parse_config(preset.read_text()), out=out, quiet=True)
        assert len(out.read_text().splitlines()) == 2 + 51
        assert [r.round for r in trace.rounds] == list(range(51))
        for r in trace.rounds:
            assert np.isfinite(r.objective) and np.isfinite(r.grad_norm_sq)


class TestSweep:
    def test_vary_k_single_value_matches_base(self, tmp_path):
        cfg = parse_config(TINY.replace("hyper.K = 2", "hyper.K = 1"))
        base = run(cfg, out=tmp_path / "base.csv", quiet=True)
        rows = sweep(parse_config(TINY), "K", [1], tmp_path / "sweepk")
        assert len(rows) == 1
        assert rows[0]["final_objective"] == base.final_round().objective

    def test_vary_k_summary_has_one_row_per_value(self, tmp_path):
        rows = sweep(parse_config(TINY), "K", [1, 2, 4], tmp_path / "s")
        assert [r["value"] for r in rows] == [1, 2, 4]
        summary = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("value,")
        assert len(summary) == 4

    def test_vary_n_round0_objective_agrees(self, tmp_path):
        rows_dir = tmp_path / "sn"
        sweep(parse_config(TINY), "N", [1, 2, 4], rows_dir)
        objectives = []
        for n in (1, 2, 4):
            lines = (rows_dir / f"trace_N{n}.csv").read_text().splitlines()
            header = lines[1].split(",")
            row0 = lines[2].split(",")
            objectives.append(row0[header.index("objective")])
        assert objectives[0] == objectives[1] == objectives[2]

    def test_vary_n_total_data_fixed(self, tmp_path):
        cfg = parse_config(TINY)
        total = cfg.data.n_pos_per_client * cfg.data.n_clients
        for n in (1, 2, 4):
            assert total % n == 0
        with pytest.raises(ConfigError, match="divisible"):
            sweep(cfg, "N", [3], tmp_path / "bad")

    def test_vary_n_rejects_every_value_before_any_run(self, tmp_path):
        # N=2 divides the totals and N=3 does not: nothing runs, nothing is written.
        with pytest.raises(ConfigError, match="N=3"):
            sweep(parse_config(TINY), "N", [2, 3], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_nonpositive_value_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^values: must be positive, got \[0\]"):
            sweep(parse_config(TINY), "K", [0], tmp_path / "z")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("axis,values", [
        ("K", [2, 2.5]), ("N", [2.0]), ("K", ["3"]), ("K", [True]), ("N", [1, False]),
    ])
    def test_non_integer_value_rejected_before_any_run(self, tmp_path, axis, values):
        # K=2 of [2, 2.5] must not run and write its trace before 2.5 is
        # rejected.
        with pytest.raises(ConfigError, match=r"^values: must be integers, got \["):
            sweep(parse_config(TINY), axis, values, tmp_path / "i")
        assert not (tmp_path / "i").exists()

    def test_numpy_integer_values_run(self, tmp_path):
        rows = sweep(parse_config(TINY), "K", [np.int64(1)], tmp_path / "np")
        assert [r["value"] for r in rows] == [1]
        assert (tmp_path / "np" / "trace_K1.csv").exists()

    def test_repeated_value_rejected_before_any_run(self, tmp_path):
        # A second K=2 run would overwrite trace_K2.csv and add a second row.
        with pytest.raises(ConfigError, match=r"^values: 2 is repeated"):
            sweep(parse_config(TINY), "K", [2, 1, 2], tmp_path / "r")
        assert not (tmp_path / "r").exists()

    def test_bad_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(parse_config(TINY), "B", [1], tmp_path / "x")
        with pytest.raises(ConfigError):
            sweep(parse_config(TINY), "K", [], tmp_path / "y")


def _cli(args, cwd):
    # The child runs in `cwd`, where a relative PYTHONPATH (e.g. `src`) no
    # longer resolves; put the directory holding the package this process
    # imported first, so both sides run the same code.
    pkg_root = str(Path(fedcpr.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "fedcpr.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestCli:
    def test_run_and_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(["run", "--config", str(cfg_path), "--out",
                    str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "final objective=" in res.stdout
        assert (tmp_path / "t.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("hyper.K = 0\n")
        res = _cli(["run", "--config", str(bad)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "hyper.K" in res.stderr

    def test_empty_output_path_in_config_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY + "output_path =\n")
        res = _cli(["run", "--config", str(cfg_path)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error: output_path: must not be empty" in res.stderr

    def test_empty_out_flag_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(["run", "--config", str(cfg_path), "--out", ""], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error: output_path: must not be empty" in res.stderr

    def test_seed_override_outside_signed_64_bits_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(["run", "--config", str(cfg_path), "--seed", str(2**64)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "data.seed" in res.stderr

    def test_non_finite_value_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("loss.lambda = inf\n")
        res = _cli(["run", "--config", str(bad)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "loss.lambda" in res.stderr
        assert not (tmp_path / "trace.csv").exists()

    def test_missing_config_is_runtime_error(self, tmp_path):
        res = _cli(["run", "--config", str(tmp_path / "nope.cfg")], tmp_path)
        assert res.returncode == 3, res.stderr

    def test_oracle_overflow_is_runtime_error(self, tmp_path):
        # kl_opauc + identity at lambda = 0.001: at the initial model some
        # pair has m^2/lambda far above log(float max), so the true objective
        # exceeds float64 and the run stops at round 0 rather than record inf.
        text = TINY + "loss.kind = kl_opauc\nloss.lambda = 0.001\n"
        cfg = parse_config(text)
        from fedcpr.data import build_dataset
        from fedcpr.model import init_params, score_many
        from fedcpr.rng import substream

        ds = build_dataset(cfg.data)
        w0 = init_params(cfg.scorer, substream(cfg.hyper.seed, "init"))
        a = score_many(cfg.scorer, w0, ds.pos_union()[1])
        b = score_many(cfg.scorer, w0, ds.neg_union()[1])
        m = max(b.max() + 1.0 - a.min(), 0.0)
        assert m * m / 0.001 - np.log(a.size * b.size) > np.log(np.finfo(float).max)

        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        res = _cli(["run", "--config", str(cfg_path), "--out",
                    str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "objective" in res.stderr and "round 0" in res.stderr

    def test_divergence_names_the_non_finite_quantity(self, tmp_path, monkeypatch):
        # local_pair with kl_opauc + kl_log on the default data: at round 1,
        # iteration 1 client 0's pair-loss estimate and u-values are still
        # finite and its gradient estimate is not. The error is the only
        # output: any numpy warning would fail the child.
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("algorithm = local_pair\nloss.kind = kl_opauc\n"
                            "outer.kind = kl_log\nhyper.eta = 0.01\nhyper.R = 2\n")
        res = _cli(["run", "--config", str(cfg_path), "--out",
                    str(tmp_path / "t.csv")], tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr == ("error: diverged: non-finite gradient estimate "
                              "on client 0 at round 1, iteration 1\n")

    def test_oracle_prints_exact_values(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(["oracle", "--config", str(cfg_path)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("objective = ")
        assert lines[1].startswith("grad_norm_sq = ")
        assert lines[2].startswith("grad = ")
        assert len(lines[2].split(" = ")[1].split(",")) == 3

    def test_oracle_matches_library(self, tmp_path):
        from fedcpr.data import build_dataset
        from fedcpr.losses import exact_objective
        from fedcpr.model import init_params
        from fedcpr.rng import substream

        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(["oracle", "--config", str(cfg_path)], tmp_path)
        assert res.returncode == 0, res.stderr
        cfg = parse_config(TINY)
        ds = build_dataset(cfg.data)
        w0 = init_params(cfg.scorer, substream(cfg.hyper.seed, "init"))
        expected = exact_objective(
            cfg.loss, cfg.outer, cfg.scorer, w0, ds.pos_union()[1], ds.neg_union()[1]
        )
        printed = float(res.stdout.splitlines()[0].split(" = ")[1])
        assert printed == expected

    @pytest.mark.parametrize("text", [TINY, MLP1_FEDX2], ids=["fedx1", "fedx2-mlp1"])
    def test_oracle_is_round_0_of_a_run(self, tmp_path, text):
        # N is a power of two, so the averaged round-0 model is w0 bit for bit.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        res = _cli(["oracle", "--config", str(cfg_path)], tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "t.csv"
        ran = _cli(["run", "--config", str(cfg_path), "--out", str(out)], tmp_path)
        assert ran.returncode == 0, ran.stderr
        header, row0 = out.read_text().splitlines()[1:3]
        objective = row0.split(",")[header.split(",").index("objective")]
        assert res.stdout.splitlines()[0] == f"objective = {objective}"

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(
            ["sweep", "--config", str(cfg_path), "--axis", "K",
             "--values", "1,2", "--out-dir", str(tmp_path / "out")],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "trace_K1.csv").exists()

    @pytest.mark.parametrize("axis,value", [("N", "0"), ("N", "-4"), ("K", "0")])
    def test_sweep_nonpositive_value_is_config_error(self, tmp_path, axis, value):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY)
        res = _cli(
            ["sweep", "--config", str(cfg_path), "--axis", axis,
             "--values", f"2,{value}", "--out-dir", str(tmp_path / "out")],
            tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert "values:" in res.stderr
        assert not (tmp_path / "out").exists()  # rejected before any run

    def test_selftest_command(self, tmp_path):
        res = _cli(["selftest"], tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all" in res.stdout and "passed" in res.stdout
