"""Outcomes of ``fedcpr selftest`` that a passing run never shows.

The reference here is this machine's own canary and fingerprints, so the
tests do not depend on the numeric profile the shipped file was made on.
"""

import copy
import dataclasses
import json

import pytest

from fedcpr import cli, selftest


@pytest.fixture(scope="module")
def reference():
    return {
        "canary": selftest.canary(),
        "configs": {name: selftest.fingerprint(c) for name, c in selftest.CONFIGS.items()},
    }


def _use(monkeypatch, golden):
    monkeypatch.setattr(selftest, "_reference", lambda: golden)


def test_reference_from_this_machine_passes(monkeypatch, reference):
    _use(monkeypatch, reference)
    res = selftest._check_traces()
    assert res.ok and res.detail == f"{len(selftest.CONFIGS)} configs"


def test_moved_trace_fails_naming_config_and_part(monkeypatch, reference):
    altered = copy.deepcopy(reference)
    altered["configs"]["local_pair"]["oracle"] = "0" * 64
    _use(monkeypatch, altered)
    res = selftest._check_traces()
    assert res.ok is False
    assert res.detail == "moved: local_pair oracle"


def test_differing_canary_passes_naming_the_operation(monkeypatch, reference):
    _use(monkeypatch, {**reference, "canary": {**reference["canary"], "matmul": "0" * 64}})

    def no_run(config):
        raise AssertionError("traces are not compared on another profile")

    monkeypatch.setattr(selftest, "fingerprint", no_run)
    res = selftest._check_traces()
    assert res.ok is True
    assert res.detail.endswith("differs from the reference one in matmul")


def test_cli_exits_4_on_a_failing_check(monkeypatch, reference, capsys):
    altered = copy.deepcopy(reference)
    altered["configs"]["fedx1"]["trajectory"] = "0" * 64
    _use(monkeypatch, altered)
    assert cli.main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] traces match the reference fingerprints (moved: fedx1 trajectory)" in out
    assert out.rstrip().endswith("1 of 5 checks failed")


def test_results_are_plain_json():
    results = selftest.run_selftest()
    assert len(results) == 5
    assert all(type(r.ok) is bool for r in results)
    json.dumps([dataclasses.asdict(r) for r in results])
