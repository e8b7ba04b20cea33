"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload end to end at tiny scale (about a
minute in all); their numbers are not comparable with real runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import loadclient  # noqa: E402
import workloads  # noqa: E402
from workload_gen import (Request, expected_line, reference_index,  # noqa: E402
                          shapes_from, unique_hostnames, zipf_requests)

TEMPLATES = [
    "as3356-xe-0-1.lon2.example.com",
    "as1299.ge-3-0-0.par1.example.com",
    "ae12.core3.fra1.other.net",
    "www.example.com",
    "10gige0-0-0.r1.sea.other.net",
]


def _domain(hostname):
    return ".".join(hostname.split(".")[-2:])


def _conventions_json():
    from repro.core.hoiho import Hoiho
    from repro.core.io import conventions_to_json
    from repro.core.types import TrainingItem
    result = Hoiho().run([
        TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453, 7018])])
    return conventions_to_json(result)


def test_generator_is_deterministic_per_seed():
    shapes = shapes_from(TEMPLATES, _domain)
    assert shapes == shapes_from(reversed(TEMPLATES), _domain)
    # "www.example.com" has no digit run to renumber.
    assert len(shapes) == 4
    first = list(unique_hostnames(shapes, 7, 5000))
    assert first == list(unique_hostnames(shapes, 7, 5000))
    assert first != list(unique_hostnames(shapes, 8, 5000))
    assert len(set(first)) == len(first)
    assert all(h.endswith((".example.com", ".other.net")) for h in first)
    universe, requests = zipf_requests(shapes, 7, 300)
    again = zipf_requests(shapes, 7, 300)
    assert (universe, requests) == again
    assert any(r.batch for r in requests) and any(
        not r.batch for r in requests)


def test_corrupted_annotation_is_counted_failed(tmp_path):
    conventions = _conventions_json()
    index = reference_index(conventions)
    hostnames = ["as%d.pop1.example.com" % asn for asn in (1, 22, 333)] + \
        ["www.unknown.org"]
    stream = tmp_path / "stream.txt"
    stream.write_text("".join(h + "\n" for h in hostnames))
    good = [expected_line(index, h) for h in hostnames]
    assert good[0] == "as1.pop1.example.com\t1"
    output = tmp_path / "out.tsv"
    output.write_text("".join(line + "\n" for line in good))
    assert workloads._check_annotations(str(stream), str(output), index) == 0
    bad = list(good)
    bad[1] = "as22.pop1.example.com\t23"
    output.write_text("".join(line + "\n" for line in bad))
    assert workloads._check_annotations(str(stream), str(output), index) == 1
    output.write_text("".join(line + "\n" for line in good[:-1]))
    assert workloads._check_annotations(str(stream), str(output), index) == 1


def test_corrupted_http_answer_is_counted_failed():
    expected = {"as1.pop1.example.com": 1, "www.unknown.org": None}
    single = Request(False, ["as1.pop1.example.com"])
    batch = Request(True, ["as1.pop1.example.com", "www.unknown.org"])
    body = json.dumps({"hostname": "as1.pop1.example.com", "asn": 1})
    assert loadclient.answer_ok(single, 200, body.encode(), expected)
    wrong = json.dumps({"hostname": "as1.pop1.example.com", "asn": 2})
    assert not loadclient.answer_ok(single, 200, wrong.encode(), expected)
    assert not loadclient.answer_ok(single, 429, body.encode(), expected)
    ok_batch = json.dumps({"count": 2, "asns": [1, None]}).encode()
    assert loadclient.answer_ok(batch, 200, ok_batch, expected)
    samples = [loadclient.Sample(0, 0.0, 0.0, 0.001, 200, wrong.encode()),
               loadclient.Sample(1, 0.0, 0.0, 0.001, 200, ok_batch)]
    result = workloads.Result()
    workloads._check_samples(result, [single, batch], samples, expected)
    assert (result.attempted, result.failed) == (2, 1)
    # A request that never got an answer is a failure too.
    workloads._check_samples(result, [single, batch], samples[1:], expected)
    assert (result.attempted, result.failed) == (4, 2)


def test_goodput_is_the_highest_step_within_limits():
    steps = [
        {"rate": 400, "failed": 0, "p99_ms": 3.0,
         "late_first_ms": 0.1, "late_last_ms": 0.1},
        {"rate": 800, "failed": 0, "p99_ms": 9.0,
         "late_first_ms": 0.1, "late_last_ms": 0.2},
        # Over the p99 limit.
        {"rate": 1600, "failed": 0, "p99_ms": 80.0,
         "late_first_ms": 0.1, "late_last_ms": 0.1},
        # A failed request.
        {"rate": 2400, "failed": 1, "p99_ms": 9.0,
         "late_first_ms": 0.1, "late_last_ms": 0.1},
        # The generator fell behind its schedule.
        {"rate": 3200, "failed": 0, "p99_ms": 9.0,
         "late_first_ms": 0.1, "late_last_ms": 40.0},
    ]
    assert loadclient.goodput(steps, 50.0) == 800.0
    assert loadclient.goodput(steps[2:], 50.0) == 0.0


def test_digest_record_is_per_seed_and_source(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DIGEST_DIR", str(tmp_path))
    monkeypatch.setattr(workloads, "source_digest", lambda: "a" * 64)
    result = workloads.Result()
    assert workloads._record_digest(result, 1, "small", "d1", "cold")
    assert workloads._record_digest(result, 1, "small", "d1", "relearn")
    assert not workloads._record_digest(result, 1, "small", "d2", "cold")
    assert workloads._record_digest(result, 2, "small", "d2", "cold")
    # Changed sources start a new record.
    monkeypatch.setattr(workloads, "source_digest", lambda: "b" * 64)
    assert workloads._record_digest(result, 1, "small", "d2", "cold")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
        + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_smoke_prints_every_declared_metric(workload, trace):
    spec = _spec()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    done = _run("--workload", workload, "--seed", "2020", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, _, unit = line.split()
        printed[name] = unit
    assert printed == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "relearn", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
