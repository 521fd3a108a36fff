"""BENCHMARK.json agrees with the catalogue and stays inside the contract."""

import json
import os
import re

from perfbench import catalogue

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_catalogue():
    doc = _benchmark()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == catalogue.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalogue.PER_LAYER
    ]


def test_contract_limits():
    doc = _benchmark()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) < 3420
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_layer_metric_says_what_it_moves():
    e2e = {m.name for m in catalogue.END_TO_END}
    layer = {m.name for m in catalogue.PER_LAYER}
    for metric in catalogue.PER_LAYER:
        assert set(metric.moves) <= e2e | layer, metric.name
        known = set(catalogue.WORKLOADS) | set(catalogue.UNGATED_WORKLOADS)
        assert set(metric.workloads) <= known, metric.name
