"""Self-tests of the benchmark: run each workload at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must pass their
correctness checks and print exactly the metrics ``BENCHMARK.json`` names,
each with its unit.  The traced runs must show the request path's exact
counts (``EXACT_COUNTS``), and the replica check must catch one corrupted
value in the replayed model.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

#: seconds per tiny run; the remote workload needs enough for a few writes
SECONDS = {"point_mix_remote": 4.0, "hot_read_local": 1.0, "update_fanout_local": 1.0}

#: traced counts of the program this benchmark was written against: one
#: engine parse per backend per write, a request frame plus header/rows/end
#: for a read and header/end for a write, and a broadcast to all 8 backends
EXACT_COUNTS = {
    "update_fanout_local": {"sql.parses_per_op": 8, "loadbalancer.backends_per_write": 8},
    "point_mix_remote": {"net.frames_per_read": 4, "net.frames_per_write": 3},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def declared(kind: str) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def check_metrics(name: str, result: dict, kind: str) -> None:
    expected = declared(kind)
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    expect(got == expected, f"{name}: {kind} metrics {got} != declared {expected}")
    for metric, entry in result["metrics"].items():
        expect(isinstance(entry["value"], float), f"{name}: {metric} is not a number")


def test_workload(name: str) -> None:
    seconds = SECONDS[name]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        out = io.StringIO()
        result = run.run_one(name, seed=1, seconds=seconds, trace=trace, out=out)
        expect(result["correct"], f"{name}: checks failed\n{out.getvalue()}")
        expect(result["failed"] == 0 and result["attempted"] > 0, f"{name}: {result}")
        check_metrics(name, result, kind)
        if trace:
            for metric, count in EXACT_COUNTS.get(name, {}).items():
                value = result["metrics"][metric]["value"]
                expect(value == count, f"{name}: {metric} = {value}, expected {count}")
        print(f"ok {name} trace={int(trace)} ({result['attempted']} ops)", flush=True)


def test_declared_workloads() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_whys = {entry["name"]: entry["why"] for entry in benchmark["workloads"]}
    specs = {name: spec.why for name, spec in workloads.SPECS.items()}
    expect(declared_whys == specs, f"BENCHMARK.json workloads {declared_whys} != {specs}")
    print("ok BENCHMARK.json names every workload with its why", flush=True)


def test_corrupted_model_is_caught() -> None:
    report = run.run(workloads.SPECS["update_fanout_local"], seed=2, seconds=0.5, trace=False)
    model, digests = report["model"], report["digests"]
    expect(report["problems"] == [], f"clean run reported {report['problems']}")
    expect(workloads.check_replicas(model, digests) == [], "clean model flagged")
    key = next(iter(model))
    corrupted = {**model, key: model[key] + 1}
    problems = workloads.check_replicas(corrupted, digests)
    expect(len(problems) == len(digests), f"corrupted model: {problems}")
    print(f"ok corrupted model value caught on all {len(digests)} backends", flush=True)


def main() -> int:
    test_declared_workloads()
    for name in workloads.SPECS:
        test_workload(name)
    test_corrupted_model_is_caught()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
