"""Tiny-size smoke runs of every workload, untraced and traced.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

RUNS = [(w, t) for w in workloads.NAMES for t in (0, 1)]


@functools.cache
def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report ") :])
    return json.loads(lines[-1]), report


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload,trace", RUNS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    final, _ = smoke(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert isinstance(final["failed"], int)
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in final["metrics"].items()}
    for value in final["metrics"].values():
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_raw_times_and_failed_frac_are_printed_with_sample_counts(workload):
    _, report = smoke(workload, 0)
    samples = report["samples"]
    printed = ["wall_s", "items_per_s", "failed_frac"]
    if workload == "plan-sweep":
        printed += ["request_p50_ms", "request_p99_ms"]
    for name in printed:
        assert samples[name]["n"] >= 1
    assert samples["wall_s"]["median"] > 0


@pytest.mark.parametrize("workload,trace", RUNS)
def test_output_checks_pass(workload, trace):
    final, report = smoke(workload, trace)
    assert report["problems"] == []
    assert final["correct"] is True


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_failed_counts_exactly_the_known_defect_kinds(workload):
    final, report = smoke(workload, 0)
    kinds = report["kinds"]
    assert kinds["valid"]["failed"] == 0
    if workload != "plan-sweep":
        assert final["failed"] == 0 and set(kinds) == {"valid"}
        return
    assert set(kinds) == {"valid", *workloads.MALFORMED}
    expected_exc = {"missing_segments": "KeyError", "text_missing_len": "KeyError", "config_list": "TypeError"}
    for kind in workloads.MALFORMED:
        rec = kinds[kind]
        if kind in workloads.KNOWN_DEFECTS:
            # Exit 1 with a traceback where the CLI promises exit 2: counted as
            # failed.  Fixing the CLI contract flips these to the branch below.
            assert rec["failed"] == rec["attempted"]
            assert rec["outcomes"] == {f"exit 1 {expected_exc[kind]}": rec["attempted"]}
        else:
            assert rec["failed"] == 0
            assert rec["outcomes"] == {"exit 2": rec["attempted"]}
    assert final["failed"] == sum(kinds[k]["attempted"] for k in workloads.KNOWN_DEFECTS)
    assert report["failed_frac"] == final["failed"] / final["attempted"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_trace_spans_under_cli_main_add_up(workload):
    final, report = smoke(workload, 1)
    summed = report["trace"]["cli_main_sum"]
    assert summed["sums_match"] and summed["covers_wall"] and summed["untraced_names"] == []
    metrics = final["metrics"]
    assert metrics["cli.main.calls"]["value"] >= 1
    assert summed["direct_children_s"] + metrics["cli.main.self_s"]["value"] == pytest.approx(
        metrics["cli.main.s"]["value"]
    )
    assert (ROOT / report["trace"]["file"]).is_file()


def test_later_children_inherit_the_first_childs_checks():
    def child(*requests):
        return {"requests": [dict(zip(("digest", "failed"), r), problems=[], items=1) for r in requests]}

    iters = [child(("a", False), ("b", True), ("c", False)), child(("a", False), ("b", False), ("x", False))]
    run.inherit_checks(iters)
    later = iters[1]["requests"]
    assert [r["failed"] for r in later] == [False, True, True]
    assert [r["items"] for r in later] == [1, 0, 0]
    assert later[2]["problems"] and not later[1]["problems"]


def test_philox_floor_is_measured_on_decay_profile_only():
    for workload in workloads.NAMES:
        final, _ = smoke(workload, 1)
        floor = final["metrics"]["decay.philox_floor_s"]["value"]
        assert floor > 0 if workload == "decay-profile" else floor == 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
