"""Benchmark for the ropealign CLI and the library functions it calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are decay-profile, attention-report and plan-sweep (see
workloads.py).  Each child process starts fresh, imports the program
from ``src/`` and runs the workload's requests in process through
``ropealign.cli.main``; the parent only makes inputs, starts children
one at a time and aggregates.  ``--trace 0`` repeats children until
``--seconds`` have passed and reports the end-to-end metrics, with body
times counted in probe times (see child.py).
``--trace 1`` runs one untraced and one traced child on the same inputs
and reports per-layer metrics from the traced one.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# Metric names and units come from BENCHMARK.json at the checkout root.
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Printed beside the result line but not in it: raw times drift with the
# machine's speed, the request latencies exist on plan-sweep only and
# failed_frac is 0 on the other workloads.
PRINTED = {"wall_s": "s", "items_per_s": "1/s", "request_p50_ms": "ms", "request_p99_ms": "ms", "failed_frac": "share"}


class ChildFailed(RuntimeError):
    pass


def spawn(
    root: Path, work: Path, tag: str, wl: dict, seed: int, check: bool = True, trace: bool = False, philox=None
) -> dict:
    """Run one child on the workload's requests; returns its result plus
    ``setup_s``.  With ``check`` false the child skips the output checks
    and only hashes its outputs."""
    cwd = work / tag
    cwd.mkdir()
    spec = work / f"{tag}.json"
    spec.write_text(
        json.dumps(
            {
                "root": str(root),
                "requests": wl["requests"],
                "probe": wl["probe"],
                "check": check,
                "seed": seed,
                "trace": trace,
                "philox_floor": philox,
            }
        )
    )
    env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(root / "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((cwd / "result.json").read_text())
    result["setup_s"] = result["ready"] - start
    shutil.rmtree(cwd)
    spec.unlink()
    return result


def inherit_checks(iters: list[dict]) -> None:
    """Children after the first skip the output checks: each of their
    requests must write the same bytes as in the first child and takes
    that request's outcome."""
    for it in iters[1:]:
        for r, ref in zip(it["requests"], iters[0]["requests"]):
            if r["digest"] != ref["digest"]:
                r["problems"] = ["outputs differ from the first child's, which were checked"]
            if r["problems"] or ref["failed"]:
                r["failed"], r["items"] = True, 0


def timing(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v) if v else None}
    for p in (99.9, 99, 90, 50):
        if len(v) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = v[math.ceil(p / 100 * len(v)) - 1]
            break
    return out


def wall(it: dict) -> float:
    return sum(r["latency_s"] for r in it["requests"])


def kinds(iters: list[dict]) -> dict:
    """Per request kind: attempted, failed and the outcomes seen."""
    out: dict[str, dict] = {}
    for it in iters:
        for r in it["requests"]:
            rec = out.setdefault(r["kind"], {"attempted": 0, "failed": 0, "outcomes": {}})
            rec["attempted"] += 1
            rec["failed"] += r["failed"]
            outcome = f"exit {r['rc']}" + (f" {r['exception']}" if r["exception"] else "")
            rec["outcomes"][outcome] = rec["outcomes"].get(outcome, 0) + 1
    return out


def problems_of(iters: list[dict]) -> list[str]:
    return [f"{r['kind']}: {p}" for it in iters for r in it["requests"] for p in r["problems"]]


def end_to_end(iters: list[dict], workload: str) -> dict:
    walls = [wall(it) for it in iters]
    done = [sum(r["items"] for r in it["requests"]) for it in iters]
    rates = [n / wall(it) for n, it in zip(done, iters)]
    # Each request's median over the children, summed: a slow spell in
    # part of one child moves only the requests it covered.
    per_request = zip(*([r["latency_probes"] for r in it["requests"]] for it in iters))
    in_probes = sum(statistics.median(times) for times in per_request)
    rss = [max(r["maxrss_kb"] for r in it["requests"]) / 1024 for it in iters]
    written = [sum(r["bytes"] for r in it["requests"]) for it in iters]
    samples = {
        "setup_s": timing([it["setup_s"] for it in iters]),
        "wall_s": timing(walls),
        "items_per_s": {"n": len(rates), "median": statistics.median(rates)},
        "wall_probes": {"n": len(iters), "median": in_probes},
        "items_per_probe": {"n": len(iters), "median": statistics.median(done) / in_probes},
        "peak_rss_mb": {"n": len(rss), "median": statistics.median(rss)},
        "bytes_written": {"n": len(written), "median": statistics.median(written)},
    }
    reqs = [r for it in iters for r in it["requests"]]
    if workload == "plan-sweep":
        valid = timing([1000 * r["latency_s"] for r in reqs if r["kind"] == "valid" and not r["failed"]])
        tail = {k: v for k, v in valid.items() if k not in ("n", "median")}
        samples["request_p50_ms"] = {"n": valid["n"], "median": valid["median"]}
        samples["request_p99_ms"] = {"n": valid["n"], **tail}
    samples["failed_frac"] = {"n": len(reqs), "value": sum(r["failed"] for r in reqs) / len(reqs)}
    return samples


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    spans = traced["spans"]
    summary = tracing.summarize(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        metrics[name] = summary.get(span, zero).get(field, 0)
    metrics["decay.philox_floor_s"] = traced.get("philox_floor_s", 0.0)
    metrics["trace.overhead_s"] = wall(traced) - wall(untraced)
    main_s = summary.get("cli.main", zero)
    under = tracing.direct_children_s(spans, "cli.main")
    check = {
        "cli.main.s": main_s["s"],
        "direct_children_s": under,
        "cli.main.self_s": main_s["self_s"],
        "sums_match": math.isclose(under + main_s["self_s"], main_s["s"], rel_tol=1e-9, abs_tol=1e-9),
        # The child times the same calls itself; spans lost or attributed
        # elsewhere leave cli.main.s short of that.
        "child_wall_s": wall(traced),
        "covers_wall": math.isclose(main_s["s"], wall(traced), rel_tol=0.02, abs_tol=1e-3),
        "untraced_names": traced["untraced"],
    }
    return metrics, {"spans": summary, "cli_main_sum": check}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def computed(workload: str, iters: list[dict], generator: dict) -> dict:
    """Counts derived from the inputs, not measured."""
    items = next((r["items"] for it in iters for r in it["requests"] if r["items"]), 0)
    if workload == "decay-profile":
        return {"normals_drawn": 2 * generator["dim"] * items, "distance_sample_pairs": items}
    if workload == "attention-report":
        return {"matrix_cells": items, "slots": math.isqrt(items // 4)}
    return {}


def run(args: argparse.Namespace, root: Path, work: Path) -> tuple[dict, dict]:
    wl = workloads.make(args.workload, args.seed, args.smoke)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, text in wl["inputs"].items():
        (inputs / name).write_text(text)
    spawn(root, work, "warmup", wl | {"requests": []}, args.seed)  # fills the bytecode and page caches
    problems = []
    report: dict = {}
    if args.trace:
        philox = wl["generator"] if args.workload == "decay-profile" else None
        untraced = spawn(root, work, "untraced", wl, args.seed)
        traced = spawn(root, work, "traced", wl, args.seed, trace=True, philox=philox)
        iters = [untraced, traced]
        metrics, report["trace"] = per_layer(traced, untraced)
        trace_file = work.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "bytes"], "spans": traced["spans"]}))
        report["trace"]["file"] = str(trace_file.relative_to(root))
        if untraced["digest"] != traced["digest"]:
            problems.append("traced run's artifacts differ from the untraced run's")
        if not report["trace"]["cli_main_sum"]["sums_match"]:
            problems.append("spans under cli.main plus its self time do not sum to cli.main.s")
        if not report["trace"]["cli_main_sum"]["covers_wall"]:
            problems.append("cli.main spans do not cover the traced child's own timing of its calls")
    else:
        iters = []
        start = time.perf_counter()
        while not iters or time.perf_counter() - start < args.seconds:
            iters.append(spawn(root, work, f"iter{len(iters)}", wl, args.seed, check=not iters))
        inherit_checks(iters)
        samples = end_to_end(iters, args.workload)
        metrics = {name: samples[name]["median"] for name in END_TO_END}
        report["samples"] = samples
        report["children"] = [
            {
                "wall_s": wall(it),
                "wall_probes": sum(r["latency_probes"] for r in it["requests"]),
                "cpu_s": sum(r["cpu_s"] for r in it["requests"]),
                "setup_s": it["setup_s"],
            }
            for it in iters
        ]
    if "threads_check" in wl:
        req = dict(wl["requests"][0], kind="threads-2", calls=[wl["threads_check"]])
        rerun = spawn(root, work, "threads2", wl | {"requests": [req]}, args.seed)
        problems += problems_of([rerun])
        if rerun["digest"] != iters[0]["digest"]:
            problems.append("--threads 2 rerun is not byte-identical")
    problems += problems_of(iters)
    attempted = sum(len(it["requests"]) for it in iters)
    failed = sum(r["failed"] for it in iters for r in it["requests"])
    units = PER_LAYER if args.trace else END_TO_END
    final = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report.update(
        {
            "workload": args.workload,
            "argv": wl["requests"][0]["calls"] if args.workload != "plan-sweep" else None,
            "generator": wl["generator"],
            "environment": environment(args.seed),
            "computed": computed(args.workload, iters, wl["generator"]),
            "kinds": kinds(iters),
            "failed_frac": failed / attempted,
            "problems": problems,
        }
    )
    return final, report


def show(final: dict, report: dict) -> None:
    """Human-readable lines; the caller prints the JSON result last."""
    print(f"workload {report['workload']}")
    print("environment " + json.dumps(report["environment"]))
    if report["computed"]:
        print("computed " + json.dumps(report["computed"]))
    samples = report.get("samples", {})
    for name, m in final["metrics"].items():
        extra = {k: v for k, v in samples.get(name, {}).items() if k != "median"}
        print(f"  {name:<38} {m['value']!r:>24} {m['unit']:<6} {json.dumps(extra) if extra else ''}")
    for name, unit in PRINTED.items():
        if name in samples:
            print(f"  {name:<38} {json.dumps(samples[name])} {unit}")
    for p in report["problems"][:20]:
        print(f"  PROBLEM {p}")
    print("report " + json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd().resolve()
    if not (root / "src" / "ropealign" / "__init__.py").is_file():
        print(f"error: {root} holds no src/ropealign; run from the root of a checkout", file=sys.stderr)
        return 1
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        final, report = run(args, root, work)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    show(final, report)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
