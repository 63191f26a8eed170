"""One benchmark child: import the program, run one batch of requests, check it.

Usage: python3 child.py SPEC_JSON, with an empty working directory of its
own.  The first statement after ``import time`` is the timed import of
the program, so ``ready`` marks the end of what a CLI user pays before
any work starts.  Writes ``result.json`` in the working directory.
"""

import time

import ropealign.cli  # noqa: E402  (the timed import; keep it first)

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def call(argv: list[str]) -> tuple[int, str | None, str]:
    """Run one CLI command in process: (exit code, uncaught exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ropealign.cli.main(argv)
    except SystemExit as e:  # argparse rejects bad flags this way
        rc = e.code if isinstance(e.code, int) else int(e.code is not None)
    except Exception as e:  # a traceback and exit 1 for a real CLI user
        rc, exc = 1, type(e).__name__
    return rc, exc, out.getvalue()


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def outputs() -> list[Path]:
    return sorted(p for p in Path(".").rglob("*") if p.is_file() and p.name != "result.json")


def run_request(req: dict, tracer, check: bool) -> dict:
    latency = 0.0
    cpu = cpu_s()
    stdout = []
    rc, exc = 0, None
    for argv in req["calls"]:
        tracer.active = True
        start = time.perf_counter()
        rc, exc, text = call(argv)
        latency += time.perf_counter() - start
        tracer.active = False
        stdout.append(text)
        if rc != 0 or exc:
            break
    cpu = cpu_s() - cpu
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files = outputs()
    written = sum(p.stat().st_size for p in files)
    digest = hashlib.sha256()
    for text in stdout:
        digest.update(text.encode())
    for p in files:
        digest.update(str(p).encode())
        with open(p, "rb") as f:
            while block := f.read(1 << 20):
                digest.update(block)
    problems = []
    if req["expect"] == "ok":
        ok = rc == 0 and exc is None
        if ok and check:
            import checks

            try:
                problems = checks.check(req["check"], stdout)
            except Exception as e:  # a missing or unreadable output is a failed check
                problems = [f"check raised {type(e).__name__}: {e}"]
    else:
        ok = rc == 2 and exc is None
    done = items(req) if ok and not problems else 0
    for p in files:
        p.unlink()
    return {
        "kind": req["kind"],
        "latency_s": latency,
        "cpu_s": cpu,
        "rc": rc,
        "exception": exc,
        "failed": not ok or bool(problems),
        "problems": problems,
        "bytes": written,
        "maxrss_kb": maxrss_kb,
        "items": done,
        "digest": digest.hexdigest(),
    }


def items(req: dict) -> int:
    """Work completed by a request that met its expectation: (distance,
    sample) pairs, matrix cells (4 N^2) or one valid request."""
    spec = req["check"]
    if spec is None:
        return 0
    if spec["type"] == "decay":
        import checks

        return len(checks.expected_distances(spec["distances"])) * spec["samples"]
    if spec["type"] == "attention":
        from ropealign import LayoutPlan

        return 4 * LayoutPlan.from_json(Path("plan.json").read_text()).total_tokens**2
    return 1


def philox_floor_s(params: dict, seed: int) -> float:
    """Time to draw the normals the seed algorithm draws for this profile:
    two (chunk, dim) blocks per 16384-sample chunk, per distance, from
    per-distance Philox streams."""
    import checks
    import numpy as np

    n_dist = len(checks.expected_distances(params["distances"]))
    dim, samples = params["dim"], params["samples"]
    start = time.perf_counter()
    for sub in np.random.SeedSequence(seed).generate_state(n_dist, dtype=np.uint64):
        rng = np.random.Generator(np.random.Philox(int(sub)))
        done = 0
        while done < samples:
            n = min(16384, samples - done)
            rng.standard_normal((n, dim))
            rng.standard_normal((n, dim))
            done += n
    return time.perf_counter() - start


PROBE_EVERY_S = 0.5  # request time between two probes
PROBE_REPEATS = 3  # a probe's time is the mean of this many runs, which damps short spikes


def probe_python() -> float:
    """A Python loop, float repr and join, and a JSON round trip: the
    interpreter-bound work of plan-sweep and attention-report."""
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i
    ",".join(repr(float(v)) for v in np.arange(10_000) * 0.37)
    json.loads(json.dumps([{"a": i, "b": [i] * 5} for i in range(1500)]))
    return time.perf_counter() - start


def probe_numpy() -> float:
    """Philox normals in (16384, 64) blocks and a row-wise dot: the
    array-bound work of decay-profile."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(1))
    q, k = rng.standard_normal((16384, 64)), rng.standard_normal((16384, 64))
    np.einsum("ij,ij->i", q + 1.0, k - 1.0)
    return time.perf_counter() - start


# The machine's speed drifts by up to 1.7x over tens of seconds.  A probe
# is a fixed piece of the benchmark's own work that slows with it; each
# workload names the probe whose work is most like its own, because
# interpreter-bound and array-bound code slow by different amounts.
PROBES = {"python": probe_python, "numpy": probe_numpy}


def probe_time(probe) -> float:
    return sum(probe() for _ in range(PROBE_REPEATS)) / PROBE_REPEATS


def run_requests(requests: list[dict], probe, tracer, check: bool) -> list[dict]:
    """Run the requests, probing between them.  Each stretch of at least
    ``PROBE_EVERY_S`` of request time is divided by the mean of the probe
    times on either side: every request of the stretch gets its
    ``latency_probes``, its time counted in probe times."""
    probe()  # first call pays numpy's lazy set-up
    before = probe_time(probe)
    results, stretch = [], []
    for k, req in enumerate(requests):
        stretch.append(run_request(req, tracer, check))
        if sum(r["latency_s"] for r in stretch) >= PROBE_EVERY_S or k == len(requests) - 1:
            after = probe_time(probe)
            for r in stretch:
                r["latency_probes"] = r["latency_s"] / ((before + after) / 2)
            results += stretch
            before, stretch = after, []
    return results


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(spec["root"]).resolve()
    if root / "src" not in Path(ropealign.cli.__file__).resolve().parents:
        raise SystemExit(f"imported {ropealign.cli.__file__}, not the checkout's src/")
    import tracing

    tracer = tracing.Tracer()
    missing = tracer.install(ropealign) if spec["trace"] else []
    results = run_requests(spec["requests"], PROBES[spec["probe"]], tracer, spec["check"])
    out = {
        "ready": READY,
        "requests": results,
        "digest": hashlib.sha256("".join(r["digest"] for r in results).encode()).hexdigest(),
        "spans": tracer.spans,
        "untraced": missing,
    }
    if spec.get("philox_floor"):
        out["philox_floor_s"] = philox_floor_s(spec["philox_floor"], spec["seed"])
    Path("result.json").write_text(json.dumps(out))


if __name__ == "__main__":
    main()
