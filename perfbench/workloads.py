"""Seeded inputs for the three benchmark workloads.

Everything the program sees is made here from the benchmark's ``--seed``:
the decay ``--seed``, the Gaussian population seed and the plan-sweep
request list.  The program receives only the generated argv lists and
input files.  Uses the standard library only, so the parent process
never imports numpy or the program.

A request is ``{"kind", "expect", "calls", "check"}``: ``calls`` are argv
lists for ``ropealign.cli.main`` run in order, ``expect`` is ``"ok"``
(every call exits 0 and the output checks pass) or ``"exit2"`` (the call
exits 2 without an uncaught exception), and ``check`` holds what the
output checks need.  Output paths are relative to the child's working
directory; input files live in ``../inputs``.
"""

from __future__ import annotations

import json
import random

NAMES = ("decay-profile", "attention-report", "plan-sweep")

# simulate-decay: the README command with 17 distances on one thread,
# the plain single-threaded baseline that stays steady on 2 shared cores.
DECAY = {"dim": 64, "theta": 1e4, "mu": 1.0, "distances": "log:0..8192:16", "samples": 100_000}
DECAY_SMOKE = DECAY | {"distances": "log:0..64:4", "samples": 20_000}

# attention-report: the clip336 candidates at patch 24, so a 14x14
# thumbnail plus a 14x28 high-res grid with row separators (617 slots,
# about 1.5 s a child).  Patch 14 (1767 slots) or the README's 672x672
# plan run the same code path with the same serialization share, but at
# 7-30 s a child too few of them fit in one run for a steady median.
PLAN = ["--input", "336x672", "--candidates", "clip336", "--patch", "24", "--pre", "10", "--post", "5"]
PLAN_SMOKE = [
    "--input", "112x224", "--candidates", "224x224,224x112", "--vit", "112x112",
    "--patch", "14", "--pre", "10", "--post", "5",
]  # fmt: skip
POP_MEAN = 0.5
SAMPLED_ROWS = 4  # dense CSV rows recomputed per file by the output check

# plan-sweep: a closed loop with one client; every child runs the same
# seeded list of requests.
PRESETS = {"clip336": ("336x336", 14), "siglip384": ("384x384", 16)}
POLICIES = ("inherit-row-end", "sequential-after-image")
SWEEP = {
    "pixels": (100, 2000),
    "text": (0, 63),
    "malformed_rate": 0.05,
    "requests": 240,  # 12 malformed, two of each kind
}
SWEEP_SMOKE = SWEEP | {"malformed_rate": 0.25, "requests": 48}

# Malformed kinds, each with an even share.  The first
# three raise KeyError, KeyError and TypeError at the seed commit instead
# of exiting 2 (the CLI-contract defects listed in the ROADMAP).
MALFORMED = (
    "missing_segments",
    "text_missing_len",
    "config_list",
    "zero_input",
    "high_first_both",
    "non_integer_patch",
)
KNOWN_DEFECTS = MALFORMED[:3]
INPUT_FILES = {
    "missing_segments.json": {"patch_size": 14},
    "text_missing_len.json": {"segments": [{"kind": "text"}], "patch_size": 14},
    "config_list.json": [1, 2],
}


def decay_argv(seed: int, params: dict, threads: int = 1) -> list[str]:
    return [
        "simulate-decay", "--dim", str(params["dim"]), "--theta", "1e4",
        "--mu", f"ones:{params['mu']}", "--distances", params["distances"],
        "--samples", str(params["samples"]), "--seed", str(seed),
        "--threads", str(threads), "--out", "decay.csv",
    ]  # fmt: skip


def _malformed(kind: str, size: str) -> list[str]:
    return {
        "missing_segments": ["assign-ids", "--plan", "../inputs/missing_segments.json"],
        "text_missing_len": ["assign-ids", "--plan", "../inputs/text_missing_len.json"],
        "config_list": ["plan-layout", "--config", "../inputs/config_list.json"],
        "zero_input": ["plan-layout", "--input", "0x336"],
        "high_first_both": ["assign-ids", "--input", size, "--order", "high-first", "--mode", "both"],
        "non_integer_patch": ["plan-layout", "--input", size, "--patch", "14.5"],
    }[kind]


def _spread(rng: random.Random, values: list, n: int) -> list:
    """``n`` draws that cover ``values`` in equal shares, in random order."""
    out = [values[k * len(values) // n] for k in range(n)]
    rng.shuffle(out)
    return out


def sweep_requests(seed: int, params: dict) -> list[dict]:
    """The seeded request list.  Every field is stratified: each seed gets
    the same share of each preset, flag and malformed kind and the same
    spread of sizes and text lengths, and only their pairing and order
    change, so the list's total work barely moves with the seed."""
    rng = random.Random(seed)
    n = params["requests"]
    pixels = list(range(params["pixels"][0], params["pixels"][1] + 1))
    text = list(range(params["text"][0], params["text"][1] + 1))
    heights, widths = _spread(rng, pixels, n), _spread(rng, pixels, n)
    pres, posts = _spread(rng, text, n), _spread(rng, text, n)
    presets, seps = _spread(rng, sorted(PRESETS), n), _spread(rng, [True, False], n)
    policies = _spread(rng, list(POLICIES), n)
    n_bad = round(n * params["malformed_rate"])
    bad = dict(zip(sorted(rng.sample(range(n), n_bad)), _spread(rng, list(MALFORMED), n_bad)))
    out = []
    for i in range(n):
        size = f"{heights[i]}x{widths[i]}"
        if i in bad:
            kind = bad[i]
            out.append({"kind": kind, "expect": "exit2", "calls": [_malformed(kind, size)], "check": None})
            continue
        vit, patch = PRESETS[presets[i]]
        plan = [
            "plan-layout", "--input", size, "--candidates", presets[i], "--vit", vit,
            "--patch", str(patch), "--pre", str(pres[i]), "--post", str(posts[i]),
            "--row-separators" if seps[i] else "--no-row-separators", "--out", "plan.json",
        ]  # fmt: skip
        ids = [
            "assign-ids", "--plan", "plan.json", "--mapping-csv", "map.csv",
            "--separator-policy", policies[i], "--out", "ids.json",
        ]  # fmt: skip
        out.append({"kind": "valid", "expect": "ok", "calls": [plan, ids], "check": {"type": "sweep"}})
    return out


def make(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload's recorded intent, input files, the requests every
    child runs (one for decay-profile and attention-report, a seeded list
    for plan-sweep) and the probe its body time is counted in.
    """
    if name == "decay-profile":
        params = DECAY_SMOKE if smoke else DECAY
        req = {
            "kind": "valid",
            "expect": "ok",
            "calls": [decay_argv(seed, params)],
            "check": {"type": "decay", **params},
        }
        return {"generator": params, "inputs": {}, "requests": [req], "probe": "numpy",
                "threads_check": decay_argv(seed, params, 2)}  # fmt: skip
    if name == "attention-report":
        plan = PLAN_SMOKE if smoke else PLAN
        report = ["attention-report", "--plan", "plan.json", "--dim", "64",
                  "--pop", f"gaussian:{POP_MEAN}:{seed}", "--out-dir", "report"]  # fmt: skip
        req = {
            "kind": "valid",
            "expect": "ok",
            "calls": [["plan-layout", *plan, "--out", "plan.json"], report],
            "check": {"type": "attention", "dim": 64, "theta": 1e4, "pop_mean": POP_MEAN,
                      "pop_seed": seed, "rows": SAMPLED_ROWS, "row_seed": seed},  # fmt: skip
        }
        return {"generator": {"plan": plan, "pop_mean": POP_MEAN}, "inputs": {}, "requests": [req], "probe": "python"}
    if name == "plan-sweep":
        params = SWEEP_SMOKE if smoke else SWEEP
        inputs = {k: json.dumps(v) for k, v in INPUT_FILES.items()}
        return {"generator": params, "inputs": inputs, "requests": sweep_requests(seed, params), "probe": "python"}
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(NAMES)}")
