"""Command-line front end.

Four subcommands: simulate-decay, plan-layout, assign-ids and
attention-report.  Outputs are CSV for matrices and profiles, JSON for
plans and ID maps, always with ``\\n`` line endings and repr-formatted
floats, so identical flags and seeds give byte-identical files.

Parameter precedence per subcommand: command-line flags, then an
optional JSON config file (``--config``), then built-in defaults.  If
the environment variable ``ROPEALIGN_OUTPUT_DIR`` is set, relative
output paths are created under it; input paths are untouched.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .decay import decay_profile
from .harness import (
    alignment_gain_report,
    attention_scores,
    matrix_csv,
    population_constant,
    population_gaussian,
    relative_distance_matrix,
)
from .idalign import assign_position_ids, id_span_report, map_highres_ids
from .layout import LayoutPlan, Resolution, build_layout, segment_ranges, token_counts
from .rope import RopeConfig

__all__ = ["main"]

CANDIDATE_PRESETS = {
    "clip336": "672x672,336x672,672x336,1008x336,336x1008",
    "siglip384": "384x768,768x384,768x768,1152x384,384x1152",
}

_PLAN_DEFAULTS = {
    "pre": 0,
    "input": "336x336",
    "candidates": "clip336",
    "vit": "336x336",
    "patch": 14,
    "post": 0,
    "row_separators": True,
    "cap_effective": False,
    "order": "thumb-first",
}


def _parse_resolution(text: str) -> Resolution:
    parts = str(text).lower().split("x")
    if len(parts) == 1:
        h = w = int(parts[0])
    elif len(parts) == 2:
        h, w = int(parts[0]), int(parts[1])
    else:
        raise ValueError(f"bad resolution {text!r}, expected HEIGHTxWIDTH")
    return Resolution(h, w)


def _parse_candidates(text: str) -> list[Resolution]:
    spec = CANDIDATE_PRESETS.get(text, text)
    return [_parse_resolution(part) for part in spec.split(",")]


def _parse_distances(spec: str) -> list[int]:
    """``log:A..B[:N]``, ``lin:A..B[:N]`` (N defaults to 16) or a comma
    list of integers.  Spaced forms round to integers and deduplicate."""
    if spec.startswith(("log:", "lin:")):
        kind, _, rest = spec.partition(":")
        parts = rest.split(":")
        n = int(parts[1]) if len(parts) > 1 else 16
        a_str, sep, b_str = parts[0].partition("..")
        if not sep:
            raise ValueError(f"bad distance spec {spec!r}, expected {kind}:A..B[:N]")
        a, b = int(a_str), int(b_str)
        if a < 0 or b < a or n < 1:
            raise ValueError(f"bad distance spec {spec!r}")
        if kind == "lin":
            vals = np.linspace(a, b, n)
        else:
            lo = max(a, 1)
            vals = np.geomspace(lo, max(b, lo), n)
            if a == 0:
                vals = np.concatenate([[0.0], vals])
        return sorted({int(round(v)) for v in vals})
    return [int(part) for part in spec.split(",")]


def _parse_mu(spec: str, dim: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(dim)
    kind, _, arg = spec.partition(":")
    if kind == "ones":
        return np.full(dim, float(arg) if arg else 1.0)
    raise ValueError(f"bad mean preset {spec!r}, expected 'zeros' or 'ones:C'")


def _resolve_out(path: str) -> Path:
    p = Path(path)
    env = os.environ.get("ROPEALIGN_OUTPUT_DIR")
    if env and not p.is_absolute():
        p = Path(env) / p
    return p


def _write_text(path: str, text: str) -> Path:
    p = _resolve_out(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="\n") as f:
        f.write(text)
    return p


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = json.load(f)
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        out[key] = flag if flag is not None else cfg.get(key, default)
    return out


def _int_opt(opts: dict, key: str) -> int:
    """An integer option, from a flag or a config file, never truncated."""
    value = opts[key]
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _plan_from(opts: dict) -> LayoutPlan:
    if opts.get("plan"):
        return LayoutPlan.from_json(Path(opts["plan"]).read_text())
    return build_layout(
        pre_text=_int_opt(opts, "pre"),
        input=_parse_resolution(opts["input"]),
        candidates=_parse_candidates(opts["candidates"]),
        vit_resolution=_parse_resolution(opts["vit"]),
        patch_size=_int_opt(opts, "patch"),
        post_text=_int_opt(opts, "post"),
        row_separators=bool(opts["row_separators"]),
        cap_effective_at_input=bool(opts["cap_effective"]),
        thumbnail_first=opts["order"] == "thumb-first",
    )


def _add_config_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags take precedence over it")


def _add_plan_args(sp: argparse.ArgumentParser, with_plan_file: bool) -> None:
    if with_plan_file:
        sp.add_argument("--plan", help="layout plan JSON file; overrides the inline plan flags")
    sp.add_argument("--pre", type=int, help="text tokens before the image (default 0)")
    sp.add_argument("--post", type=int, help="text tokens after the image (default 0)")
    sp.add_argument("--input", help="input image HxW pixels (default 336x336)")
    sp.add_argument(
        "--candidates",
        help="candidate resolutions: preset clip336|siglip384 or comma list of HxW "
        "(default clip336)",
    )
    sp.add_argument("--vit", help="vision tower base resolution HxW (default 336x336)")
    sp.add_argument("--patch", type=int, help="patch size in pixels (default 14)")
    sp.add_argument(
        "--row-separators",
        action=argparse.BooleanOptionalAction,
        help="append a separator token after each high-res row (default on)",
    )
    sp.add_argument(
        "--cap-effective",
        action=argparse.BooleanOptionalAction,
        help="cap the selection score at the input's native pixel count (default off)",
    )
    sp.add_argument(
        "--order",
        choices=("thumb-first", "high-first"),
        help="image block order (default thumb-first)",
    )


def cmd_simulate_decay(args: argparse.Namespace) -> int:
    defaults = {
        "dim": 64,
        "theta": 1e4,
        "mu": "ones:1.0",
        "distances": "log:0..1024",
        "samples": 100000,
        "seed": 0,
        "threads": 1,
        "out": None,
    }
    opts = _merged(args, defaults)
    threads = _int_opt(opts, "threads")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    config = RopeConfig(dim=_int_opt(opts, "dim"), theta_base=float(opts["theta"]))
    mu = _parse_mu(opts["mu"], config.dim)
    profile = decay_profile(
        mu,
        mu,
        _parse_distances(opts["distances"]),
        samples=_int_opt(opts, "samples"),
        seed=_int_opt(opts, "seed"),
        config=config,
        max_workers=threads,
    )
    csv = profile.to_csv()
    if opts["out"]:
        path = _write_text(opts["out"], csv)
        print(f"wrote {path}")
    else:
        sys.stdout.write(csv)
    return 0


def cmd_plan_layout(args: argparse.Namespace) -> int:
    opts = _merged(args, _PLAN_DEFAULTS | {"out": None})
    plan = _plan_from(opts)
    counts = token_counts(plan)
    counts_doc = {
        "total": counts.total,
        "text_tokens": counts.text_tokens,
        "image_tokens": counts.image_tokens,
        "separator_tokens": counts.separator_tokens,
        "id_span_baseline": counts.id_span_baseline,
    }
    if opts["out"]:
        path = _write_text(opts["out"], plan.to_json() + "\n")
        print(f"wrote {path}")
    else:
        print(plan.to_json())
    print(json.dumps(counts_doc, separators=(",", ":")))
    return 0


def _map_doc(idmap) -> dict:
    return {"ids": list(idmap.ids), "max_pid": idmap.max_pid, "mode": idmap.mode}


def cmd_assign_ids(args: argparse.Namespace) -> int:
    defaults = _PLAN_DEFAULTS | {
        "plan": None,
        "mode": "both",
        "separator_policy": "inherit-row-end",
        "mapping_csv": None,
        "out": None,
    }
    opts = _merged(args, defaults)
    plan = _plan_from(opts)
    policy = opts["separator_policy"]
    mode = opts["mode"]
    if mode not in ("baseline", "id_align", "both"):
        raise ValueError(f"mode must be baseline, id_align or both, got {mode!r}")
    # Each map is computed once; the span and the mapping base derive
    # from them.  Only baseline mode tolerates a plan with no aligned map.
    baseline = assign_position_ids(plan, "baseline", policy)
    aligned_error = None
    try:
        aligned = assign_position_ids(plan, "id_align", policy)
    except ValueError as exc:
        if mode != "baseline":
            raise
        aligned, aligned_error = None, exc
    doc: dict = {}
    if mode in ("baseline", "both"):
        doc["baseline"] = _map_doc(baseline)
    if mode in ("id_align", "both"):
        doc["id_align"] = _map_doc(aligned)
    if aligned is not None:
        span = id_span_report(plan, policy, baseline=baseline, id_align=aligned)
        ratio = None if math.isinf(span.ratio) else span.ratio
        doc["span"] = {
            "baseline_span": span.baseline_span,
            "id_align_span": span.id_align_span,
            "ratio": ratio,
        }
    if opts["mapping_csv"]:
        thumb = plan.thumbnail()
        high = plan.highres()
        if thumb is None or high is None:
            raise ValueError("--mapping-csv needs a plan with both grids")
        if aligned is None:
            raise aligned_error
        base = None
        for seg, start, _stop in segment_ranges(plan):
            if seg is thumb:
                base = aligned.ids[start]
        mapping = map_highres_ids(thumb.shape, high.shape, base)
        path = _write_text(opts["mapping_csv"], mapping.to_csv())
        print(f"wrote {path}")
    text = json.dumps(doc, separators=(",", ":"))
    if opts["out"]:
        path = _write_text(opts["out"], text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def cmd_attention_report(args: argparse.Namespace) -> int:
    defaults = _PLAN_DEFAULTS | {
        "plan": None,
        "dim": 64,
        "theta": 1e4,
        "pop": "constant:1.0",
        "normalize": False,
        "scale": True,
        "separator_policy": "inherit-row-end",
        "out_dir": ".",
    }
    opts = _merged(args, defaults)
    plan = _plan_from(opts)
    config = RopeConfig(dim=_int_opt(opts, "dim"), theta_base=float(opts["theta"]))
    pop_spec = str(opts["pop"])
    kind, _, rest = pop_spec.partition(":")
    if kind == "constant":
        pop = population_constant(plan, config, float(rest) if rest else 1.0)
    elif kind == "gaussian":
        mean_str, _, seed_str = rest.partition(":")
        pop = population_gaussian(
            plan,
            config,
            mean=float(mean_str) if mean_str else 0.0,
            seed=int(seed_str) if seed_str else 0,
        )
    else:
        raise ValueError(f"bad population {pop_spec!r}, expected constant:C or gaussian:M:SEED")
    policy = opts["separator_policy"]
    out_dir = str(opts["out_dir"])
    maps = {
        "baseline": assign_position_ids(plan, "baseline", policy),
        "id_align": assign_position_ids(plan, "id_align", policy),
    }
    roles = plan.slot_roles()
    for name, idmap in maps.items():
        dist = relative_distance_matrix(idmap)
        path = _write_text(os.path.join(out_dir, f"distance_{name}.csv"), matrix_csv(dist, roles))
        print(f"wrote {path}")
        scores = attention_scores(
            pop, idmap, config, normalize=bool(opts["normalize"]), scale=bool(opts["scale"])
        )
        path = _write_text(os.path.join(out_dir, f"scores_{name}.csv"), scores.to_csv())
        print(f"wrote {path}")
    report = alignment_gain_report(plan, policy)
    path = _write_text(os.path.join(out_dir, "gain_report.json"), report.to_json() + "\n")
    print(f"wrote {path}")
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropealign",
        description="Rotary-embedding decay analysis and aligned position-ID assignment "
        "for tiled vision-language token layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "simulate-decay",
        help="Monte Carlo decay profile of the rotated inner product, written as CSV",
    )
    _add_config_arg(sp)
    sp.add_argument("--dim", type=int, help="head dimension, even (default 64)")
    sp.add_argument("--theta", type=float, help="frequency base (default 1e4; 1e7 also common)")
    sp.add_argument("--mu", help="mean preset for both vectors: zeros | ones:C (default ones:1.0)")
    sp.add_argument(
        "--distances",
        help="relative distances: log:A..B[:N] | lin:A..B[:N] | comma list (default log:0..1024)",
    )
    sp.add_argument("--samples", type=int, help="Monte Carlo samples per distance (default 100000)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sp.add_argument("--threads", type=int, help="worker threads; result is thread-count independent")
    sp.add_argument("--out", help="output CSV path (default: print to stdout)")
    sp.set_defaults(func=cmd_simulate_decay)

    sp = sub.add_parser("plan-layout", help="build a token layout plan and report token counts")
    _add_config_arg(sp)
    _add_plan_args(sp, with_plan_file=False)
    sp.add_argument("--out", help="plan JSON path (default: print to stdout)")
    sp.set_defaults(func=cmd_plan_layout)

    sp = sub.add_parser(
        "assign-ids", help="assign position IDs (baseline and/or aligned) and report spans"
    )
    _add_config_arg(sp)
    _add_plan_args(sp, with_plan_file=True)
    sp.add_argument("--mode", help="baseline | id_align | both (default both)")
    sp.add_argument(
        "--separator-policy",
        choices=("inherit-row-end", "sequential-after-image"),
        help="separator IDs in aligned mode (default inherit-row-end)",
    )
    sp.add_argument("--mapping-csv", help="also write the high-res id mapping grid as CSV")
    sp.add_argument("--out", help="output JSON path (default: print to stdout)")
    sp.set_defaults(func=cmd_assign_ids)

    sp = sub.add_parser(
        "attention-report",
        help="distance and score matrices plus the alignment gain report, written as files",
    )
    _add_config_arg(sp)
    _add_plan_args(sp, with_plan_file=True)
    sp.add_argument("--dim", type=int, help="head dimension, even (default 64)")
    sp.add_argument("--theta", type=float, help="frequency base (default 1e4)")
    sp.add_argument("--pop", help="population: constant:C | gaussian:MEAN:SEED (default constant:1.0)")
    sp.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        help="row-softmax the score matrices (default off)",
    )
    sp.add_argument(
        "--scale",
        action=argparse.BooleanOptionalAction,
        help="divide scores by sqrt(dim) (default on)",
    )
    sp.add_argument(
        "--separator-policy",
        choices=("inherit-row-end", "sequential-after-image"),
        help="separator IDs in aligned mode (default inherit-row-end)",
    )
    sp.add_argument("--out-dir", help="directory for the CSV/JSON outputs (default .)")
    sp.set_defaults(func=cmd_attention_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
