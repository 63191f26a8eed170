"""Command-line front end.

Four subcommands: simulate-decay, plan-layout, assign-ids and
attention-report.  Outputs are CSV for profiles, score summaries and
(with ``--dense``) matrices, JSON for plans and ID maps, all written by
``codec``, so identical flags and seeds give byte-identical files.

Every option is declared once, in ``OPTIONS``.  Parameter precedence per
subcommand: command-line flags, then an optional JSON config file
(``--config``), then the table's defaults; whatever its source, each
value is read through one typed check and, for a spec string, parsed
right after it, so a malformed spec is refused before any work.  An
array sized by a plan's slots, a ``--pop`` population included, that
cannot be allocated is named by the plan's slot count.  If the
environment variable ``ROPEALIGN_OUTPUT_DIR`` is set, relative output
paths are created under it; input paths are untouched.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import Field, IntRange, csv_lines, int_chunks, json_chunks, json_text, read_json, read_object, read_value
from .decay import decay_profile
from .harness import (
    _distance_blocks,
    alignment_gain_report,
    attention_summary,
    population_constant,
    population_gaussian,
    score_blocks,
)
from .idalign import MODES, SEPARATOR_POLICIES, assign_position_ids, id_span_report
from .layout import LayoutPlan, Resolution, allocating_slots, build_layout, token_counts
from .rope import RopeConfig

__all__ = ["main"]

CANDIDATE_PRESETS = {
    "clip336": "672x672,336x672,672x336,1008x336,336x1008",
    "siglip384": "384x768,768x384,768x768,1152x384,384x1152",
}

_PLAN = ("plan-layout", "assign-ids", "attention-report")
_MAPS = ("assign-ids", "attention-report")
_ROPE = ("simulate-decay", "attention-report")
_DECAY = ("simulate-decay",)
_REPORT = ("attention-report",)


def _parse_resolution(text: str) -> Resolution:
    parts = text.lower().split("x")
    try:  # a single number is a square
        h, w = map(int, parts * 2 if len(parts) == 1 else parts)
    except ValueError:
        raise ValueError(f"bad resolution {text!r}, expected HEIGHTxWIDTH") from None
    return Resolution(h, w)


def _parse_candidates(text: str) -> list[Resolution]:
    spec = CANDIDATE_PRESETS.get(text, text)
    return [_parse_resolution(part) for part in spec.split(",")]


def _parse_distances(spec: str) -> list[int]:
    """``log:A..B[:N]``, ``lin:A..B[:N]`` (N defaults to 16) or a comma
    list of integers.  Spaced forms round to integers and deduplicate."""
    kind, _, rest = spec.partition(":")
    try:
        if kind not in ("log", "lin"):
            return [int(part) for part in spec.split(",")]
        parts = rest.split(":")
        n = int(parts[1]) if len(parts) > 1 else 16
        a_str, _, b_str = parts[0].partition("..")
        a, b = int(a_str), int(b_str)
        if a < 0 or b < a or n < 1 or len(parts) > 2:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad distance spec {spec!r}, expected log:A..B[:N], lin:A..B[:N] or a comma list"
        ) from None
    if kind == "lin":
        vals = np.linspace(a, b, n)
    else:
        lo = max(a, 1)
        vals = np.geomspace(lo, b, n) if b >= lo else []  # log:0..0 is the 0 point alone
        if a == 0:
            vals = np.concatenate([[0.0], vals])
    return sorted({int(round(v)) for v in vals})


def _parse_mu(spec: str) -> float:
    """The value of every coordinate of the mean preset ``spec``."""
    if spec == "zeros":
        return 0.0
    kind, _, arg = spec.partition(":")
    try:
        if kind == "ones":
            return read_value(Field("C", float), float(arg) if arg else 1.0)
    except ValueError:
        pass
    raise ValueError(f"bad mean preset {spec!r}, expected 'zeros' or 'ones:C'")


def _parse_pop(spec: str) -> tuple:
    """``constant:C`` or ``gaussian:MEAN:SEED`` as its builder and the
    numbers it takes after ``(plan, config)``, each read as the builder
    reads it: a tuple, so that equal specs parse to equal values."""
    kind, _, rest = spec.partition(":")
    mean, _, seed = rest.partition(":")
    try:
        if kind == "constant":
            return population_constant, read_value(Field("value", float), float(rest) if rest else 1.0)
        if kind == "gaussian":
            mean = read_value(Field("mean", float), float(mean) if mean else 0.0)
            return population_gaussian, mean, read_value(Field("seed", IntRange(0)), int(seed) if seed else 0)
    except ValueError:
        pass
    raise ValueError(f"bad population {spec!r}, expected constant:C or gaussian:M:SEED")


class Option(NamedTuple):
    """One option, read as a ``codec.Field``: the flag ``--name``
    (underscores as dashes) and the config key ``name``.  ``kind`` is int,
    an ``IntRange``, float, bool, str or a tuple of allowed strings; a None
    default means unset.  ``parse``, for a spec string that needs nothing
    else to be read, turns it into its value."""

    name: str
    kind: object
    default: object
    help: str
    commands: tuple[str, ...]
    parse: Callable[[str], object] | None = None


# Every option of every subcommand, in help order.
OPTIONS = (
    Option("plan", str, None, "layout plan JSON file; overrides the inline plan flags", _MAPS),
    Option("pre", int, 0, "text tokens before the image", _PLAN),
    Option("post", int, 0, "text tokens after the image", _PLAN),
    Option("input", str, "336x336", "input image HxW pixels", _PLAN, _parse_resolution),
    Option(
        "candidates", str, "clip336",
        "candidate resolutions: preset clip336|siglip384 or comma list of HxW", _PLAN,
        _parse_candidates,
    ),
    Option("vit", str, "336x336", "vision tower base resolution HxW", _PLAN, _parse_resolution),
    Option("patch", int, 14, "patch size in pixels", _PLAN),
    Option("row_separators", bool, True, "append a separator token after each high-res row", _PLAN),
    Option(
        "cap_effective", bool, False,
        "cap the selection score at the input's native pixel count", _PLAN,
    ),
    Option("order", ("thumb-first", "high-first"), "thumb-first", "image block order", _PLAN),
    Option("mode", (*MODES, "both"), "both", "ID maps to emit", ("assign-ids",)),
    Option("dim", int, 64, "head dimension, even", _ROPE),
    Option("theta", float, 1e4, "frequency base, 1e7 also common", _ROPE),
    Option("mu", str, "ones:1.0", "mean preset for both vectors: zeros | ones:C", _DECAY, _parse_mu),
    Option(
        "distances", str, "log:0..1024",
        "relative distances: log:A..B[:N] | lin:A..B[:N] | comma list", _DECAY,
        _parse_distances,
    ),
    Option("samples", int, 100000, "Monte Carlo samples per distance", _DECAY),
    Option("seed", int, 0, "RNG seed", _DECAY),
    Option("threads", IntRange(1), 1, "worker threads; result is thread-count independent", _DECAY),
    Option("pop", str, "constant:1.0", "population: constant:C | gaussian:MEAN:SEED", _REPORT, _parse_pop),
    Option("normalize", bool, False, "row-softmax the score matrices", _REPORT),
    Option("scale", bool, True, "divide scores by sqrt(dim)", _REPORT),
    Option(
        "dense", bool, False,
        "also write the dense N x N distance and score CSVs (large: N^2 cells each)", _REPORT,
    ),
    Option(
        "separator_policy", SEPARATOR_POLICIES, "inherit-row-end", "separator IDs in aligned mode",
        _MAPS,
    ),
    Option(
        "mapping_csv", str, None, "also write the high-res ID mapping grid as CSV", ("assign-ids",)
    ),
    Option(
        "out", str, None, "output file; stdout if unset",
        ("simulate-decay", "plan-layout", "assign-ids"),
    ),
    Option("out_dir", str, ".", "directory for the CSV/JSON outputs", _REPORT),
)


def _flag(opt: Option) -> tuple[str, dict]:
    """The flag and the ``add_argument`` keywords of ``opt``."""
    kw: dict = {"help": opt.help}
    if opt.default is not None:
        shown = opt.default if isinstance(opt.default, str) else json.dumps(opt.default)
        kw["help"] += f" (default {shown})"
    if opt.kind is bool:
        kw["action"] = argparse.BooleanOptionalAction
    elif opt.kind in (int, float) or isinstance(opt.kind, IntRange):
        kw["type"] = float if opt.kind is float else int
    elif isinstance(opt.kind, tuple):
        # Choices are checked by the typed read, so a bad one exits 2 from main.
        kw["metavar"] = "{" + ",".join(opt.kind) + "}"
    return "--" + opt.name.replace("_", "-"), kw


def _merged(args: argparse.Namespace) -> dict:
    """Final values of the options of ``args.command``: a flag, read by
    ``codec.read_value``, over the config file, read whole by
    ``codec.read_object`` (a bad value there is an error even under a
    flag), over the default; then, for a spec string, its ``parse``."""
    options = [opt for opt in OPTIONS if args.command in opt.commands]
    doc = read_json(Path(args.config).read_bytes(), args.config) if args.config else {}
    out = {}
    for opt, value in zip(options, read_object(doc, options, args.config)):
        flag = getattr(args, opt.name)
        out[opt.name] = value if flag is None else read_value(opt, flag)
        if opt.parse:
            out[opt.name] = _parse(out, opt.name, opt.parse)
    return out


def _parse(opts: dict, key: str, parser, *args):
    """``parser(opts[key], *args)``; a ValueError, or a size numpy cannot
    allocate or represent, names the option."""
    try:
        return parser(opts[key], *args)
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _emit(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or its pieces in order, to ``path`` and
    report it, or print it when unset.  A relative path goes under
    ``ROPEALIGN_OUTPUT_DIR`` when that is set."""
    chunks = [text] if isinstance(text, str) else text
    if not path:
        sys.stdout.writelines(chunks)
        return
    p = Path(path)
    env = os.environ.get("ROPEALIGN_OUTPUT_DIR")
    if env and not p.is_absolute():
        p = Path(env) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="\n") as f:
        f.writelines(chunks)
    print(f"wrote {p}")


def _plan_from(opts: dict) -> LayoutPlan:
    path = opts.get("plan")
    if path:
        doc = read_json(Path(path).read_bytes(), path)
        try:
            return LayoutPlan.from_doc(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return build_layout(
        pre_text=opts["pre"],
        input=opts["input"],
        candidates=opts["candidates"],
        vit_resolution=opts["vit"],
        patch_size=opts["patch"],
        post_text=opts["post"],
        row_separators=opts["row_separators"],
        cap_effective_at_input=opts["cap_effective"],
        thumbnail_first=opts["order"] == "thumb-first",
    )


def cmd_simulate_decay(opts: dict) -> int:
    config = RopeConfig(dim=opts["dim"], theta_base=opts["theta"])
    mu = _parse(opts, "dim", np.full, opts["mu"])
    profile = decay_profile(
        mu,
        mu,
        opts["distances"],
        samples=opts["samples"],
        seed=opts["seed"],
        config=config,
        max_workers=opts["threads"],
    )
    _emit(opts["out"], profile.to_csv())
    return 0


def cmd_plan_layout(opts: dict) -> int:
    plan = _plan_from(opts)
    counts = token_counts(plan)
    _emit(opts["out"], plan.to_json() + "\n")
    print(json_text(asdict(counts)))
    return 0


def cmd_assign_ids(opts: dict) -> int:
    plan = _plan_from(opts)
    policy = opts["separator_policy"]
    mode = opts["mode"]
    # Each map that exists is computed once; the span and the grid derive from
    # them.  Only baseline mode with no grid to write tolerates no aligned map.
    maps = {"baseline": assign_position_ids(plan, "baseline", policy)}
    try:
        maps["id_align"] = assign_position_ids(plan, "id_align", policy)
    except ValueError:
        if mode != "baseline" or (opts["mapping_csv"] and None not in (plan.thumbnail(), plan.highres())):
            raise
    doc = {name: idmap.to_doc() for name, idmap in maps.items() if mode in (name, "both")}
    if len(maps) == 2:
        span = id_span_report(plan, policy, **maps)
        doc["span"] = asdict(span) | {"ratio": None if math.isinf(span.ratio) else span.ratio}
    if opts["mapping_csv"]:
        high = plan.highres()
        if plan.thumbnail() is None or high is None:
            raise ValueError("--mapping-csv needs a plan with both grids")
        _emit(opts["mapping_csv"], int_chunks(maps["id_align"].ids[plan.cell_slots(high)]))
    _emit(opts["out"], itertools.chain(json_chunks(doc), ["\n"]))
    return 0


def cmd_attention_report(opts: dict) -> int:
    plan = _plan_from(opts)
    config = RopeConfig(dim=opts["dim"], theta_base=opts["theta"])
    policy = opts["separator_policy"]
    out_dir = opts["out_dir"]
    maps = {mode: assign_position_ids(plan, mode, policy) for mode in MODES}
    build, *numbers = opts["pop"]
    score_opts = {"normalize": opts["normalize"], "scale": opts["scale"]}
    # The modes are summed at once: the first on this thread, each other one on a
    # worker thread of its own (einsum releases the GIL, so one mode's walk runs
    # while another folds).  No worker outlives the block.
    first, *rest = maps.values()
    with allocating_slots(plan), ThreadPoolExecutor(len(rest)) as pool:
        pop = build(plan, config, *numbers)
        futures = [pool.submit(attention_summary, pop, idmap, config, **score_opts) for idmap in rest]
        summaries = itertools.chain(
            [attention_summary(pop, first, config, **score_opts)], (future.result() for future in futures)
        )
        for (name, idmap), summary in zip(maps.items(), summaries):
            # Then written in mode order, each mode once it is summed: a score error
            # stops the run before any file of its mode is opened.
            if opts["dense"]:  # each matrix streamed a block at a time: no N x N array is held
                distance = (text for dist in _distance_blocks(idmap.ids) for text in int_chunks(dist))
                blocks = score_blocks(pop, idmap, config, **score_opts)
                scores = csv_lines(None, (row.tolist() for block in blocks for row in block))
                for kind, body in (("distance", distance), ("scores", scores)):
                    path = os.path.join(out_dir, f"{kind}_{name}.csv")
                    _emit(path, itertools.chain(csv_lines(pop.roles, ()), body))
            _emit(os.path.join(out_dir, f"summary_{name}.csv"), summary.to_csv())
    report = alignment_gain_report(plan, policy, **maps)
    _emit(os.path.join(out_dir, "gain_report.json"), report.to_json() + "\n")
    print(report.to_json())
    return 0


_COMMANDS = {
    "simulate-decay": (
        cmd_simulate_decay,
        "Monte Carlo decay profile of the rotated inner product, written as CSV",
    ),
    "plan-layout": (cmd_plan_layout, "build a token layout plan and report token counts"),
    "assign-ids": (
        cmd_assign_ids,
        "assign position IDs (baseline and/or aligned) and report spans",
    ),
    "attention-report": (
        cmd_attention_report,
        "role-by-distance score summaries (dense matrices with --dense) plus the "
        "alignment gain report, written as files",
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process, with ``commands``, each
    subcommand's parser: ``main`` only reads them.  A caller that changes
    it (adds arguments, sets defaults) must change a ``copy.deepcopy``."""
    parser = argparse.ArgumentParser(
        prog="ropealign",
        description="Rotary-embedding decay analysis and aligned position-ID assignment "
        "for tiled vision-language token layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags take precedence over it")
        for opt in OPTIONS:
            if command in opt.commands:
                flag, kw = _flag(opt)
                sp.add_argument(flag, **kw)
        sp.set_defaults(func=func)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run ``argv`` (``sys.argv[1:]`` when None), parsed once by its command's parser; with no
    command, or with arguments left over, the whole parser parses it and reports the error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = build_parser().commands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub else (None, None)
    if sub is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(_merged(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
