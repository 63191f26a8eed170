"""Output checks, run in the child after the timed calls.

Each check reads the files a request wrote (in the current directory)
and returns a list of problems; an empty list means the outputs are
correct.  The checks hold for any correct implementation: they compare
against closed forms, independent recomputations and library results,
never against hashes of one version's bytes, and do not require the
dense CSVs to be written at all.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np

from ropealign import (
    LayoutPlan,
    RopeConfig,
    alignment_gain_report,
    assign_position_ids,
    expected_dot_closed_form,
    map_highres_ids,
    token_counts,
)


def check(spec: dict, stdout: list[str]) -> list[str]:
    return {"decay": _decay, "attention": _attention, "sweep": _sweep}[spec["type"]](spec, stdout)


def expected_distances(spec: str) -> list[int]:
    """``log:A..B:N`` as the CLI documents it: 0 plus N geometric steps from max(A, 1) to B."""
    _, rest = spec.split(":", 1)
    span, n = rest.split(":")
    a, b = (int(x) for x in span.split(".."))
    vals = np.geomspace(max(a, 1), b, int(n))
    return sorted({int(round(v)) for v in vals} | ({0} if a == 0 else set()))


def _decay(spec: dict, _stdout: list[str]) -> list[str]:
    with open("decay.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    dim, n = spec["dim"], spec["samples"]
    mu = np.full(dim, float(spec["mu"]))
    config = RopeConfig(dim=dim, theta_base=float(spec["theta"]))
    analytic = math.sqrt((2 * float(mu @ mu) + dim) / n)
    problems = []
    got = [int(r["rel_distance"]) for r in rows]
    if got != expected_distances(spec["distances"]):
        problems.append(f"distances {got}")
    for r in rows:
        d, mean, err = int(r["rel_distance"]), float(r["mean_dot"]), float(r["stderr"])
        exact = expected_dot_closed_form(mu, mu, d, config)
        if abs(mean - exact) > 5 * err:
            problems.append(f"distance {d}: mean {mean!r} is more than 5 stderr from {exact!r}")
        if abs(err - analytic) > 0.05 * analytic:
            problems.append(f"distance {d}: stderr {err!r} vs analytic {analytic!r}")
        if int(r["samples"]) != n:
            problems.append(f"distance {d}: samples {r['samples']} != {n}")
    return problems


def _dense_rotate(vectors: np.ndarray, positions: np.ndarray, theta: float) -> np.ndarray:
    """Rotate row i by a dense block-diagonal rotation matrix for positions[i]."""
    n, dim = vectors.shape
    pairs = np.arange(dim // 2)
    angles = positions[:, None] * theta ** (-2.0 * pairs / dim)
    cos, sin = np.cos(angles), np.sin(angles)
    out = np.empty_like(vectors)
    for lo in range(0, n, 256):
        hi = min(n, lo + 256)
        mats = np.zeros((hi - lo, dim, dim))
        mats[:, 2 * pairs, 2 * pairs] = cos[lo:hi]
        mats[:, 2 * pairs, 2 * pairs + 1] = -sin[lo:hi]
        mats[:, 2 * pairs + 1, 2 * pairs] = sin[lo:hi]
        mats[:, 2 * pairs + 1, 2 * pairs + 1] = cos[lo:hi]
        out[lo:hi] = np.einsum("nij,nj->ni", mats, vectors[lo:hi])
    return out


def _read_rows(path: Path, wanted: set[int]) -> tuple[str, dict[int, list[str]]]:
    rows = {}
    with open(path) as f:
        header = f.readline().rstrip("\n")
        for i, line in enumerate(f):
            if i in wanted:
                rows[i] = line.rstrip("\n").split(",")
    return header, rows


def _attention(spec: dict, _stdout: list[str]) -> list[str]:
    plan = LayoutPlan.from_json(Path("plan.json").read_text())
    problems = []
    gain = Path("report/gain_report.json")
    if not gain.exists() or gain.read_text().rstrip("\n") != alignment_gain_report(plan).to_json():
        problems.append("gain_report.json differs from alignment_gain_report(plan).to_json()")
    roles = plan.slot_roles()
    n = len(roles)
    wanted = set(random.Random(spec["row_seed"]).sample(range(n), min(spec["rows"], n)))
    vectors = spec["pop_mean"] + np.random.Generator(np.random.Philox(spec["pop_seed"])).standard_normal(
        (n, spec["dim"])
    )
    for mode in ("baseline", "id_align"):
        ids = np.asarray(assign_position_ids(plan, mode).ids, dtype=np.int64)
        for kind in ("distance", "scores"):
            path = Path(f"report/{kind}_{mode}.csv")
            if not path.exists():
                continue
            header, rows = _read_rows(path, wanted)
            if header != ",".join(roles):
                problems.append(f"{path}: role header differs from plan.slot_roles()")
            if sorted(rows) != sorted(wanted):
                problems.append(f"{path}: has fewer than {n} rows")
                continue
            if kind == "distance":
                expect = {i: np.abs(ids[i] - ids) for i in wanted}
                bad = [i for i in wanted if [int(v) for v in rows[i]] != expect[i].tolist()]
            else:
                rotated = _dense_rotate(vectors, ids.astype(np.float64), spec["theta"])
                scores = rotated[sorted(wanted)] @ rotated.T / math.sqrt(spec["dim"])
                expect = dict(zip(sorted(wanted), scores))
                bad = [
                    i
                    for i in wanted
                    if not np.allclose(np.array(rows[i], dtype=np.float64), expect[i], rtol=1e-9, atol=1e-9)
                ]
            if bad:
                problems.append(f"{path}: rows {sorted(bad)} differ from the recomputation")
    return problems


def _sweep(_spec: dict, stdout: list[str]) -> list[str]:
    plan = LayoutPlan.from_json(Path("plan.json").read_text())
    counts = json.loads(stdout[0].strip().splitlines()[-1])
    problems = []
    if counts != dataclasses.asdict(token_counts(plan)):
        problems.append(f"plan-layout counts {counts} differ from token_counts")
    doc = json.loads(Path("ids.json").read_text())
    roles = plan.slot_roles()
    if doc["baseline"]["ids"] != list(range(len(roles))):
        problems.append("baseline ids are not 0..N-1")
    aligned = doc["id_align"]["ids"]
    image = [aligned[i] for i, r in enumerate(roles) if r in ("thumb", "highres")]
    thumb, high = plan.thumbnail(), plan.highres()
    if max(image) - min(image) != thumb.shape.cells - 1:
        problems.append(f"aligned image span {max(image) - min(image)} != {thumb.shape.cells - 1}")
    expect = map_highres_ids(thumb.shape, high.shape, roles.index("thumb")).to_csv()
    if Path("map.csv").read_text() != expect:
        problems.append("map.csv differs from map_highres_ids(...).to_csv()")
    return problems
