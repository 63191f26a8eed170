"""Acceptance suite: ten gated criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen; without ``-s`` they appear in captured output.
Each criterion states its tolerance and runtime budget inline.
"""

import time

import numpy as np

from ropealign import (
    CorrespondencePair,
    GridShape,
    HighResGrid,
    LayoutPlan,
    Resolution,
    RopeConfig,
    TextSegment,
    ThumbnailGrid,
    abel_bound_check,
    abel_partial_sums,
    alignment_gain_report,
    apply_rope,
    assign_position_ids,
    build_layout,
    correspondence_oracle,
    decay_profile,
    expected_dot_closed_form,
    map_highres_ids,
    monte_carlo_expected_dot,
    rope_dot,
    token_counts,
)
from ropealign.cli import main as cli_main

CLIP336_CANDIDATES = [
    Resolution(672, 672),
    Resolution(336, 672),
    Resolution(672, 336),
    Resolution(1008, 336),
    Resolution(336, 1008),
]


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def test_criterion_01_rope_identity_suite():
    """1000 random (q,k,m,n) across d in {2,4,64,128} and theta in
    {1e4,1e7}: norm preservation, position-0 identity and shift
    invariance, all within 1e-9, in under 5 s."""
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(1001))
    checks = 0
    violations = 0
    for dim in (2, 4, 64, 128):
        for theta in (1e4, 1e7):
            config = RopeConfig(dim=dim, theta_base=theta)
            for _ in range(125):
                q = rng.standard_normal(dim)
                k = rng.standard_normal(dim)
                m = int(rng.integers(0, 100_001))
                n = int(rng.integers(0, 100_001))
                s = int(rng.integers(0, 10_001))
                if abs(np.linalg.norm(apply_rope(q, m, config)) - np.linalg.norm(q)) > 1e-9:
                    violations += 1
                if not np.array_equal(apply_rope(q, 0, config), q):
                    violations += 1
                if abs(rope_dot(q, m, k, n, config) - rope_dot(q, m + s, k, n + s, config)) > 1e-9:
                    violations += 1
                checks += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "rope identity suite",
        checks == 1000 and violations == 0 and elapsed < 5.0,
        f"{checks} samples, {violations} violations, tol 1e-9, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_closed_form_expectation():
    """Closed-form expectation equals the rotation-based evaluation
    within 1e-9 over 1000 random mean pairs, m <= 1e5, under 5 s."""
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(2002))
    checks = 0
    worst = 0.0
    for dim in (2, 4, 64, 128):
        for theta in (1e4, 1e7):
            config = RopeConfig(dim=dim, theta_base=theta)
            for _ in range(125):
                mq = rng.standard_normal(dim)
                mk = rng.standard_normal(dim)
                m = int(rng.integers(0, 100_001))
                want = float(mq @ apply_rope(mk, m, config))
                got = expected_dot_closed_form(mq, mk, m, config)
                worst = max(worst, abs(got - want))
                checks += 1
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "closed-form expectation",
        checks == 1000 and worst <= 1e-9 and elapsed < 5.0,
        f"{checks} pairs, worst |diff| {worst:.2e} (tol 1e-9), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_03_monte_carlo_consistency():
    """With 1e5 samples and fixed seeds, the MC mean is within 4 stderr
    of the closed form in at least 99/100 random configurations, and the
    zero-mean profile stays within 4 stderr of zero, under 60 s."""
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(3003))
    successes = 0
    for _ in range(100):
        dim = int(rng.choice([4, 8, 16, 32, 64]))
        theta = float(rng.choice([1e4, 1e7]))
        config = RopeConfig(dim=dim, theta_base=theta)
        mq = rng.uniform(-2.0, 2.0, dim)
        mk = rng.uniform(-2.0, 2.0, dim)
        m = int(rng.integers(0, 4097))
        seed = int(rng.integers(0, 2**63))
        mean, stderr = monte_carlo_expected_dot(mq, mk, m, samples=100_000, seed=seed, config=config)
        if abs(mean - expected_dot_closed_form(mq, mk, m, config)) <= 4 * stderr:
            successes += 1
    zero_config = RopeConfig(dim=64, theta_base=1e4)
    prof = decay_profile(
        np.zeros(64), np.zeros(64), [1, 10, 100, 1000, 10000],
        samples=100_000, seed=42, config=zero_config,
    )
    zero_ok = all(abs(m) <= 4 * s for m, s in zip(prof.mean_dot, prof.stderr))
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "monte carlo consistency",
        successes >= 99 and zero_ok and elapsed < 60.0,
        f"{successes}/100 within 4*stderr, zero-mean ok={zero_ok}, {elapsed:.2f}s (limit 60s)",
    )


def test_criterion_04_abel_bound():
    """The summation-by-parts inequality holds for 100 random pairs at
    distances {1,16,256,4096}, d=64, both theta values, and the mean
    partial-sum magnitude at distance 4096 is strictly below its
    distance-1 value for theta=1e4, d=128.  Under 10 s."""
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(4004))
    violations = 0
    checks = 0
    for theta in (1e4, 1e7):
        config = RopeConfig(dim=64, theta_base=theta)
        for _ in range(100):
            q = rng.standard_normal(64)
            k = rng.standard_normal(64)
            for delta in (1, 16, 256, 4096):
                try:
                    report = abel_bound_check(q, k, delta, config)
                    if report.lhs_magnitude > report.bound_value + 1e-9:
                        violations += 1
                except ArithmeticError:
                    violations += 1
                checks += 1
    decay_config = RopeConfig(dim=128, theta_base=1e4)
    mean_near = float(np.mean(abel_partial_sums(1, decay_config)))
    mean_far = float(np.mean(abel_partial_sums(4096, decay_config)))
    elapsed = time.monotonic() - start
    _verdict(
        4,
        "abel bound",
        violations == 0 and checks == 800 and mean_far < mean_near and elapsed < 10.0,
        f"{checks} checks, {violations} violations, mean|S| {mean_near:.3f}@1 -> "
        f"{mean_far:.3f}@4096, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_05_token_inflation():
    """The 672x672 plan over a 336/patch-14 tower yields exactly
    5 x 576 = 2880 image tokens, separators excluded."""
    plan = build_layout(
        pre_text=10,
        input=Resolution(672, 672),
        candidates=CLIP336_CANDIDATES,
        vit_resolution=Resolution(336, 336),
        patch_size=14,
        post_text=5,
        row_separators=True,
    )
    counts = token_counts(plan)
    _verdict(
        5,
        "token inflation",
        counts.image_tokens == 5 * 576 == 2880,
        f"image tokens {counts.image_tokens} (want 2880 = 5*576), "
        f"separators {counts.separator_tokens} excluded",
    )


def test_criterion_06_correspondence_soundness():
    """Exhaustive sweep (H0,W0) in {1..6}^2 x (H1,W1) in {1..12}^2:
    every inherited ID names an overlapping thumbnail cell.  Under 30 s."""
    start = time.monotonic()
    grid_pairs = 0
    violations = 0
    for h0 in range(1, 7):
        for w0 in range(1, 7):
            thumb = GridShape(h0, w0)
            for h1 in range(1, 13):
                for w1 in range(1, 13):
                    high = GridShape(h1, w1)
                    mapping = map_highres_ids(thumb, high)
                    oracle = correspondence_oracle(thumb, high)
                    for r in range(h1):
                        for c in range(w1):
                            tr, tc = divmod(int(mapping.ids[r, c]), w0)
                            if CorrespondencePair((r, c), (tr, tc)) not in oracle:
                                violations += 1
                    grid_pairs += 1
    elapsed = time.monotonic() - start
    _verdict(
        6,
        "correspondence soundness",
        grid_pairs == 5184 and violations == 0 and elapsed < 30.0,
        f"{grid_pairs} grid pairs, {violations} violations, {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_07_bounded_id_growth():
    """Across 20 random plans, the aligned ID where post-image text
    resumes equals thumbnail base + H0*W0 regardless of the high-res
    grid, while the baseline resume point grows with H1*W1."""
    rng = np.random.Generator(np.random.Philox(7007))
    ok = True
    details = []
    for _ in range(20):
        pre = int(rng.integers(0, 13))
        h0, w0 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        h1, w1 = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        row_sep = bool(rng.integers(2))
        post = int(rng.integers(1, 6))
        segments = []
        if pre:
            segments.append(TextSegment(pre))
        segments.append(ThumbnailGrid(GridShape(h0, w0)))
        segments.append(HighResGrid(GridShape(h1, w1), row_separator=row_sep))
        segments.append(TextSegment(post))
        plan = LayoutPlan(segments=tuple(segments), patch_size=14)
        first_post = plan.total_tokens - post
        aligned = assign_position_ids(plan, "id_align")
        baseline = assign_position_ids(plan, "baseline")
        seps = h1 if row_sep else 0
        if aligned.ids[first_post] != pre + h0 * w0:
            ok = False
        if baseline.ids[first_post] != pre + h0 * w0 + h1 * w1 + seps:
            ok = False
        details.append((h1 * w1, aligned.ids[first_post] - pre))
    _verdict(
        7,
        "bounded id growth",
        ok,
        "aligned resume id == thumb base + H0*W0 on all 20 plans; "
        "baseline resume grows by H1*W1 + separators",
    )


def test_criterion_08_algorithm_trace():
    """Text(2)+Thumb(2x2)+HighRes(2x2)+Text(1) gives ids
    [0,1,2,3,4,5,2,3,4,5,6] and a final counter of 7."""
    plan = LayoutPlan(
        segments=(
            TextSegment(2),
            ThumbnailGrid(GridShape(2, 2)),
            HighResGrid(GridShape(2, 2), row_separator=False),
            TextSegment(1),
        ),
        patch_size=14,
    )
    idmap = assign_position_ids(plan, "id_align")
    want = [0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 6]
    _verdict(
        8,
        "algorithm trace",
        list(idmap.ids) == want and idmap.max_pid == 7,
        f"ids {list(idmap.ids)}, max_pid {idmap.max_pid} (want {want}, 7)",
    )


def test_criterion_09_geometry_gain():
    """For plans whose high-res grid refines the thumbnail per axis:
    corresponding-pair mean distance is 0 aligned and > 0 baseline, and
    the post-text-to-farthest-image distance is strictly smaller
    aligned."""
    family = [
        (GridShape(2, 2), GridShape(2, 2)),
        (GridShape(2, 2), GridShape(4, 4)),
        (GridShape(2, 2), GridShape(4, 2)),
        (GridShape(3, 3), GridShape(6, 9)),
        (GridShape(24, 24), GridShape(48, 48)),
        (GridShape(24, 24), GridShape(24, 48)),
        (GridShape(24, 24), GridShape(48, 24)),
        (GridShape(24, 24), GridShape(24, 72)),
    ]
    ok = True
    for thumb, high in family:
        plan = LayoutPlan(
            segments=(
                TextSegment(3),
                ThumbnailGrid(thumb),
                HighResGrid(high, row_separator=True),
                TextSegment(2),
            ),
            patch_size=14,
        )
        report = alignment_gain_report(plan)
        if report.id_align.pair_mean_distance != 0.0:
            ok = False
        if not report.baseline.pair_mean_distance > 0.0:
            ok = False
        if not (
            report.id_align.post_text_max_image_distance
            < report.baseline.post_text_max_image_distance
        ):
            ok = False
    _verdict(
        9,
        "geometry gain",
        ok,
        f"{len(family)} plans: aligned pair mean 0, baseline > 0, "
        "farthest-image text distance strictly smaller aligned",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Identical flags and seeds produce byte-identical CLI outputs."""
    small_plan = [
        "--pre", "2", "--input", "56x56", "--candidates", "56x56",
        "--vit", "28x28", "--patch", "14", "--post", "1", "--no-row-separators",
    ]
    for sub in ("one", "two"):
        d = tmp_path / sub
        rc = cli_main([
            "simulate-decay", "--dim", "16", "--theta", "1e4", "--mu", "ones:1.0",
            "--distances", "0,1,8,64", "--samples", "4000", "--seed", "11",
            "--out", str(d / "decay.csv"),
        ])
        rc |= cli_main(["plan-layout", "--input", "672x672", "--pre", "10", "--post", "5",
                        "--out", str(d / "plan.json")])
        rc |= cli_main(["assign-ids", *small_plan, "--mapping-csv", str(d / "map.csv"),
                        "--out", str(d / "ids.json")])
        rc |= cli_main(["attention-report", *small_plan, "--dim", "8",
                        "--pop", "gaussian:0.5:21", "--dense", "--out-dir", str(d / "rep")])
        assert rc == 0
    files = [
        "decay.csv", "plan.json", "map.csv", "ids.json",
        "rep/distance_baseline.csv", "rep/distance_id_align.csv",
        "rep/scores_baseline.csv", "rep/scores_id_align.csv", "rep/gain_report.json",
        "rep/summary_baseline.csv", "rep/summary_id_align.csv",
    ]
    mismatches = [f for f in files if (tmp_path / "one" / f).read_bytes() != (tmp_path / "two" / f).read_bytes()]
    _verdict(
        10,
        "cli determinism",
        not mismatches,
        f"{len(files)} artifacts byte-compared across two runs"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )
