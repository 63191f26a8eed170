"""End-to-end tests of the command-line interface.

Each command runs through ``main`` with an argv list; outputs land in
pytest temp dirs and are compared byte for byte where determinism is
the contract.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ropealign
from ropealign import (
    GridShape, HighResGrid, LayoutPlan, Resolution, RopeConfig, Separator, TextSegment, ThumbnailGrid,
    decay_profile, harness, idalign,
)  # fmt: skip
from ropealign import cli, codec, decay
from ropealign.cli import main
from ropealign.codec import csv_lines, csv_text
from ropealign.layout import allocating_slots

from oracles import attention_scores

SMALL_PLAN_ARGS = [
    "--pre", "2", "--input", "56x56", "--candidates", "56x56",
    "--vit", "28x28", "--patch", "14", "--post", "1", "--no-row-separators",
]


class TestSimulateDecay:
    """CSV profile emission."""

    def test_unallocatable_dim_does_not_blame_mu(self, capsys):
        # Past numpy's maximum dimension: fails before any allocation.
        rc = main(["simulate-decay", "--dim", "1" + "0" * 30, "--samples", "8"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad mean preset" not in err and not err.startswith("error: mu:"), err

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--dim", "1" + "0" * 30], "dim"),
            (["--samples", "1" + "0" * 30], "samples"),
            (["--samples", "1" + "0" * 20], "samples"),
            (["--distances", "log:0..5:1" + "0" * 14], "distances"),
            (["--distances", "log:0..5:1" + "0" * 400], "distances"),
            (["--distances", "0," + "1" + "0" * 30], "distances"),
        ],
        ids=[
            "dim-past-max-dimension", "samples-past-max-dimension", "samples-43PiB", "distances-728TiB",
            "distances-past-float-range", "distance-past-2**53",
        ],
    )
    def test_unallocatable_count_names_the_option(self, flags, key, tmp_path, capsys):
        # Each is past numpy's maximum dimension or the float range, or asks
        # for more than 128 TiB, beyond the 64-bit address space, so it fails
        # before any allocation whatever the overcommit mode.  A distance past
        # 2**53, where not every integer is a float, fails the same way.
        argv = ["simulate-decay", "--dim", "4", "--distances", "0", "--samples", "8", *flags]
        rc = main(argv + ["--out", str(tmp_path / "decay.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {key}") and err.count("\n") == 1, err
        assert not (tmp_path / "decay.csv").exists()

    OVERFLOWING_MEAN = [
        "simulate-decay", "--dim", "4", "--samples", "2", "--distances", "0", "--mu", "ones:1e308",
    ]

    def test_overflowing_mean_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        assert main(self.OVERFLOWING_MEAN + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mean_dot and stderr must be finite") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_mean_prints_one_line(self, threads, tmp_path):
        """A numpy warning raised in a pool thread bypasses capsys, so the
        whole stderr of a separate process is checked."""
        src = str(Path(ropealign.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # Three chunks, so with two threads the pool runs chunks side by side.
        argv = [*self.OVERFLOWING_MEAN, "--samples", "40000", "--threads", threads]
        proc = subprocess.run(
            [sys.executable, "-m", "ropealign", *argv, "--out", str(tmp_path / "decay.csv")],
            env=env, capture_output=True, text=True,
        )  # fmt: skip
        assert proc.returncode == 2
        assert proc.stdout == "" and not (tmp_path / "decay.csv").exists()
        assert proc.stderr.startswith("error: mean_dot and stderr must be finite"), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_matches_library_call(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        rc = main([
            "simulate-decay", "--dim", "8", "--theta", "1e4", "--mu", "ones:1.0",
            "--distances", "0,1,16", "--samples", "2000", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        want = decay_profile(
            np.ones(8), np.ones(8), [0, 1, 16], samples=2000, seed=7, config=RopeConfig(8, 1e4)
        ).to_csv()
        assert out.read_text() == want

    def test_log_spaced_distances(self, capsys):
        rc = main(["simulate-decay", "--dim", "4", "--samples", "200", "--distances", "log:0..64:5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rel_distance,mean_dot,stderr,samples"
        got = [int(line.split(",")[0]) for line in lines[1:]]
        assert got[0] == 0
        assert got[-1] == 64
        assert got == sorted(got)

    def test_large_theta_accepted(self, capsys):
        rc = main(["simulate-decay", "--dim", "4", "--theta", "1e7", "--samples", "100", "--distances", "0,2"])
        assert rc == 0

    def test_zero_samples_is_usage_error(self, capsys):
        rc = main(["simulate-decay", "--dim", "4", "--samples", "0", "--distances", "0,1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_distance_spec(self, capsys):
        rc = main(["simulate-decay", "--distances", "log:64", "--samples", "100"])
        assert rc == 2

    def test_bad_threads_is_usage_error(self, tmp_path, capsys):
        args = ["simulate-decay", "--dim", "4", "--samples", "100", "--distances", "0,1"]
        cfg = tmp_path / "cfg.json"
        for threads in (0, -2):
            cfg.write_text(json.dumps({"threads": threads}))
            for extra in (["--threads", str(threads)], ["--config", str(cfg)]):
                assert main(args + extra) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:") and "threads" in err

    def test_threads_do_not_change_bytes(self, tmp_path):
        args = ["simulate-decay", "--dim", "8", "--samples", "1000", "--distances", "0,3,9", "--seed", "5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("where", ["rotated", "moments"])
    def test_unallocatable_grid_names_distances(self, where, tmp_path, capsys):
        """A grid too large for its rotated means or its moments exits 2
        with one error line naming ``distances``, the grid size and dim, and
        writes no CSV.  The allocation is made to raise MemoryError, so no
        giant grid is allocated."""
        owner, name = (decay, "apply_rope_many") if where == "rotated" else (np, "zeros")
        real = getattr(owner, name)

        def no_room(*args, **kwargs):
            if owner is decay or args[:1] == ((2, 3),):
                raise MemoryError
            return real(*args, **kwargs)

        out = tmp_path / "decay.csv"
        argv = ["simulate-decay", "--dim", "4", "--samples", "10", "--distances", "0,1,2", "--out", str(out)]
        with mock.patch.object(owner, name, no_room):
            assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: distances: a grid of 3 points at dim 4 cannot be allocated\n")
        assert not out.exists()

    def test_threads_do_not_change_bytes_on_a_large_grid(self, tmp_path):
        """300 distances are projected in three groups in each block of three chunks."""
        args = ["simulate-decay", "--dim", "8", "--samples", "40000", "--distances", "lin:0..1000:300"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 301


@pytest.mark.parametrize(
    "argv, key, spec",
    [
        (["plan-layout", "--input", "axb"], "input", "axb"),
        (["plan-layout", "--vit", "336x"], "vit", "336x"),
        (["plan-layout", "--candidates", "336x672,336x"], "candidates", "336x"),
        (["simulate-decay", "--distances", "log:0..64:x"], "distances", "log:0..64:x"),
        (["simulate-decay", "--distances", "0,x"], "distances", "0,x"),
        (["simulate-decay", "--mu", "ones:x"], "mu", "ones:x"),
        (["attention-report", "--pop", "gaussian:x:1"], "pop", "gaussian:x:1"),
        (["attention-report", "--pop", "gaussian:0.5:x"], "pop", "gaussian:0.5:x"),
        (["attention-report", "--pop", "constant:x"], "pop", "constant:x"),
        (["attention-report", "--pop", "gaussian:0.5:-1"], "pop", "gaussian:0.5:-1"),
        (["simulate-decay", "--distances", "log:0..10:4:junk"], "distances", "log:0..10:4:junk"),
        (["simulate-decay", "--mu", "uniform:1"], "mu", "uniform:1"),
        (["attention-report", "--pop", "uniform:1"], "pop", "uniform:1"),
        (["attention-report", "--pop", "constant:nan"], "pop", "constant:nan"),
        (["attention-report", "--pop", "constant:inf"], "pop", "constant:inf"),
        (["attention-report", "--pop", "constant:1e999"], "pop", "constant:1e999"),
        (["attention-report", "--pop", "gaussian:nan:1"], "pop", "gaussian:nan:1"),
        # A spaced form's end and count are at most 2**53, so numpy spaces them in floats.
        (["simulate-decay", "--distances", f"lin:0..{10**320}:2"], "distances", f"lin:0..{10**320}:2"),
        (["simulate-decay", "--distances", f"log:0..{10**320}:2"], "distances", f"log:0..{10**320}:2"),
        (["simulate-decay", "--distances", f"lin:0..10:{10**20}"], "distances", f"lin:0..10:{10**20}"),
        (["simulate-decay", "--distances", f"log:0..10:{10**20}"], "distances", f"log:0..10:{10**20}"),
    ],
)
def test_bad_spec_names_option_and_spec(argv, key, spec, tmp_path, capsys):
    """A malformed spec string exits 2 with the option and the spec named.
    A population's coordinate is read as a finite number, and the spec is
    named whole, whichever check refused it."""
    out = "--out-dir" if argv[0] == "attention-report" else "--out"
    assert main(argv + [out, str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and repr(spec) in err, err
    assert not (tmp_path / "o").exists()


BAD_MU = "error: mu: bad mean preset {}, expected 'zeros' or 'ones:C'\n"
BAD_SIDE = "{} must be an integer from 1 to 9007199254740992, got {}"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["simulate-decay", "--mu", "ones:nan"], BAD_MU.format("'ones:nan'")),
        (["simulate-decay", "--distances", "3,1"], "error: distances must be strictly increasing\n"),
        (["simulate-decay", "--seed", "-1"], "error: seed must be an integer of at least 0, got -1\n"),
        (["simulate-decay", "--threads", "0"], "error: threads must be an integer of at least 1, got 0\n"),
        (["plan-layout", "--patch", "0"], "error: patch_size must be an integer of at least 1, got 0\n"),
        (["simulate-decay", "--mu", "ones:inf"], BAD_MU.format("'ones:inf'")),
        (["simulate-decay", "--mu", "ones:-inf"], BAD_MU.format("'ones:-inf'")),
        (["simulate-decay", "--theta", "inf"], "error: theta must be a number, got inf\n"),
        (["simulate-decay", "--theta", "1e400"], "error: theta must be a number, got inf\n"),
        # A pixel side is at most 2**53, so selection and fit scale it in floats.
        (["plan-layout", "--input", f"{10**320}x1"], f"error: input: {BAD_SIDE.format('height', 10**320)}\n"),
        (["plan-layout", "--input", f"1x{10**320}"], f"error: input: {BAD_SIDE.format('width', 10**320)}\n"),
        (
            ["plan-layout", "--input", "1x1", "--candidates", f"{10**320}x1"],
            f"error: candidates: {BAD_SIDE.format('height', 10**320)}\n",
        ),
        (["plan-layout", "--vit", f"{2**53 + 1}x1"], f"error: vit: {BAD_SIDE.format('height', 2**53 + 1)}\n"),
    ],
)
def test_bad_value_is_one_error_line(argv, err, tmp_path, capsys):
    small = ["--dim", "4", "--samples", "8"] if argv[0] == "simulate-decay" else []
    assert main(argv + small + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "o").exists()


def test_plan_file_with_zero_patch_size_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"segments":[{"kind":"thumb","rows":2,"cols":3}],"patch_size":0}')
    assert main(["assign-ids", "--plan", str(plan), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {plan}: plan: patch_size must be an integer of at least 1, got 0\n"
    assert not (tmp_path / "o").exists()


def test_lin_distances_and_zero_mean(tmp_path, capsys):
    """``lin:0..10:3`` is the distances 0, 5, 10, and ``--mu zeros`` the
    zero mean, as the library computes them."""
    argv = ["simulate-decay", "--dim", "4", "--samples", "8", "--seed", "2"]
    config = RopeConfig(dim=4)
    assert main(argv + ["--distances", "lin:0..10:3", "--out", str(tmp_path / "lin.csv")]) == 0
    want = decay_profile(np.ones(4), np.ones(4), [0, 5, 10], samples=8, seed=2, config=config)
    assert (tmp_path / "lin.csv").read_text() == want.to_csv()
    assert main(argv + ["--distances", "0,1", "--mu", "zeros", "--out", str(tmp_path / "zeros.csv")]) == 0
    want = decay_profile(np.zeros(4), np.zeros(4), [0, 1], samples=8, seed=2, config=config)
    assert (tmp_path / "zeros.csv").read_text() == want.to_csv()


@pytest.mark.parametrize(
    "spec, want",
    [
        ("log:0..0", [0]),
        ("log:0..0:5", [0]),
        ("log:0..1", [0, 1]),
        ("log:1..64:4", sorted({round(v) for v in np.geomspace(1, 64, 4)})),
    ],
)
def test_log_distances_from_zero_stay_in_range(spec, want, tmp_path, capsys):
    """A log range from 0 keeps the exact 0 point and no distance past
    its end: ``log:0..0`` is 0 alone, in the spec and in the CSV rows.
    A range from A >= 1 is its rounded geometric points, with no 0."""
    assert cli._parse_distances(spec) == want
    out = tmp_path / "decay.csv"
    assert main(["simulate-decay", "--dim", "4", "--samples", "8", "--distances", spec, "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [str(d) for d in want]


@pytest.mark.parametrize("command", ["assign-ids", "attention-report"])
@pytest.mark.parametrize(
    "flag, spec, err",
    [
        ("--input", "axb", "error: input: bad resolution 'axb', expected HEIGHTxWIDTH\n"),
        ("--vit", "1x", "error: vit: bad resolution '1x', expected HEIGHTxWIDTH\n"),
        ("--candidates", "zz", "error: candidates: bad resolution 'zz', expected HEIGHTxWIDTH\n"),
    ],
    ids=["input", "vit", "candidates"],
)
def test_bad_inline_plan_flag_beside_plan_exits_2(command, flag, spec, err, tmp_path, capsys):
    """A spec string is parsed as it is read, so a malformed inline plan
    flag is an error even where ``--plan`` leaves it unused."""
    plan = tmp_path / "plan.json"
    plan.write_text('{"segments":[{"kind":"thumb","rows":2,"cols":3}],"patch_size":14}')
    out = tmp_path / "o"
    argv = [command, "--plan", str(plan), "--out-dir" if command == "attention-report" else "--out", str(out)]
    assert main(argv + [flag, spec]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()
    assert main(argv) == 0 and out.exists()


class TestPlanLayout:
    """Plan JSON and token counts."""

    def test_default_preset_square_input(self, capsys):
        rc = main(["plan-layout", "--pre", "10", "--post", "5", "--input", "672x672"])
        assert rc == 0
        plan_line, counts_line = capsys.readouterr().out.splitlines()
        plan = LayoutPlan.from_json(plan_line)
        counts = json.loads(counts_line)
        assert counts["image_tokens"] == 2880
        assert plan.thumbnail().shape.rows == 24

    def test_vit_grid_arithmetic(self, capsys):
        rc = main(["plan-layout", "--input", "336x336", "--vit", "336", "--patch", "14"])
        assert rc == 0
        plan_line = capsys.readouterr().out.splitlines()[0]
        assert '{"kind":"thumb","rows":24,"cols":24}' in plan_line

    def test_malformed_resolution(self, capsys):
        rc = main(["plan-layout", "--input", "336x336x3"])
        assert rc == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(["plan-layout", "--input", "336x336", "--out", str(out)])
        assert rc == 0
        assert LayoutPlan.from_json(out.read_text()).highres() is not None

    def test_stdout_bytes_pinned(self, capsys):
        assert main(["plan-layout"] + SMALL_PLAN_ARGS) == 0
        assert capsys.readouterr().out == (
            '{"segments":[{"kind":"text","len":2},{"kind":"thumb","rows":2,"cols":2},'
            '{"kind":"highres","rows":4,"cols":4,"row_separator":false},{"kind":"text","len":1}],'
            '"patch_size":14}\n'
            '{"total":23,"text_tokens":3,"image_tokens":20,"separator_tokens":0,"id_span_baseline":23}\n'
        )


class TestAssignIds:
    """ID maps and span reports."""

    def test_worked_trace_via_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"segments":[{"kind":"text","len":2},{"kind":"thumb","rows":2,"cols":2},'
            '{"kind":"highres","rows":2,"cols":2,"row_separator":false},'
            '{"kind":"text","len":1}],"patch_size":14}'
        )
        rc = main(["assign-ids", "--plan", str(plan_path), "--mode", "both"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["id_align"]["ids"] == [0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 6]
        assert doc["id_align"]["max_pid"] == 7
        assert doc["baseline"]["ids"] == list(range(11))
        assert "span" in doc

    def test_both_mode_emits_ratio_near_five(self, capsys):
        rc = main(["assign-ids", "--pre", "10", "--post", "5", "--input", "672x672", "--mode", "both"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["span"]["id_align_span"] == 575
        assert doc["span"]["baseline_span"] >= 2879
        assert round(doc["span"]["ratio"]) == 5

    @pytest.mark.parametrize(
        "segments, span",
        [
            ([{"kind": "text", "len": 7}], '{"baseline_span":0,"id_align_span":0,"ratio":1.0}'),
            (
                [{"kind": "thumb", "rows": 1, "cols": 1},
                 {"kind": "highres", "rows": 2, "cols": 2, "row_separator": False}],
                '{"baseline_span":4,"id_align_span":0,"ratio":null}',
            ),
        ],
        ids=["text-only", "one-cell-thumbnail"],
    )  # fmt: skip
    def test_span_section(self, segments, span, tmp_path, capsys):
        """The span section holds each mode's image-ID span, max - min.  A
        plan with no image tokens has ratio 1.0; ratio is null when only
        the aligned span is 0."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"segments": segments, "patch_size": 14}))
        assert main(["assign-ids", "--plan", str(plan_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(',"span":' + span + "}")

    def test_single_mode_output(self, capsys):
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--mode", "baseline"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "baseline" in doc
        assert "id_align" not in doc

    def test_mapping_csv(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--mapping-csv", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        # thumbnail base is 2 (two leading text tokens), nested 2x refinement
        assert rows[0] == "2,2,3,3"

    @pytest.mark.parametrize("policy, base", [("inherit-row-end", 1), ("sequential-after-image", 3)])
    def test_mapping_csv_after_leading_separators(self, policy, base, tmp_path, capsys):
        """The thumbnail's first slot is 3 but its first ID is ``base``:
        the three leading separators share one ID, or take one each."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"segments":[{"kind":"separator","count":3},{"kind":"thumb","rows":2,"cols":3},'
            '{"kind":"highres","rows":5,"cols":4,"row_separator":true},'
            '{"kind":"text","len":2}],"patch_size":14}'
        )
        out = tmp_path / "map.csv"
        argv = ["assign-ids", "--plan", str(plan_path), "--separator-policy", policy]
        assert main(argv + ["--mapping-csv", str(out)]) == 0
        want = idalign.map_highres_ids(GridShape(2, 3), GridShape(5, 4), base=base).to_csv()
        assert out.read_text() == want

    def test_mapping_csv_maps_the_grid_once(self, tmp_path, monkeypatch, capsys):
        """The CSV is read from the aligned map, not mapped a second time."""
        real = idalign.map_highres_ids
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(idalign, "map_highres_ids", counting)
        monkeypatch.setattr(cli, "map_highres_ids", counting, raising=False)  # were it imported
        out = tmp_path / "map.csv"
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--mode", "both", "--mapping-csv", str(out)])
        assert rc == 0
        assert len(calls) == 1
        assert out.read_text() == real(*calls[0]).to_csv()

    @pytest.mark.parametrize("policy", ["inherit-row-end", "sequential-after-image"])
    def test_long_ids_json_equals_json_dumps(self, policy, tmp_path, capsys):
        """ids.json is written a chunk of IDs at a time; across many chunks
        its bytes are still those of ``json.dumps`` of the lists."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"segments":[{"kind":"text","len":7},{"kind":"thumb","rows":24,"cols":24},'
            '{"kind":"highres","rows":101,"cols":203},{"kind":"text","len":5}],"patch_size":14}'
        )
        out, csv = tmp_path / "ids.json", tmp_path / "map.csv"
        argv = ["assign-ids", "--plan", str(plan_path), "--separator-policy", policy]
        assert main(argv + ["--out", str(out), "--mapping-csv", str(csv)]) == 0
        plan = LayoutPlan.from_json(plan_path.read_text())
        maps = {mode: idalign.assign_position_ids(plan, mode, policy) for mode in ("baseline", "id_align")}
        span = idalign.id_span_report(plan, policy, **maps)
        want = {mode: {"ids": m.ids.tolist(), "max_pid": m.max_pid, "mode": mode} for mode, m in maps.items()}
        want["span"] = {"baseline_span": span.baseline_span, "id_align_span": span.id_align_span, "ratio": span.ratio}
        assert out.read_text() == json.dumps(want, separators=(",", ":")) + "\n"
        grid = maps["id_align"].ids[plan.cell_slots(plan.highres())]
        assert csv.read_text() == csv_text(None, grid.tolist())

    @pytest.mark.parametrize(
        "command",
        [["assign-ids"], ["attention-report"], ["assign-ids", "--mode", "baseline"]],
        ids=["assign-ids", "attention-report", "assign-ids-baseline"],
    )
    @pytest.mark.parametrize("n", [10**15, 2**63 - 1])
    def test_unallocatable_plan_is_one_error_line(self, command, n, tmp_path):
        """A plan whose slots cannot be allocated exits 2 with one line
        naming the count: no MemoryError traceback, no empty "pop:" cause,
        and in baseline mode no empty document.  A separate process, since
        the failure is an allocation."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"segments": [{"kind": "text", "len": n}], "patch_size": 14}))
        src = str(Path(ropealign.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ropealign", *command, "--plan", str(plan_path)],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )  # fmt: skip
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: a plan of {n} slots cannot be allocated\n"

    def test_high_without_thumbnail_fails(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"segments":[{"kind":"highres","rows":2,"cols":2,"row_separator":false}],"patch_size":14}'
        )
        rc = main(["assign-ids", "--plan", str(plan_path), "--mode", "id_align"])
        assert rc == 2
        assert "thumbnail" in capsys.readouterr().err

    def test_unknown_mode(self, capsys):
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--mode", "fancy"])
        assert rc == 2

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"segments":[{"kind":"text","len":2.7}],"patch_size":14}', "len"),
            ('{"segments":[{"kind":"text","len":2}],"patch_size":14.5}', "patch_size"),
        ],
    )
    def test_non_integer_plan_field_is_usage_error(self, tmp_path, capsys, text, field):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(text)
        rc = main(["assign-ids", "--plan", str(plan_path), "--mode", "baseline"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and field in captured.err

    def test_high_first_baseline_has_no_span(self, capsys):
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--order", "high-first", "--mode", "baseline"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert list(doc) == ["baseline"]
        assert doc["baseline"]["ids"] == list(range(23))

    @pytest.mark.parametrize("mode", ["id_align", "both"])
    def test_high_first_aligned_modes_fail(self, mode, capsys):
        rc = main(["assign-ids"] + SMALL_PLAN_ARGS + ["--order", "high-first", "--mode", mode])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "thumbnail" in captured.err

    def test_high_first_mapping_csv_fails(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        rc = main(
            ["assign-ids"] + SMALL_PLAN_ARGS
            + ["--order", "high-first", "--mode", "baseline", "--mapping-csv", str(out)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "thumbnail" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["baseline", "both"])
    def test_unallocatable_aligned_map_fails_in_every_mode(self, mode, tmp_path, monkeypatch, capsys):
        """A plan that has an aligned map is never written without it: an
        aligned map that cannot be allocated exits 2 naming the plan in
        baseline mode too, so ``ids.json`` never depends on free memory."""

        def no_room(*args):
            raise MemoryError

        monkeypatch.setattr(idalign, "_aligned_ids", no_room)
        out = tmp_path / "ids.json"
        assert main(["assign-ids"] + SMALL_PLAN_ARGS + ["--mode", mode, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: a plan of 23 slots cannot be allocated\n")
        assert not out.exists()

    BOTH_GRIDS = "--mapping-csv needs a plan with both grids"
    THUMB_FIRST = "id_align mode requires a thumbnail grid before the high-resolution grid"

    @pytest.mark.parametrize("mode", ["baseline", "id_align", "both"])
    @pytest.mark.parametrize(
        "segments, errors",
        [
            ([{"kind": "text", "len": 3}], {"baseline": BOTH_GRIDS, "id_align": BOTH_GRIDS, "both": BOTH_GRIDS}),
            (
                [{"kind": "highres", "rows": 2, "cols": 2, "row_separator": False},
                 {"kind": "thumb", "rows": 1, "cols": 1}],
                {"baseline": THUMB_FIRST, "id_align": THUMB_FIRST, "both": THUMB_FIRST},
            ),
            (
                [{"kind": "highres", "rows": 2, "cols": 2, "row_separator": False}],
                {"baseline": BOTH_GRIDS, "id_align": BOTH_GRIDS, "both": BOTH_GRIDS},
            ),
            (
                [{"kind": "text", "len": 2**80}],
                {"baseline": BOTH_GRIDS, "id_align": BOTH_GRIDS, "both": BOTH_GRIDS},
            ),
        ],
        ids=["text-only", "high-then-thumb", "high-only", "huge-text-only"],
    )  # fmt: skip
    def test_mapping_csv_without_aligned_grid_fails(self, segments, errors, mode, tmp_path, capsys):
        """A plan with no aligned grid to write fails in every mode with
        one line, and writes nothing: a plan without both grids is refused
        before any map, so whatever its size, and a plan with both in the
        wrong order by idalign's order rule."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"segments": segments, "patch_size": 14}))
        out, csv = tmp_path / "ids.json", tmp_path / "map.csv"
        argv = ["assign-ids", "--plan", str(plan_path), "--mode", mode]
        assert main(argv + ["--out", str(out), "--mapping-csv", str(csv)]) == 2
        assert capsys.readouterr() == ("", f"error: {errors[mode]}\n")
        assert not out.exists() and not csv.exists()

    def test_each_map_computed_once(self, tmp_path, monkeypatch, capsys):
        """One run with every output computes each mode's map once."""
        real = idalign.assign_position_ids
        calls = []

        def counting(plan, mode, *args, **kwargs):
            calls.append(mode)
            return real(plan, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "assign_position_ids", counting)
        monkeypatch.setattr(idalign, "assign_position_ids", counting)
        rc = main(
            ["assign-ids"] + SMALL_PLAN_ARGS
            + ["--mode", "both", "--mapping-csv", str(tmp_path / "map.csv")]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(doc) == {"baseline", "id_align", "span"}
        assert sorted(calls) == ["baseline", "id_align"]


class TestAttentionReport:
    """Matrix and report emission."""

    def test_small_plan_outputs(self, tmp_path, capsys):
        rc = main(
            ["attention-report"] + SMALL_PLAN_ARGS
            + ["--dim", "8", "--dense", "--out-dir", str(tmp_path / "rep")]
        )
        assert rc == 0
        names = {p.name for p in (tmp_path / "rep").iterdir()}
        assert names == {
            "distance_baseline.csv",
            "distance_id_align.csv",
            "scores_baseline.csv",
            "scores_id_align.csv",
            "gain_report.json",
            "summary_baseline.csv",
            "summary_id_align.csv",
        }
        report = json.loads((tmp_path / "rep" / "gain_report.json").read_text())
        assert report["id_align"]["pair_mean_distance"] == 0.0

    def test_thumbnail_only_plan_matrices_identical(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"segments":[{"kind":"thumb","rows":2,"cols":3}],"patch_size":14}'
        )
        rc = main(["attention-report", "--plan", str(plan_path), "--dim", "4", "--dense", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "distance_baseline.csv").read_bytes() == (
            tmp_path / "distance_id_align.csv"
        ).read_bytes()
        assert (tmp_path / "scores_baseline.csv").read_bytes() == (
            tmp_path / "scores_id_align.csv"
        ).read_bytes()

    def test_each_map_computed_once(self, tmp_path, monkeypatch, capsys):
        """The gain report reuses the maps the matrices were built from."""
        real = idalign.assign_position_ids
        calls = []

        def counting(plan, mode, *args, **kwargs):
            calls.append(mode)
            return real(plan, mode, *args, **kwargs)

        for module in (cli, idalign):
            monkeypatch.setattr(module, "assign_position_ids", counting)
        rc = main(["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert sorted(calls) == ["baseline", "id_align"]

    def test_normalized_rows_sum_to_one(self, tmp_path, capsys):
        rc = main(
            ["attention-report"] + SMALL_PLAN_ARGS
            + ["--dim", "8", "--normalize", "--pop", "gaussian:0.5:11", "--dense", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "scores_id_align.csv").read_text().splitlines()
        for line in lines[1:]:
            row = [float(x) for x in line.split(",")]
            assert abs(sum(row) - 1.0) < 1e-9

    def test_non_finite_scores_write_no_file(self, tmp_path, capsys):
        """Each mode's scores are summed before any of its files is opened,
        so an overflowing score stops --dense before a partial matrix."""
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--pop", "constant:1e200", "--dense"]
        assert main(argv + ["--out-dir", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == "error: scores must be finite\n"
        assert not (tmp_path / "rep").exists()

    def test_dense_rotates_twice_per_mode(self, tmp_path, capsys):
        """--dense walks the scores once more per mode, for the score
        matrix; the distance matrix is |id_i - id_j| of the IDs alone."""
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--out-dir", str(tmp_path)]
        with mock.patch.object(harness, "apply_rope_many", wraps=harness.apply_rope_many) as rope:
            assert main(argv) == 0
            assert rope.call_count == 2
            assert main(argv + ["--dense"]) == 0
            assert rope.call_count == 2 + 4
        plan = cli._plan_from(cli._merged(cli.build_parser().parse_args(argv)))
        for mode in ("baseline", "id_align"):
            ids = idalign.assign_position_ids(plan, mode).ids
            want = csv_text(plan.slot_roles(), np.abs(ids[:, None] - ids).tolist())
            assert (tmp_path / f"distance_{mode}.csv").read_text() == want

    @pytest.mark.parametrize("normalize", [[], ["--normalize"]], ids=["raw", "normalize"])
    def test_distance_blocks_built_once_per_consumer(self, normalize, tmp_path, capsys):
        """Each mode's summary builds the |id_i - id_j| blocks once, and
        --dense's distance writer once more; the score writer builds none."""
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--out-dir", str(tmp_path)] + normalize
        blocks = mock.Mock(wraps=harness._distance_blocks)
        # cli binds the name on import, so both modules' names are patched.
        with mock.patch.object(harness, "_distance_blocks", blocks), mock.patch.object(cli, "_distance_blocks", blocks):
            assert main(argv) == 0
            assert blocks.call_count == 2
            blocks.reset_mock()
            assert main(argv + ["--dense"]) == 0
            assert blocks.call_count == 4

    def test_files_equal_library_text(self, tmp_path, capsys):
        """By default only the summaries and the gain report are written;
        --dense adds the dense CSVs.  Each equals the library's text."""
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--pop", "gaussian:0.5:4", "--normalize"]
        assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
        assert main(argv + ["--dense", "--out-dir", str(tmp_path / "dense")]) == 0
        assert {p.name for p in (tmp_path / "default").iterdir()} == {
            "summary_baseline.csv", "summary_id_align.csv", "gain_report.json",
        }  # fmt: skip
        plan = cli._plan_from(cli._merged(cli.build_parser().parse_args(argv)))
        config = RopeConfig(dim=8)
        pop = harness.population_gaussian(plan, config, mean=0.5, seed=4)
        for mode in ("baseline", "id_align"):
            idmap = idalign.assign_position_ids(plan, mode)
            summary = harness.attention_summary(pop, idmap, config, normalize=True).to_csv()
            assert (tmp_path / "default" / f"summary_{mode}.csv").read_text() == summary
            assert (tmp_path / "dense" / f"summary_{mode}.csv").read_text() == summary
            scores = csv_text(pop.roles, attention_scores(pop, idmap, config, normalize=True).tolist())
            assert (tmp_path / "dense" / f"scores_{mode}.csv").read_text() == scores

    @staticmethod
    def _plan_file(tmp_path, name: str) -> Path:
        """The benchmark's 617-slot plan, or a small plan whose first
        segment is a separator, as a plan file."""
        path = tmp_path / f"{name}.json"
        if name == "benchmark":
            args = ["--input", "336x672", "--candidates", "clip336", "--patch", "24", "--pre", "10", "--post", "5"]
            assert main(["plan-layout", *args, "--out", str(path)]) == 0
        else:
            segments = (
                Separator(2), TextSegment(3), ThumbnailGrid(GridShape(4, 4)),
                HighResGrid(GridShape(8, 8), row_separator=True), Separator(1), TextSegment(5),
            )  # fmt: skip
            path.write_text(LayoutPlan(segments=segments, patch_size=14).to_json())
        return path

    @pytest.mark.parametrize("dense", [[], ["--dense"]], ids=["summary", "dense"])
    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalize"])
    @pytest.mark.parametrize("plan_name", ["benchmark", "separator-first"])
    def test_summaries_summed_at_once_equal_serial_ones(self, plan_name, normalize, dense, tmp_path, capsys):
        """The two modes are summed at once, one on a worker thread; each
        summary file equals ``attention_summary`` computed in process, one
        mode after the other."""
        plan_path = self._plan_file(tmp_path, plan_name)
        argv = ["attention-report", "--plan", str(plan_path), "--pop", "gaussian:0.5:5", "--out-dir", str(tmp_path)]
        assert main(argv + ["--normalize"] * normalize + dense) == 0
        plan = LayoutPlan.from_json(plan_path.read_text())
        assert plan.total_tokens == 617 or plan.segments[0].KIND == "separator"
        config = RopeConfig(dim=64)
        pop = harness.population_gaussian(plan, config, mean=0.5, seed=5)
        for mode in ("baseline", "id_align"):
            summary = harness.attention_summary(pop, idalign.assign_position_ids(plan, mode), config, normalize)
            assert (tmp_path / f"summary_{mode}.csv").read_text() == summary.to_csv()

    @pytest.mark.parametrize("failing", ["baseline", "id_align"])
    def test_a_mode_error_surfaces_in_mode_order(self, failing, tmp_path, capsys):
        """A mode whose summary raises stops the run where the serial run
        stopped: after every file of the modes before it, before any file
        of its own, with one error line and exit 2."""
        real = harness.attention_summary

        def summary(pop, idmap, *args, **kwargs):
            if idmap.mode == failing:
                raise ValueError("scores must be finite")
            return real(pop, idmap, *args, **kwargs)

        out = tmp_path / "rep"
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--dense", "--out-dir", str(out)]
        with mock.patch.object(cli, "attention_summary", summary):
            assert main(argv) == 2
        baseline = ["distance_baseline.csv", "scores_baseline.csv", "summary_baseline.csv"]
        written = [] if failing == "baseline" else baseline
        captured = capsys.readouterr()
        assert captured.err == "error: scores must be finite\n"
        assert captured.out == "".join(f"wrote {out / name}\n" for name in written)
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == written

    def test_no_thread_outlives_the_command(self, tmp_path, capsys):
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--dim", "8", "--out-dir", str(tmp_path)]
        before = threading.active_count()
        assert main(argv) == 0
        assert main(argv + ["--pop", "constant:1e200"]) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("on_main", [True, False], ids=["main-thread", "worker-thread"])
    def test_summary_memory_error_names_the_plan(self, on_main, tmp_path, capsys):
        """A MemoryError in a summary, as from a table too large to
        allocate, on this thread or re-raised from the worker's, is one
        error line naming the plan's slot count and the dim."""
        plan_path = self._plan_file(tmp_path, "benchmark")
        capsys.readouterr()
        real = harness._empty_table

        def table(size):
            if (threading.current_thread() is threading.main_thread()) == on_main:
                raise MemoryError
            return real(size)

        out = tmp_path / "rep"
        with mock.patch.object(harness, "_empty_table", table):
            assert main(["attention-report", "--plan", str(plan_path), "--out-dir", str(out)]) == 2
        written = [] if on_main else ["summary_baseline.csv"]  # the worker sums id_align
        stdout = "".join(f"wrote {out / name}\n" for name in written)
        assert capsys.readouterr() == (stdout, "error: a plan of 617 slots at dim 64 cannot be allocated\n")
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == written

    def test_dim_past_the_address_space_names_the_plan_and_dim(self, tmp_path, capsys):
        """A dim whose (slots, dim) arrays no address space holds is one
        error line naming both sizes, before any array is built, and no
        file is written."""
        plan_path = self._plan_file(tmp_path, "benchmark")
        capsys.readouterr()
        out, dim = tmp_path / "rep", 10**30
        assert main(["attention-report", "--plan", str(plan_path), "--dim", str(dim), "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: a plan of 617 slots at dim {dim} cannot be allocated\n")
        assert not out.exists()

    @pytest.mark.parametrize("failing, pop", [("roles", "gaussian:0.5:1"), ("array", "constant:1.0")])
    def test_population_memory_error_names_the_plan(self, failing, pop, tmp_path, monkeypatch, capsys):
        """A population that cannot be allocated, in its slot roles or in
        its (slots, dim) array, is one error line naming the plan's slot
        count, as a map is, and for the array the dim too, as a summary
        does, and no file is written."""
        plan_path = self._plan_file(tmp_path, "benchmark")
        capsys.readouterr()
        if failing == "roles":

            def roles(plan):
                with allocating_slots(plan):
                    raise MemoryError

            monkeypatch.setattr(LayoutPlan, "slot_roles", roles)
        else:
            real = np.full

            def full(shape, *args, **kwargs):
                if shape == (617, 64):
                    raise MemoryError("Unable to allocate 309. KiB for an array with shape (617, 64)")
                return real(shape, *args, **kwargs)

            monkeypatch.setattr(harness.np, "full", full)
        out = tmp_path / "rep"
        assert main(["attention-report", "--plan", str(plan_path), "--pop", pop, "--out-dir", str(out)]) == 2
        at_dim = " at dim 64" if failing == "array" else ""
        assert capsys.readouterr() == ("", f"error: a plan of 617 slots{at_dim} cannot be allocated\n")
        assert not out.exists()

    def test_bad_population_refused_before_any_map(self, tmp_path, monkeypatch, capsys):
        """A malformed --pop is refused while the options are read, before
        the plan's ID maps are computed."""
        calls = []
        for module in (cli, idalign):
            monkeypatch.setattr(module, "assign_position_ids", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "rep"
        argv = ["attention-report"] + SMALL_PLAN_ARGS + ["--pop", "gaussian:x:1", "--out-dir", str(out)]
        assert main(argv) == 2
        err = "error: pop: bad population 'gaussian:x:1', expected constant:C or gaussian:M:SEED\n"
        assert capsys.readouterr() == ("", err)
        assert calls == [] and not out.exists()


class TestConfigPrecedence:
    """Flags beat the config file; the config file beats defaults."""

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 8, "samples": 300, "distances": "0,2"}))
        rc = main(["simulate-decay", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distances": "0,2", "samples": 300}))
        rc = main(["simulate-decay", "--config", str(cfg), "--distances", "0,1,2,3"])
        assert rc == 0
        assert capsys.readouterr().out.count("\n") == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"smaples": 300}))
        rc = main(["simulate-decay", "--config", str(cfg)])
        assert rc == 2
        assert "smaples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("simulate-decay", "threads", 1.7),
            ("simulate-decay", "threads", "x"),
            ("simulate-decay", "dim", 64.0),
            ("simulate-decay", "samples", 100.5),
            ("simulate-decay", "seed", "7"),
            ("plan-layout", "patch", 14.5),
            ("plan-layout", "pre", 1.5),
            ("plan-layout", "post", None),
            ("attention-report", "dim", 8.5),
        ],
    )
    def test_non_integer_config_value_is_usage_error(self, tmp_path, capsys, command, key, value):
        """Integer options from a config file are never truncated or coerced."""
        cfg = tmp_path / "cfg.json"
        base = {"simulate-decay": {"dim": 4, "samples": 100, "distances": "0,1"}}.get(command, {})
        cfg.write_text(json.dumps(base | {key: value}))
        argv = [command, "--config", str(cfg)]
        if command == "attention-report":
            argv += ["--out-dir", str(tmp_path / "rep")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and key in captured.err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("plan-layout", "row_separators", "false"),
            ("plan-layout", "cap_effective", 1),
            ("attention-report", "normalize", "no"),
            ("plan-layout", "order", "thumbfirst"),
            ("attention-report", "theta", "abc"),
            ("simulate-decay", "theta", None),
            ("simulate-decay", "dim", True),
            ("simulate-decay", "mu", 1),
            ("assign-ids", "mode", "fancy"),
            ("assign-ids", "separator_policy", "inherit"),
            ("attention-report", "scale", 0),
            ("attention-report", "out_dir", 5),
            ("assign-ids", "plan", 5),
            ("simulate-decay", "distances", 3),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, monkeypatch, capsys, command, key, value):
        """Bool, choice, float and string options are checked, never coerced."""
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({key: value}))
        argv = [command, "--config", "cfg.json"]
        if command != "simulate-decay":
            argv += ["--input", "56x56", "--candidates", "56x56", "--vit", "28x28", "--patch", "14"]
        if command == "attention-report":
            argv += ["--dim", "8"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and key in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("plan-layout", "--order", "fancy"),
            ("assign-ids", "--separator-policy", "fancy"),
            ("attention-report", "--separator-policy", "fancy"),
        ],
    )
    def test_bad_choice_flag_returns_2(self, command, flag, value, capsys):
        """Choices are checked after parsing, so main returns 2 rather than exiting."""
        rc = main([command] + SMALL_PLAN_ARGS + [flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and flag[2:].replace("-", "_") in captured.err

    def test_bool_and_choice_config_values_apply(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"row_separators": False, "order": "high-first"}))
        assert main(["plan-layout", "--config", str(cfg), "--input", "672x672"]) == 0
        plan_line, _counts = capsys.readouterr().out.splitlines()
        plan = LayoutPlan.from_json(plan_line)
        assert plan.highres().row_separator is False
        assert plan.segments.index(plan.highres()) < plan.segments.index(plan.thumbnail())

    def test_integer_config_values_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patch": 14, "pre": 2, "post": 1}))
        assert main(["plan-layout", "--config", str(cfg)]) == 0
        counts = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert counts["text_tokens"] == 3


_PLAN_KEYS = {
    "pre", "post", "input", "candidates", "vit", "patch", "row_separators", "cap_effective", "order",
}  # fmt: skip
# Each subcommand's config keys; its flags are these, dashed, plus --config and --help.
CONFIG_KEYS = {
    "simulate-decay": {"dim", "theta", "mu", "distances", "samples", "seed", "threads", "out"},
    "plan-layout": _PLAN_KEYS | {"out"},
    "assign-ids": _PLAN_KEYS | {"plan", "mode", "separator_policy", "mapping_csv", "out"},
    "attention-report": _PLAN_KEYS
    | {"plan", "dim", "theta", "pop", "normalize", "scale", "dense", "separator_policy", "out_dir"},
}
BOOL_KEYS = {"row_separators", "cap_effective", "normalize", "scale", "dense"}
DEFAULTS = {
    "pre": 0, "post": 0, "input": "336x336", "candidates": "clip336", "vit": "336x336",
    "patch": 14, "row_separators": True, "cap_effective": False, "order": "thumb-first",
    "mode": "both", "dim": 64, "theta": 1e4, "mu": "ones:1.0", "distances": "log:0..1024",
    "samples": 100000, "seed": 0, "threads": 1, "pop": "constant:1.0", "normalize": False,
    "scale": True, "dense": False, "separator_policy": "inherit-row-end", "out_dir": ".",
    "plan": None, "mapping_csv": None, "out": None,
}  # fmt: skip
# What ``_merged`` holds for the defaults that are spec strings: their parsed values.
PARSED_DEFAULTS = {
    "input": Resolution(336, 336), "vit": Resolution(336, 336),
    "candidates": [
        Resolution(672, 672), Resolution(336, 672), Resolution(672, 336),
        Resolution(1008, 336), Resolution(336, 1008),
    ],
    "distances": [0, 1, 2, 3, 4, 6, 10, 16, 25, 40, 64, 102, 161, 256, 406, 645, 1024],
    "mu": 1.0, "pop": (harness.population_constant, 1.0),
}  # fmt: skip


class TestOptionTable:
    """One option table drives every subcommand's flags, config keys and help."""

    @staticmethod
    def subparsers() -> dict:
        return cli.build_parser().commands

    def test_flags_match_config_keys(self):
        subs = self.subparsers()
        assert set(subs) == set(CONFIG_KEYS)
        for command, keys in CONFIG_KEYS.items():
            flags = {s for a in subs[command]._actions for s in a.option_strings}
            want = {"-h", "--help", "--config"}
            want |= {"--" + k.replace("_", "-") for k in keys}
            want |= {"--no-" + k.replace("_", "-") for k in keys & BOOL_KEYS}
            assert flags == want, command

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_config_accepts_exactly_the_flag_keys(self, command, tmp_path, capsys):
        """Every key of the command, at its default, is read; every other
        key is named as unknown, with the file."""
        others = set().union(*CONFIG_KEYS.values()) | {"config", "bogus"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(others) | {k: DEFAULTS[k] for k in CONFIG_KEYS[command]}))
        assert main([command, "--config", str(cfg)]) == 2
        unknown = ", ".join(sorted(others - CONFIG_KEYS[command]))
        assert capsys.readouterr().err == f"error: {cfg}: unknown keys: {unknown}\n"

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_defaults(self, command):
        """``_merged`` holds each option's final value: the default, or for
        a spec string the default parsed, of exactly the default's type."""
        args = cli.build_parser().parse_args([command])
        got = cli._merged(args)
        want = {k: PARSED_DEFAULTS.get(k, DEFAULTS[k]) for k in CONFIG_KEYS[command]}
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}

    def test_every_spec_is_parsed_by_its_hook(self):
        """Every string option but a path is a spec, parsed in ``_merged``
        by its ``parse`` hook, so no command parses an option itself."""
        unparsed = {opt.name for opt in cli.OPTIONS if opt.kind is str and opt.parse is None}
        assert unparsed == {"plan", "mapping_csv", "out", "out_dir"}

    def test_main_calls_share_one_parser(self, monkeypatch, tmp_path, capsys):
        """Each call parses its arguments once, with its command's parser
        from the one tree ``build_parser`` built; no parser is built, and a
        call's flags do not leak into the next call."""
        tree = cli.build_parser()
        action = next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction))
        assert tree.commands is action.choices
        calls, built = [], []
        real_parse, real_init = argparse.ArgumentParser.parse_known_args, argparse.ArgumentParser.__init__

        def parsing(self, args=None, namespace=None):
            calls.append((self, list(args), namespace and vars(namespace).copy()))
            return real_parse(self, args, namespace)

        def building(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parsing)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", building)
        out = str(tmp_path / "ids.json")
        assert main(["plan-layout", "--pre", "3"]) == 0
        assert main(["assign-ids", "--pre", "1", "--out", out]) == 0
        assert main(["plan-layout"]) == 0
        assert built == [] and cli.build_parser() is tree
        assert calls == [
            (tree.commands["plan-layout"], ["--pre", "3"], {"command": "plan-layout"}),
            (tree.commands["assign-ids"], ["--pre", "1", "--out", out], {"command": "assign-ids"}),
            (tree.commands["plan-layout"], [], {"command": "plan-layout"}),
        ]
        counts = [json.loads(line) for line in capsys.readouterr().out.splitlines() if '"total"' in line]
        assert [c["text_tokens"] for c in counts] == [3, 0]
        assert json.loads(Path(out).read_text())["baseline"]["ids"][:2] == [0, 1]

    # Each exits while parsing, in the command's parser or, with no command or
    # arguments left over, in the whole parser.
    FALLBACK_ARGVS = [
        [], ["-h"], ["--help"], ["bogus"], ["PLAN-LAYOUT"], ["--pre", "3"], ["-h", "plan-layout"],
        ["--bogus", "plan-layout"], ["plan-layout", "--bogus"], ["plan-layout", "extra"],
        ["plan-layout", "--", "--pre"], ["plan-layout", "-x"], ["plan-layout", "-h"],
        ["plan-layout", "--pre", "x"], ["plan-layout", "--pre=x"], ["plan-layout", "--config"],
        ["plan-layout", "--p", "3"], ["assign-ids", "--mode"], ["attention-report", "--pre", "1", "--pre"],
        ["simulate-decay", "--samples", "8", "--plan", "p.json"],
    ]  # fmt: skip

    @pytest.mark.parametrize("argv", FALLBACK_ARGVS, ids=[" ".join(a) or "empty" for a in FALLBACK_ARGVS])
    def test_parse_errors_match_the_whole_parser(self, argv, monkeypatch, capsys):
        """``main`` parses with the command's parser, and falls back to the
        whole one; either way stdout, stderr and the exit code are those of
        ``build_parser().parse_args``."""
        monkeypatch.setenv("COLUMNS", "80")
        seen = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            seen.append((exc.value.code, *capsys.readouterr()))
        assert seen[0] == seen[1]
        assert seen[0][0] == (0 if {"-h", "--help"} & set(argv) else 2)

    def test_argv_none_reads_the_command_line(self, tmp_path, monkeypatch, capsys):
        """``python -m ropealign`` parses ``sys.argv``: the same stdout and
        file bytes as the in-process call, and with no arguments exit 2
        with the whole parser's usage."""
        src = str(Path(ropealign.__file__).resolve().parents[1])
        monkeypatch.delenv("ROPEALIGN_OUTPUT_DIR", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # usage wraps at the same width in both processes
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        (tmp_path / "sub").mkdir()
        argv = ["plan-layout", *SMALL_PLAN_ARGS, "--out", "p.json"]
        run = [sys.executable, "-m", "ropealign"]
        proc = subprocess.run(run + argv, env=env, capture_output=True, text=True, cwd=tmp_path / "sub")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
        assert (tmp_path / "sub" / "p.json").read_bytes() == (tmp_path / "p.json").read_bytes()
        proc = subprocess.run(run, env=env, capture_output=True, text=True, cwd=tmp_path)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])
        usage = capsys.readouterr().err.splitlines()[0]
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[0] == usage and usage.startswith("usage: ropealign [-h]")

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_help_shows_each_default(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        entries = {}  # first flag of each option -> its invocation and help on one line
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                flag = line.split()[0].rstrip(",")
                entries[flag] = line.strip()
            elif line.startswith("   ") and entries:
                entries[flag] += " " + line.strip()
        for key in CONFIG_KEYS[command]:
            entry = entries["--" + key.replace("_", "-")]
            default = DEFAULTS[key]
            if default is None:
                assert "(default" not in entry, key
            else:
                shown = default if isinstance(default, str) else json.dumps(default)
                assert entry.endswith(f"(default {shown})"), entry


class TestOutputDirOverride:
    """ROPEALIGN_OUTPUT_DIR reroutes relative output paths."""

    def test_env_dir_applies(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROPEALIGN_OUTPUT_DIR", str(tmp_path))
        rc = main([
            "simulate-decay", "--dim", "4", "--samples", "100", "--distances", "0,1",
            "--out", "decay.csv",
        ])
        assert rc == 0
        assert (tmp_path / "decay.csv").exists()

    def test_absolute_path_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ROPEALIGN_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "direct.csv"
        rc = main([
            "simulate-decay", "--dim", "4", "--samples", "100", "--distances", "0,1",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert not (tmp_path / "elsewhere").exists()


class TestDeterminism:
    """Identical flags and seeds give identical bytes."""

    # sha256 of the integer-only outputs of the 617-slot benchmark plan;
    # no libm call reaches them, so they hold on every machine.
    PINNED = {
        "plan.json": "054caf78d19adb4821910c4f996305dd38fcf85713b2fd67754157f1cbf2997f",
        "ids.json": "c18a7fb7d697e09be4348aa5763f6df45a1304b878c17363cc91c22c7e44bb70",
        "map.csv": "66f7d139590083cc96730e0f1fce135a193b22541691f88be993fa9062b0275a",
        "rep/distance_baseline.csv": "0447cbe94330f3378fc959aef98cf19d386a568478d6f7f1790ad26954ee2774",
        "rep/distance_id_align.csv": "4238d4aadd413a63f8fdac21ceb19a13a5ffb78e0174932cb5a699448c154665",
        "rep/gain_report.json": "617a29f04ac6ae78b9c5092286aeb2ac0c3396356594bb40e585589774f3ba17",
    }

    def test_integer_outputs_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ROPEALIGN_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main([
            "plan-layout", "--input", "336x672", "--candidates", "clip336", "--patch", "24",
            "--pre", "10", "--post", "5", "--out", "plan.json",
        ]) == 0
        assert main([
            "assign-ids", "--plan", "plan.json", "--out", "ids.json", "--mapping-csv", "map.csv",
        ]) == 0
        assert main([
            "attention-report", "--plan", "plan.json", "--pop", "gaussian:0.5:3", "--dense", "--out-dir", "rep",
        ]) == 0
        got = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in self.PINNED}
        assert got == self.PINNED

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        for sub in ("one", "two"):
            d = tmp_path / sub
            assert main([
                "simulate-decay", "--dim", "8", "--samples", "1500", "--distances", "0,4,32",
                "--seed", "9", "--out", str(d / "decay.csv"),
            ]) == 0
            assert main(["plan-layout", "--input", "672x672", "--out", str(d / "plan.json")]) == 0
            assert main(
                ["assign-ids"] + SMALL_PLAN_ARGS + ["--out", str(d / "ids.json")]
            ) == 0
            assert main(
                ["attention-report"] + SMALL_PLAN_ARGS
                + ["--dim", "8", "--pop", "gaussian:1.0:3", "--dense", "--out-dir", str(d / "rep")]
            ) == 0
        one, two = tmp_path / "one", tmp_path / "two"
        for rel in (
            "decay.csv",
            "plan.json",
            "ids.json",
            "rep/distance_baseline.csv",
            "rep/distance_id_align.csv",
            "rep/scores_baseline.csv",
            "rep/scores_id_align.csv",
            "rep/gain_report.json",
            "rep/summary_baseline.csv",
            "rep/summary_id_align.csv",
        ):
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_summaries_do_not_depend_on_run_or_blas_threads(tmp_path, capsys):
    """Default-output bytes are the same in process and in two fresh
    interpreters with one and two BLAS threads (205 slots)."""
    src = str(Path(ropealign.__file__).resolve().parents[1])
    argv = [
        "attention-report", "--input", "112x224", "--candidates", "112x224", "--vit", "112x112",
        "--patch", "14", "--pre", "3", "--post", "2", "--dim", "64", "--pop", "gaussian:0.5:3",
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "inproc")]) == 0
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
        env |= {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        out_dir = str(tmp_path / f"threads{threads}")
        subprocess.run(
            [sys.executable, "-m", "ropealign", *argv, "--out-dir", out_dir],
            env=env, check=True, capture_output=True,
        )  # fmt: skip
    outputs = [
        {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        for sub in ("inproc", "threads1", "threads2")
    ]
    assert set(outputs[0]) == {"summary_baseline.csv", "summary_id_align.csv", "gain_report.json"}
    assert outputs[0] == outputs[1] == outputs[2]


def test_scores_do_not_depend_on_blas_threads(tmp_path):
    """Score CSV bytes are the same whatever the BLAS thread count.

    Runs the same attention report in two fresh interpreters, one with a
    single BLAS thread and one with two (205 slots, large enough for a
    threaded BLAS to split the product).  On a one-core machine both runs
    use one thread and the check cannot tell the two apart.
    """
    src = str(Path(ropealign.__file__).resolve().parents[1])
    argv = [
        sys.executable, "-m", "ropealign", "attention-report",
        "--input", "112x224", "--candidates", "112x224", "--vit", "112x112",
        "--patch", "14", "--pre", "3", "--post", "2", "--dim", "64", "--pop", "gaussian:0.5:3",
        "--dense",
    ]
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
        env |= {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        out_dir = tmp_path / f"threads{threads}"
        subprocess.run(argv + ["--out-dir", str(out_dir)], env=env, check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert set(outputs[0]) >= {"scores_baseline.csv", "scores_id_align.csv"}
    assert outputs[0] == outputs[1]


class TestDocumentContract:
    """A malformed plan or config file exits 2 with one ``error:`` line
    naming the file, the segment where one applies, and the field."""

    @pytest.mark.parametrize("command", ["assign-ids", "attention-report"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"patch_size": 14}, "plan: segments is missing"),
            ({"segments": [{"kind": "text"}], "patch_size": 14}, "plan segment 0: len is missing"),
            ({"segments": "x", "patch_size": 14}, "plan: segments must be a list, got 'x'"),
            ({"segments": [1], "patch_size": 14}, "plan segment 0 must be a JSON object, got int"),
            ([1, 2], "plan must be a JSON object, got list"),
            (
                {"segments": [{"kind": "text", "len": 2}, {"kind": "text", "n": 3}], "patch_size": 14},
                "plan segment 1: len is missing",
            ),
            (
                {"segments": [{"kind": "text", "len": 2, "n": 3}], "patch_size": 14},
                "plan segment 0: unknown keys: n",
            ),
            ({"segments": [], "patch_size": 14, "version": 1}, "plan: unknown keys: version"),
            (
                {"segments": [{"kind": "audio"}], "patch_size": 14},
                "plan segment 0: kind must be one of",
            ),
        ],
    )
    def test_bad_plan_exits_2(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        out = "--out-dir" if command == "attention-report" else "--out"
        rc = main([command, "--plan", str(path), out, str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", " must be a JSON object, got list\n"),
            ('"x"', " must be a JSON object, got str\n"),
            ("{", ": Expecting property name enclosed in double quotes"),
            ('{"patch": 14.5}', ": patch must be an integer, got 14.5\n"),
            ('{"theta": "1e4"}', ": theta must be a number, got '1e4'\n"),
            ("[" * 100_000 + "]" * 100_000, ": maximum recursion depth exceeded"),
            ('{"theta": 1' + "0" * 400 + "}", ": theta must be a number, got 1000"),
            ('{"theta": 1e400}', ": theta must be a number, got inf\n"),
        ],
        ids=["list", "string", "truncated", "float-patch", "string-theta", "deep", "huge-theta", "inf-theta"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        command = "simulate-decay" if "theta" in text else "plan-layout"
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}{message}"), captured.err

    @pytest.mark.parametrize(
        "flag, text, key",
        [
            ("--plan", '{"segments": [], "patch_size": 14, "patch_size": 28}', "patch_size"),
            ("--plan", '{"segments": [{"kind": "text", "len": 2, "len": 3}], "patch_size": 14}', "len"),
            ("--config", '{"dim": 4, "dim": 8}', "dim"),
        ],
        ids=["plan", "segment", "config"],
    )
    def test_duplicate_key_exits_2(self, tmp_path, capsys, flag, text, key):
        """A key given twice is refused by name, at any depth, never read
        as its last value."""
        path = tmp_path / "in.json"
        path.write_text(text)
        if flag == "--plan":
            argv = ["assign-ids", "--plan", str(path), "--out", str(tmp_path / "o")]
        else:
            argv = ["simulate-decay", "--config", str(path), "--samples", "8", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: duplicate key: {key}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--plan", "--config"], ids=["plan", "config"])
    def test_non_utf8_input_file_named(self, tmp_path, capsys, flag):
        """A plan or config file is read as strict UTF-8 from its bytes, so
        a UTF-16 one (here ``{}`` after its byte-order mark) is refused
        with the file named, as any other bad input file is."""
        path = tmp_path / "in.json"
        path.write_bytes(b"\xff\xfe{}")
        command = "assign-ids" if flag == "--plan" else "plan-layout"
        assert main([command, flag, str(path), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ({"threads": 0}, ["--threads", "2"], "threads must be an integer of at least 1, got 0"),
            ({"seed": 1.5}, ["--seed", "3"], "seed must be an integer, got 1.5"),
        ],
        ids=["threads", "seed"],
    )
    def test_flag_does_not_hide_a_bad_config_value(self, tmp_path, capsys, doc, flags, message):
        """A config file is read whole, as a plan file is: a bad value in
        it is an error even where a flag overrides it."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate-decay", "--config", str(path), "--dim", "4", "--samples", "8", "--distances", "0"]
        assert main(argv + flags + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "segment, message",
        [
            ({"kind": "thumb", "rows": 0, "cols": 3}, "rows must be an integer of at least 1, got 0"),
            ({"kind": "thumb", "rows": 2, "cols": -1}, "cols must be an integer of at least 1, got -1"),
            ({"kind": "highres", "rows": -4, "cols": 3}, "rows must be an integer of at least 1, got -4"),
            ({"kind": "highres", "rows": 2, "cols": 0}, "cols must be an integer of at least 1, got 0"),
            ({"kind": "text", "len": 0}, "len must be an integer of at least 1, got 0"),
            ({"kind": "separator", "count": 0}, "count must be an integer of at least 1, got 0"),
        ],
        ids=["thumb-rows", "thumb-cols", "highres-rows", "highres-cols", "text-len", "separator-count"],
    )
    def test_plan_range_error_names_the_field(self, tmp_path, capsys, segment, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"segments": [{"kind": "text", "len": 1}, segment], "patch_size": 14}))
        assert main(["assign-ids", "--plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: plan segment 1: {message}\n"

    def test_deeply_nested_plan_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["assign-ids", "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: maximum recursion depth exceeded")


# sha256 of `ropealign [COMMAND] --help` at 80 columns.  Moving a spec
# parser into the option table must not change a byte of it.
HELP_SHA256 = {
    None: "abe08986ac69d926915db86aed56a532bf9d00dc9ebe0ce7ecf29cba1b33f397",
    "simulate-decay": "031dda26a559bf9cc70e7d80c4e761a1233661d98056e4207bb49fdcf273c2cf",
    "plan-layout": "2d0fc7d846eb5257194766fb614ba8420c6363897ce57f32d9a44fc2531425e1",
    "assign-ids": "509cac05f72671ea3de67fb1aa2df27ba0e131ba92597e8a89dc612fe5d2f5be",
    "attention-report": "719c22257acc3dec98e01df975d8a6380693b02885a0858434b00baadaefc054",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout varies by version")
@pytest.mark.parametrize("command", list(HELP_SHA256), ids=str)
def test_help_bytes_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def test_dense_csv_is_streamed(tmp_path, capsys):
    """Writing a dense CSV holds a line at a time, not the file's text:
    peak memory of the write, beyond the matrix already held, stays under
    a tenth of the file's size."""
    values = np.random.default_rng(0).standard_normal((400, 400))
    roles = ("highres",) * 400
    path = tmp_path / "scores.csv"
    tracemalloc.start()
    try:
        cli._emit(str(path), csv_lines(roles, (row.tolist() for row in values)))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == csv_text(roles, values.tolist())
    assert size > 3_000_000
    assert peak < size / 10, (peak, size)


def test_mapping_csv_is_written_a_chunk_at_a_time(tmp_path, capsys):
    """map.csv of a 400 x 5000 grid (2.0 M entries, six digits each) is
    written by ``int_chunks``, whose traced peak above what is held when
    writing starts (the grid among it) is at most 64 bytes per entry of
    one chunk: about 0.5 MB, where one kernel call on the whole grid
    takes about 65 MB."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"segments": [
        {"kind": "text", "len": 100_000}, {"kind": "thumb", "rows": 24, "cols": 24},
        {"kind": "highres", "rows": 400, "cols": 5000},
    ], "patch_size": 14}))  # fmt: skip
    peaks = []

    def measured(grid):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield from codec.int_chunks(grid)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)

    argv = ["assign-ids", "--plan", str(plan), "--mode", "id_align", "--out", str(tmp_path / "ids.json")]
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "int_chunks", measured):
            assert main(argv + ["--mapping-csv", str(tmp_path / "map.csv")]) == 0
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] <= 64 * codec._JSON_CHUNK, peaks
    with open(tmp_path / "map.csv") as f:
        first = f.readline()
        assert first.startswith("100000,100000,") and len(first) == 7 * 5000
        assert sum(1 for _ in f) == 399


def test_dense_report_holds_no_dense_matrix(tmp_path, capsys):
    """--dense streams both matrices from the score walk: on the 617-slot
    benchmark plan its peak traced memory is at most N^2 * 8 / 4 bytes, a
    quarter of one N x N float matrix, above the same run without it."""
    plan = tmp_path / "plan.json"
    assert main([
        "plan-layout", "--input", "336x672", "--candidates", "clip336", "--patch", "24",
        "--pre", "10", "--post", "5", "--out", str(plan),
    ]) == 0
    n = LayoutPlan.from_json(plan.read_text()).total_tokens
    assert n == 617
    argv = ["attention-report", "--plan", str(plan), "--pop", "gaussian:0.5:3", "--out-dir", str(tmp_path / "rep")]
    assert main(argv) == 0  # untraced warm-up: first-call allocations count in neither run
    peaks = []
    for extra in ([], ["--dense"]):
        tracemalloc.start()
        try:
            assert main(argv + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= n * n * 8 / 4, peaks


# The run behind each ``error:`` line that README quotes: its argv and the
# files it reads.  N in a quote is the slot count of the 2**40 x 2**40 grid.
_HUGE_PLAN = {"segments": [{"kind": "highres", "rows": 2**40, "cols": 2**40, "row_separator": False}], "patch_size": 14}
README_ERRORS = {
    "error: a plan of N slots cannot be allocated": (
        ["assign-ids", "--plan", "plan.json"], {"plan.json": json.dumps(_HUGE_PLAN)}
    ),
    "error: cfg.json: patch must be an integer, got 14.5": (
        ["plan-layout", "--config", "cfg.json"], {"cfg.json": '{"patch": 14.5}'}
    ),
    "error: cfg.json must be a JSON object, got list": (
        ["plan-layout", "--config", "cfg.json"], {"cfg.json": "[14]"}
    ),
    "error: input: bad resolution 'axb', expected HEIGHTxWIDTH": (["plan-layout", "--input", "axb"], {}),
    "error: plan.json: plan segment 0: len is missing": (
        ["assign-ids", "--plan", "plan.json"], {"plan.json": '{"segments":[{"kind":"text"}],"patch_size":14}'}
    ),
    "error: plan.json: plan segment 1: rows must be an integer of at least 1, got 0": (
        ["assign-ids", "--plan", "plan.json"],
        {"plan.json": '{"segments":[{"kind":"text","len":2},{"kind":"thumb","rows":0,"cols":2}],"patch_size":14}'},
    ),
    "error: --mapping-csv needs a plan with both grids": (
        ["assign-ids", "--plan", "plan.json", "--mapping-csv", "map.csv"], {"plan.json": json.dumps(_HUGE_PLAN)}
    ),
    "error: id_align mode requires a thumbnail grid before the high-resolution grid": (
        ["assign-ids", "--plan", "plan.json", "--mode", "id_align"],
        {"plan.json": '{"segments":[{"kind":"highres","rows":2,"cols":2},{"kind":"thumb","rows":1,"cols":1}],"patch_size":14}'},
    ),
    "error: distances: bad distance spec 'lin:0..10:100000000000000000000', "
    "expected log:A..B[:N], lin:A..B[:N] or a comma list": (
        ["simulate-decay", "--distances", "lin:0..10:100000000000000000000"], {}
    ),
    "error: input: height must be an integer from 1 to 9007199254740992, got 9007199254740993": (
        ["plan-layout", "--input", f"{2**53 + 1}x1"], {}
    ),
}  # fmt: skip


def readme_errors() -> list[str]:
    """Each `error: ...` quote in README, its line breaks as spaces."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [" ".join(quote.split()) for quote in re.findall(r"`(error: [^`]*)`", text)]


def test_every_readme_error_has_a_run():
    assert sorted(readme_errors()) == sorted(README_ERRORS)


@pytest.mark.parametrize("quote", readme_errors())
def test_readme_error_is_the_stderr(quote, tmp_path, monkeypatch, capsys):
    """Each error line README quotes is, byte for byte, what its run prints."""
    argv, files = README_ERRORS[quote]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == quote.replace(" N ", f" {2**80} ") + "\n"
