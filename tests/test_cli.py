"""End-to-end tests of the command-line interface.

Each command runs through ``main`` with an argv list; outputs land in
pytest temp dirs and are compared byte for byte where determinism is
the contract.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ropealign
from ropealign import GridShape, LayoutPlan, Resolution, RopeConfig, decay_profile, harness, idalign
from ropealign import cli, codec
from ropealign.cli import main
from ropealign.codec import csv_lines, csv_text

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

    def test_threads_do_not_change_bytes_on_a_large_grid(self, tmp_path):
        """300 distances take three projection passes over each of three chunks."""
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
        (["simulate-decay", "--seed", "-1"], "seed", -1),
        (["simulate-decay", "--distances", "log:0..10:4:junk"], "distances", "log:0..10:4:junk"),
    ],
)
def test_bad_spec_names_option_and_spec(argv, key, spec, tmp_path, capsys):
    """A malformed spec string exits 2 with the option and the spec named."""
    out = "--out-dir" if argv[0] == "attention-report" else "--out"
    assert main(argv + [out, str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and repr(spec) in err, err
    assert not (tmp_path / "o").exists()


BAD_MU = "error: mu: bad mean preset {}, expected 'zeros' or 'ones:C'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["simulate-decay", "--mu", "ones:nan"], BAD_MU.format("'ones:nan'")),
        (["simulate-decay", "--distances", "3,1"], "error: distances must be strictly increasing\n"),
        (["simulate-decay", "--seed", "-1"], "error: seed: must be non-negative, got -1\n"),
        (["simulate-decay", "--threads", "0"], "error: threads must be at least 1, got 0\n"),
        (["plan-layout", "--patch", "0"], "error: patch_size must be positive\n"),
        (["simulate-decay", "--mu", "ones:inf"], BAD_MU.format("'ones:inf'")),
        (["simulate-decay", "--mu", "ones:-inf"], BAD_MU.format("'ones:-inf'")),
        (["simulate-decay", "--theta", "inf"], "error: theta must be a number, got inf\n"),
        (["simulate-decay", "--theta", "1e400"], "error: theta must be a number, got inf\n"),
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
    assert capsys.readouterr().err == f"error: {plan}: patch_size must be positive\n"
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


@pytest.mark.parametrize("spec, want", [("log:0..0", [0]), ("log:0..0:5", [0]), ("log:0..1", [0, 1])])
def test_log_distances_from_zero_stay_in_range(spec, want, tmp_path, capsys):
    """A log range from 0 keeps the exact 0 point and no distance past
    its end: ``log:0..0`` is 0 alone, in the spec and in the CSV rows."""
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

    @pytest.mark.parametrize("command", ["assign-ids", "attention-report"])
    @pytest.mark.parametrize("n", [10**15, 2**63 - 1])
    def test_unallocatable_plan_is_one_error_line(self, command, n, tmp_path):
        """A plan whose slots cannot be allocated exits 2 with one line
        naming the count: no MemoryError traceback, no empty "pop:" cause.
        A separate process, since the failure is an allocation."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"segments": [{"kind": "text", "len": n}], "patch_size": 14}))
        src = str(Path(ropealign.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "ROPEALIGN_OUTPUT_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ropealign", command, "--plan", str(plan_path)],
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

        for module in (cli, idalign, harness):
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
    "mu": 1.0,
}  # fmt: skip


class TestOptionTable:
    """One option table drives every subcommand's flags, config keys and help."""

    @staticmethod
    def subparsers() -> dict:
        parser = cli.build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

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
        others = set().union(*CONFIG_KEYS.values()) | {"config", "bogus"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(others | CONFIG_KEYS[command])))
        assert main([command, "--config", str(cfg)]) == 2
        unknown = ", ".join(sorted(others - CONFIG_KEYS[command]))
        assert capsys.readouterr().err == f"error: unknown config keys: {unknown}\n"

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_defaults(self, command):
        """``_merged`` holds each option's final value: the default, or for
        a spec string the default parsed, of exactly the default's type."""
        args = cli.build_parser().parse_args([command])
        got = cli._merged(args)
        want = {k: PARSED_DEFAULTS.get(k, DEFAULTS[k]) for k in CONFIG_KEYS[command]}
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}

    def test_main_calls_share_one_parser(self, monkeypatch, capsys):
        """The parser is built once per process, and a call's flags do not
        leak into the next call."""
        parsers = []
        real = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["plan-layout", "--pre", "3"]) == 0
        assert main(["plan-layout"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1] is cli.build_parser()
        counts = [json.loads(line) for line in capsys.readouterr().out.splitlines() if '"total"' in line]
        assert [c["text_tokens"] for c in counts] == [3, 0]

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
            ("[1]", "a config must be a JSON object, got list"),
            ('"x"', "a config must be a JSON object, got str"),
            ("{", "Expecting property name enclosed in double quotes"),
            ('{"patch": 14.5}', "patch must be an integer, got 14.5"),
            ('{"theta": "1e4"}', "theta must be a number, got '1e4'"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"theta": 1' + "0" * 400 + "}", "theta must be a number, got 1000"),
            ('{"theta": 1e400}', "theta must be a number, got inf\n"),
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
        assert captured.err.startswith(f"error: {path}: {message}"), captured.err


    @pytest.mark.parametrize(
        "segment, message",
        [
            ({"kind": "thumb", "rows": 0, "cols": 3}, "grid rows must be positive, got 0"),
            ({"kind": "thumb", "rows": 2, "cols": -1}, "grid cols must be positive, got -1"),
            ({"kind": "highres", "rows": -4, "cols": 3}, "grid rows must be positive, got -4"),
            ({"kind": "highres", "rows": 2, "cols": 0}, "grid cols must be positive, got 0"),
            ({"kind": "text", "len": 0}, "text segment length must be positive"),
            ({"kind": "separator", "count": 0}, "separator count must be positive"),
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
