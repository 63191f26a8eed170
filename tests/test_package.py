"""The package's public names, pinned: a change that adds or removes one
shows it in this file's diff; and the README's library tour and CLI
block, run."""

import re
import shlex
from pathlib import Path

import ropealign
from ropealign import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    # rope
    "RopeConfig", "rope_frequencies", "apply_rope", "apply_rope_many", "rope_dot",
    # decay
    "AbelReport", "DecayProfile", "abel_partial_sums", "abel_bound_check",
    "expected_dot_closed_form", "monte_carlo_expected_dot", "decay_profile",
    # layout
    "Resolution", "PaddedPlacement", "GridShape", "TextSegment", "ThumbnailGrid", "HighResGrid",
    "Separator", "LayoutPlan", "TokenCounts", "select_resolution", "fit_with_padding", "unpad_grid",
    "build_layout", "token_counts", "segment_ranges",
    # idalign
    "GridMapping", "PositionIdMap", "CorrespondencePair", "IdSpanReport", "map_highres_ids",
    "correspondence_oracle", "assign_position_ids", "id_span_report",
    # harness
    "TokenPopulation", "ScoreSummary", "ModeGeometry", "AlignmentGainReport", "population_constant",
    "population_gaussian", "score_blocks", "attention_scores", "attention_summary",
    "alignment_gain_report",
]  # fmt: skip


def test_public_names_pinned():
    assert ropealign.__all__ == PUBLIC
    assert all(hasattr(ropealign, name) for name in PUBLIC)


def test_readme_library_tour_runs(capsys):
    """The tour's Python block runs as written, and its asserts hold."""
    tour = README.read_text().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "rel_distance,mean_dot,stderr,samples" in capsys.readouterr().out


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each command of the CLI section's shell block, continuations
    joined, exits 0 in a fresh directory and writes the files it names."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("ropealign ")]
    assert [argv[1] for argv in commands] == list(cli._COMMANDS)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROPEALIGN_OUTPUT_DIR", raising=False)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        named = dict(zip(argv, argv[1:]))  # each flag -> the token after it
        paths = [named[flag] for flag in ("--out", "--mapping-csv") if flag in named]
        if "--out-dir" in named:
            names = ("gain_report.json", "summary_baseline.csv", "summary_id_align.csv")
            paths += [Path(named["--out-dir"]) / name for name in names]
        assert paths and all(Path(path).is_file() for path in paths), argv
