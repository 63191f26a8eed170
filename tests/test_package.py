"""The package's public names, pinned: a change that adds or removes one
shows it in this file's diff; and the README's library tour, run."""

import re
from pathlib import Path

import ropealign

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "rel_distance,mean_dot,stderr,samples" in capsys.readouterr().out
