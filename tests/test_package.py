"""The package's public names, pinned: a change that adds or removes one
shows it in this file's diff; each one read by a caller, no module
importing what it does not use, and hostile values at the public calls
each a ValueError naming the parameter; and the README's library tour and
CLI block, run."""

import ast
import dataclasses
import os
import platform
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import ropealign
from ropealign import (
    DecayProfile, GridMapping, GridShape, HighResGrid, LayoutPlan, PaddedPlacement, PositionIdMap,
    Resolution, RopeConfig, TextSegment, ThumbnailGrid, TokenPopulation, abel_bound_check, alignment_gain_report,
    apply_rope, apply_rope_many, assign_position_ids, attention_summary, build_layout, cli, codec,
    decay_profile, expected_dot_closed_form, id_span_report, layout, map_highres_ids,
    monte_carlo_expected_dot, population_constant, population_gaussian, rope_dot, score_blocks, select_resolution,
)  # fmt: skip

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = sorted((ROOT / "src" / "ropealign").glob("*.py"))

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
    "GridMapping", "PositionIdMap", "IdSpanReport", "map_highres_ids", "assign_position_ids",
    "id_span_report",
    # harness
    "TokenPopulation", "ScoreSummary", "ModeGeometry", "AlignmentGainReport", "population_constant",
    "population_gaussian", "score_blocks", "attention_summary", "alignment_gain_report",
]  # fmt: skip

# Public names that no code in src/ and no README example reads, each with
# its reason.  Test-only helpers belong in tests/oracles.py instead.
UNREAD_PUBLIC: dict[str, str] = {}


def test_public_names_pinned():
    assert ropealign.__all__ == PUBLIC
    assert all(hasattr(ropealign, name) for name in PUBLIC)


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute, outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_names(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # The package's own list splices the modules' lists, so it adds no string.
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def test_every_public_name_is_read():
    """Each name of a module's ``__all__`` is read somewhere in src/ outside
    its own ``def`` or ``class``, or in the README's tour or CLI block."""
    trees = {path.name: ast.parse(path.read_text()) for path in SRC}
    tour = _names_read(ast.parse(_readme_block("Library tour", "python")))
    readme = tour | set(re.findall(r"\w+", _readme_block("CLI", "sh")))
    unread = []
    for module, tree in trees.items():
        for name in _public_names(tree):
            own = next((n for n in tree.body if getattr(n, "name", None) == name), None)
            read = [_names_read(t, own if m == module else None) for m, t in trees.items()]
            if name not in readme.union(*read) and name not in UNREAD_PUBLIC:
                unread.append(f"{module}: {name}")
    assert unread == []


def test_no_unused_imports():
    """Every name a module imports is read in it or listed in its ``__all__``."""
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        read = _names_read(tree) | set(_public_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_only_codec_imports_operator():
    """``codec`` is the one home of typed reads, so no other module needs
    ``operator.index``."""
    importers = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "operator" for alias in node.names):
                importers.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                importers.append(path.name)
    assert importers == ["codec.py"]


def test_only_codec_reads_dtype_kinds():
    """``codec.read_array`` is the one reader of integer arrays, so no
    other module inspects an array's ``dtype.kind``."""
    readers = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kind" and getattr(node.value, "attr", None) == "dtype":
                readers.append(path.name)
    assert set(readers) == {"codec.py"}


def test_only_codec_copies_arrays():
    """``codec.read_array`` owns the one rule of who may change a held
    array, so no other module copies one to own it."""
    copiers = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "copy":
                copiers.append(path.name)
    assert copiers == ["codec.py"]


def test_only_codec_allocating_catches_memory_errors():
    """``codec.allocating`` is the one rule of an array too large for its
    inputs; ``cli._parse`` only names the option whose spec failed."""
    catchers = set()
    for path in SRC:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                handlers = [node for node in ast.walk(func) if isinstance(node, ast.ExceptHandler) and node.type]
                if any("MemoryError" in ast.unparse(handler.type) for handler in handlers):
                    catchers.add((path.name, func.name))
    assert catchers == {("codec.py", "allocating"), ("cli.py", "_parse")}


def test_only_idalign_decides_which_maps_a_plan_has():
    """``idalign._has_aligned_map`` is the one home of ID-Align's order
    rule: only ``idalign`` states its message or finds where a grid sits
    among a plan's segments (``segments.index``)."""
    homes = set()
    for path in SRC:
        text = path.read_text()
        if "requires a thumbnail grid before the high-resolution grid" in text:
            homes.add(path.name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "index":
                if ast.unparse(node.func.value).endswith("segments"):
                    homes.add(path.name)
    assert homes == {"idalign.py"}


def test_allocating_refuses_entries_past_the_address_space_before_its_block():
    ran = []
    with pytest.raises(ValueError, match=r"^a plan of 3 slots at dim 10\*\*30 cannot be allocated$"):
        with codec.allocating("a plan of 3 slots at dim 10**30", 3 * 10**30):
            ran.append(True)
    assert ran == []
    with codec.allocating("all of it", sys.maxsize // 8):  # the most the check lets through
        ran.append(True)
    assert ran == [True]


def test_allocating_names_a_memory_error_re_raised_from_a_worker():
    def no_room():
        raise MemoryError("Unable to allocate 8.00 EiB")

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError, match="^a grid of 2 points at dim 4 cannot be allocated$") as caught:
            with codec.allocating("a grid of 2 points at dim 4", 8):
                pool.submit(no_room).result()
    assert caught.value.__cause__ is None and caught.value.__suppress_context__


def test_allocating_passes_an_inner_scope_error_through():
    with pytest.raises(ValueError, match="^a plan of 3 slots cannot be allocated$"):
        with codec.allocating("a plan of 3 slots at dim 4", 12):
            with codec.allocating("a plan of 3 slots", 3):
                raise MemoryError
    with pytest.raises(ValueError, match="^not a size$"):  # any other error is not the rule's
        with codec.allocating("a plan of 3 slots", 3):
            raise ValueError("not a size")


_ONES = np.ones(4)
_NAN = np.array([1.0, np.nan, 0.0, 0.0])
_CONFIG = RopeConfig(4)
# A plan of two slots, a thumbnail and a high-res cell, and maps of a plan of three.
_TWO_SLOTS = LayoutPlan((ThumbnailGrid(GridShape(1, 1)), HighResGrid(GridShape(1, 1), False)), 14)
_THREE_SLOTS = LayoutPlan((TextSegment(1), *_TWO_SLOTS.segments), 14)
_REPORTS = {"id_span_report": id_span_report, "alignment_gain_report": alignment_gain_report}
_WRONG_MAPS = {  # each: the parameter, and what is passed for it
    "3-slot-baseline": ("baseline", assign_position_ids(_THREE_SLOTS, "baseline")),
    "id_align-as-baseline": ("baseline", assign_position_ids(_TWO_SLOTS, "id_align")),
    "ids-as-baseline": ("baseline", np.arange(2)),
    "3-slot-id_align": ("id_align", assign_position_ids(_THREE_SLOTS, "id_align")),
    "baseline-as-id_align": ("id_align", assign_position_ids(_TWO_SLOTS, "baseline")),
}
_MAPS = {mode: assign_position_ids(_TWO_SLOTS, mode) for mode in ("baseline", "id_align")}
_POP = population_gaussian(_TWO_SLOTS, _CONFIG)
_SQUARE = Resolution(336, 336)
_LAYOUT_ARGS = (0, _SQUARE, [_SQUARE], _SQUARE, 14, 0)  # the required arguments of build_layout
HOSTILE = {
    "theta_base=10**400": (lambda: RopeConfig(4, 10**400), "theta_base"),
    "theta_base='1e4'": (lambda: RopeConfig(4, "1e4"), "theta_base"),
    "abel-nan-q": (lambda: abel_bound_check(_NAN, _ONES, 1, _CONFIG), "q"),
    "apply_rope-nan": (lambda: apply_rope(_NAN, 1, _CONFIG), "v"),
    "apply_rope_many-nan": (lambda: apply_rope_many(_NAN[None], [1], _CONFIG), "vectors"),
    "apply_rope_many-position=nan": (lambda: apply_rope_many(_ONES[None], [np.nan], _CONFIG), "positions"),
    "apply_rope_many-2-positions-1-row": (lambda: apply_rope_many(_ONES[None], [1, 2], _CONFIG), "positions"),
    "apply_rope_many-position=True": (lambda: apply_rope_many(_ONES[None], True, _CONFIG), "positions"),
    "apply_rope_many-positions=[True]": (lambda: apply_rope_many(_ONES[None], [True], _CONFIG), "positions"),
    "apply_rope_many-ragged-positions": (
        lambda: apply_rope_many(np.ones((2, 4)), [[1], [1, 2]], _CONFIG), "positions"
    ),
    "apply_rope_many-ragged-vectors": (
        lambda: apply_rope_many([np.zeros((2, 2)), np.zeros((2, 3))], 0, RopeConfig(2)), "vectors"
    ),
    "closed-form-m=2**60": (lambda: expected_dot_closed_form(_ONES, _ONES, 2**60, _CONFIG), "m"),
    "abel-delta=2**60": (lambda: abel_bound_check(_ONES, _ONES, 2**60, _CONFIG), "delta"),
    "base=2.5": (lambda: map_highres_ids(GridShape(1, 1), GridShape(2, 2), base=2.5), "base"),
    "base=True": (lambda: map_highres_ids(GridShape(1, 1), GridShape(2, 2), base=True), "base"),
    "base=2**70": (lambda: map_highres_ids(GridShape(1, 1), GridShape(2, 2), base=2**70), "base"),
    "seed=1.5": (
        lambda: population_gaussian(LayoutPlan((TextSegment(2),), 14), _CONFIG, seed=1.5), "seed"
    ),
    "population-seed=-1": (
        lambda: population_gaussian(LayoutPlan((TextSegment(2),), 14), _CONFIG, seed=-1), "seed"
    ),
    # Population inputs: a bool, a string or a non-finite number is never a coordinate.
    **{
        f"population_constant-value={case}": (lambda v=v: population_constant(_TWO_SLOTS, _CONFIG, v), "value")
        for case, v in {"True": True, "'2.5'": "2.5", "10**400": 10**400, "nan": np.nan, "inf": np.inf}.items()
    },
    **{
        f"population_gaussian-mean={case}": (lambda m=m: population_gaussian(_TWO_SLOTS, _CONFIG, mean=m), "mean")
        for case, m in {"True": True, "'x'": "x", "nan": np.nan, "-inf": -np.inf}.items()
    },
    "decay_profile-seed=-1": (
        lambda: decay_profile(_ONES, _ONES, [0], samples=8, seed=-1, config=_CONFIG), "seed"
    ),
    "monte-carlo-seed=-1": (
        lambda: monte_carlo_expected_dot(_ONES, _ONES, 0, samples=8, seed=-1, config=_CONFIG), "seed"
    ),
    "offset=1.5": (
        lambda: PaddedPlacement(Resolution(10, 10), Resolution(8, 8), offset_top=1.5, offset_left=1),
        "offset_top",
    ),
    "apply_rope-m=nan": (lambda: apply_rope(_ONES, float("nan"), _CONFIG), "m"),
    "apply_rope-m=10**400": (lambda: apply_rope(_ONES, 10**400, _CONFIG), "m"),
    "select_resolution-tuple": (
        lambda: select_resolution((336, 336), [Resolution(336, 336)]), "input"
    ),
    # A pixel side past 2**53 is not exact as a float, and past the float range not one at all.
    "Resolution-height=10**320": (lambda: Resolution(10**320, 1), "height"),
    "Resolution-width=10**320": (lambda: Resolution(1, 10**320), "width"),
    "Resolution-height=2**53+1": (lambda: Resolution(2**53 + 1, 1), "height"),
    "integer-roles": (lambda: TokenPopulation(np.zeros((2, 4)), (1, 2)), "roles"),
    "thumbnail-tuple-shape": (lambda: ThumbnailGrid((3, 4)), "shape"),
    "rope_dot-n=nan": (lambda: rope_dot(_ONES, 0, _ONES, float("nan"), _CONFIG), "n"),
    "rope_dot-nan-q": (lambda: rope_dot(_NAN, 0, _ONES, 1, _CONFIG), "q"),
    "rope_dot-nan-k": (lambda: rope_dot(_ONES, 0, _NAN, 1, _CONFIG), "k"),
    "decay-profile-distance=-5": (
        lambda: DecayProfile(distances=(-5, 1), mean_dot=(0.0, 0.0), stderr=(0.0, 0.0), sample_count=2),
        "distances",
    ),
    **{
        f"{name}-{case}": (lambda r=report, p=param, m=given: r(_TWO_SLOTS, **{p: m}), param)
        for name, report in _REPORTS.items()
        for case, (param, given) in _WRONG_MAPS.items()
    },
    **{
        f"{name}-plan='x'": (lambda r=report: r("x"), "plan") for name, report in _REPORTS.items()
    },
    # Each library flag, given as a value that Python reads as true but is not a bool.
    "score_blocks-normalize='false'": (
        lambda: score_blocks(_POP, _MAPS["baseline"], _CONFIG, normalize="false"), "normalize"
    ),
    "score_blocks-scale=1": (lambda: score_blocks(_POP, _MAPS["baseline"], _CONFIG, scale=1), "scale"),
    "attention_summary-normalize='false'": (
        lambda: attention_summary(_POP, _MAPS["baseline"], _CONFIG, normalize="false"), "normalize"
    ),
    "attention_summary-scale=1": (lambda: attention_summary(_POP, _MAPS["baseline"], _CONFIG, scale=1), "scale"),
    "select_resolution-cap_effective_at_input='no'": (
        lambda: select_resolution(_SQUARE, [_SQUARE], cap_effective_at_input="no"), "cap_effective_at_input"
    ),
    "build_layout-cap_effective_at_input='no'": (
        lambda: build_layout(*_LAYOUT_ARGS, cap_effective_at_input="no"), "cap_effective_at_input"
    ),
    "build_layout-thumbnail_first='no'": (lambda: build_layout(*_LAYOUT_ARGS, thumbnail_first="no"), "thumbnail_first"),
    "build_layout-row_separators=np.True_": (
        lambda: build_layout(*_LAYOUT_ARGS, row_separators=np.True_), "row_separators"
    ),
    # Float arrays, read by codec.read_array's one entry rule: a bool or a string is never a number.
    "apply_rope_many-vectors='1'": (lambda: apply_rope_many([["1", "0", "0", "0"]], 0, _CONFIG), "vectors"),
    "TokenPopulation-vectors=[[True]]": (lambda: TokenPopulation(vectors=[[True]], roles=("text",)), "vectors"),
    "closed-form-mu_q=True": (lambda: expected_dot_closed_form([True] * 4, _ONES, 0, _CONFIG), "mu_q"),
    "decay_profile-mu_k='1'": (
        lambda: decay_profile(_ONES, ["1"] * 4, [0], samples=4, seed=0, config=_CONFIG), "mu_k"
    ),
    "abel-q=True": (lambda: abel_bound_check([True] * 4, _ONES, 1, _CONFIG), "q"),
    "TokenPopulation-vectors=bool-array": (
        lambda: TokenPopulation(vectors=np.ones((1, 4), bool), roles=("text",)), "vectors"
    ),
    "apply_rope_many-vectors=datetime64[ns]": (
        lambda: apply_rope_many(np.zeros((1, 4), "datetime64[ns]"), 0, _CONFIG), "vectors"
    ),
    # Integer arrays, each read by codec.read_array: a bool or float is never an integer.
    "apply_rope_many-positions=[1, True]": (lambda: apply_rope_many(np.ones((2, 4)), [1, True], _CONFIG), "positions"),
    "apply_rope_many-positions=[7.0]": (lambda: apply_rope_many(_ONES[None], [7.0], _CONFIG), "positions"),
    "PositionIdMap-ids=[1, True]": (lambda: PositionIdMap(ids=[1, True], mode="baseline"), "ids"),
    "PositionIdMap-ids=[2**63]": (lambda: PositionIdMap(ids=[2**63], mode="baseline"), "ids"),
    **{
        f"GridMapping-ids={case}": (lambda ids=ids: GridMapping(GridShape(1, 1), ids, 0), "ids")
        for case, ids in {
            "[[1.5]]": np.array([[1.5]]), "[[True]]": np.array([[True]]), "[[nan]]": np.array([[np.nan]]),
            "list-[[-1]]": [[-1]],  # a list: once an AttributeError, as [[1]] was (now a 1x1 grid)
        }.items()
    },
    "GridMapping-shape=(1, 1)": (lambda: GridMapping((1, 1), np.array([[1]]), 0), "shape"),
    # A sequence argument that is no sequence, once a TypeError naming nothing.
    "select_resolution-candidates=5": (lambda: select_resolution(_SQUARE, 5), "candidates"),
    "build_layout-candidates=5": (lambda: build_layout(0, _SQUARE, 5, _SQUARE, 14, 0), "candidates"),
    "TokenPopulation-roles=5": (lambda: TokenPopulation(np.zeros((2, 4)), roles=5), "roles"),
    "LayoutPlan-segments=5": (lambda: LayoutPlan(5, 14), "segments"),
    # An integer past Python's limit on the digits of its repr, once a ValueError naming nothing.
    "PositionIdMap-ids=[-10**5000]": (lambda: PositionIdMap(ids=[-(10**5000)], mode="baseline"), "ids"),
    "theta_base=10**5000": (lambda: RopeConfig(4, 10**5000), "theta_base"),
    "apply_rope-m=10**5000": (lambda: apply_rope([1.0, 0.0], 10**5000, RopeConfig(2)), "m"),
    **{  # both maps given, so nothing else reads the policy
        f"{name}-policy='drop'": (lambda r=report: r(_TWO_SLOTS, "drop", **_MAPS), "separator_policy")
        for name, report in _REPORTS.items()
    },
}


def test_segment_kinds_read_every_field():
    """Each segment kind's READS names exactly its dataclass fields, in
    order, so a new kind cannot skip the read of one."""
    for cls in layout.SEGMENT_KINDS.values():
        assert list(cls.READS) == [f.name for f in dataclasses.fields(cls)], cls.KIND


@pytest.mark.parametrize("call, name", HOSTILE.values(), ids=HOSTILE)
def test_hostile_value_is_a_value_error_naming_it(call, name):
    """Each of these once returned NaNs or a wrong result, or raised
    OverflowError or TypeError."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


@pytest.mark.parametrize("form", [list, tuple, iter, lambda xs: np.array(xs, object)], ids=["list", "tuple", "iter", "array"])
def test_sequence_arguments_take_any_iterable(form):
    """A sequence argument read as ``Iterable`` takes any iterable of its
    entries: a list, a tuple, an iterator or an object array."""
    assert select_resolution(_SQUARE, form([Resolution(336, 672), _SQUARE])) == _SQUARE
    assert TokenPopulation(np.zeros((2, 4)), roles=form(["text", "image"])).roles == ("text", "image")
    assert LayoutPlan(form([TextSegment(1), TextSegment(2)]), 14).total_tokens == 3


def test_readme_library_tour_runs(capsys):
    """The tour's Python block runs as written, and its asserts hold."""
    code = _readme_block("Library tour", "python")
    exec(compile(code, "README.md", "exec"), {})
    assert "rel_distance,mean_dot,stderr,samples" in capsys.readouterr().out


def _readme_commands() -> list[list[str]]:
    """The argv of each command of the CLI section's shell block,
    continuations joined."""
    block = _readme_block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.startswith("ropealign ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Each command of the CLI section's shell block exits 0 in a fresh
    directory and writes the files it names."""
    commands = _readme_commands()
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


# Flags appended to the README's commands, where the last of a repeated
# flag wins, so that each environment's run takes about a second: 1000
# samples, and a 42-pixel patch (a 351-slot plan of the same layout).
_REDUCED = {"simulate-decay": ["--samples", "1000"], "plan-layout": ["--patch", "42"]}
# The outputs whose bytes no SIMD level or BLAS kernel moves today, and the
# summaries, which the SIMD level moves (ROADMAP item 18) and the BLAS does not.
_PORTABLE = ("plan.json", "ids.json", "map.csv", "report/gain_report.json")
_SUMMARIES = ("report/summary_baseline.csv", "report/summary_id_align.csv")
_VARIED = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")


def _readme_run(where: Path, env: dict[str, str]) -> dict[str, bytes]:
    """Each README command, reduced, in a fresh interpreter with ``env``
    over this one's environment less the varied settings, in the fresh
    directory ``where``: each command's stdout and the outputs' bytes."""
    child = {k: v for k, v in os.environ.items() if k not in (*_VARIED, "ROPEALIGN_OUTPUT_DIR")} | env
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), child.get("PYTHONPATH")]))
    out = {}
    for argv in _readme_commands():
        argv = [sys.executable, "-m", "ropealign", *argv[1:], *_REDUCED.get(argv[1], [])]
        proc = subprocess.run(argv, env=child, cwd=where, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        out[f"stdout of {argv[3]}"] = proc.stdout
    return out | {name: (where / name).read_bytes() for name in _PORTABLE + _SUMMARIES}


@pytest.fixture(scope="module")
def default_readme_run(tmp_path_factory):
    return _readme_run(tmp_path_factory.mktemp("default"), {})


def _other_environment(kind: str) -> tuple[dict[str, str], tuple[str, ...]]:
    """The settings of one varied environment, and the outputs compared
    under it: every dispatched SIMD level but the lowest disabled, or
    another OpenBLAS kernel on one BLAS thread."""
    if kind == "simd":
        from numpy._core import _multiarray_umath as umath

        found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
        return {"NPY_DISABLE_CPU_FEATURES": " ".join(found[1:])}, _PORTABLE
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}).get("name", "")
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS, so OPENBLAS_CORETYPE picks nothing")
    core = {"x86_64": "Sandybridge", "AMD64": "Sandybridge", "aarch64": "ARMV8"}.get(platform.machine())
    if core is None:
        pytest.skip(f"no second OpenBLAS kernel is named for a {platform.machine()} CPU")
    return {"OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1"}, _PORTABLE + _SUMMARIES


@pytest.mark.parametrize("kind", ["simd", "blas"])
def test_readme_outputs_equal_across_environments(kind, default_readme_run, tmp_path):
    """The README's commands, reduced, give the same stdout and portable
    outputs in fresh interpreters under the default environment and under
    each varied one.  Under another BLAS kernel on one BLAS thread the
    summaries, whose two modes are summed on two threads at once, are the
    same bytes too."""
    env, compared = _other_environment(kind)
    run = _readme_run(tmp_path, env)
    for name in [key for key in run if key.startswith("stdout of ")] + list(compared):
        assert run[name] == default_readme_run[name], name
