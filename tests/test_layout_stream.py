"""`edd solve` streams its layouts from the family's block structure; the
eager expansion it replaced, kept in `expansion_reference`, must print
the same bytes and exit with the same code."""

import contextlib
import functools
import io
import random

import pytest

import expansion_reference
from edd import cli
from edd.generator import InfeasibleParams, random_instance
from edd.instance import serialize_instance
from edd.solver import solve

from expansion_reference import reference_cmd_solve

FLAG_SETS = (
    ["--all"],
    ["--all", "--emit-families"],
    ["--all", "--max-solutions", "1"],
    ["--all", "--max-solutions", "3"],
    ["--json", "--all"],
)
PARSER = cli._build_parser()


@pytest.fixture(autouse=True)
def solve_once(monkeypatch):
    # both commands print from one solve() result per instance, so the
    # flag sets of an instance share it
    cached = functools.lru_cache(maxsize=1)(solve)
    monkeypatch.setattr(cli, "solve", cached)
    monkeypatch.setattr(expansion_reference, "solve", cached)


def _run(func, argv):
    args = PARSER.parse_args(argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = func(args, cli._Output(args.quiet, args.json))
    return code, buf.getvalue()


def assert_same_output(path, flag_sets=FLAG_SETS):
    """Stdout of every flag set, streamed and eager; returns the streamed ones."""
    outs = []
    for flags in flag_sets:
        argv = ["solve", str(path), *flags]
        got = _run(cli.cmd_solve, argv)
        assert got == _run(reference_cmd_solve, argv), argv
        outs.append(got)
    return outs


def test_small_instances_match_eager_reference(tmp_path):
    # the regime of test_expansion_order_matches_eager_reference, 400 seeds
    path = tmp_path / "small.edd"
    for seed in range(400):
        inst = random_instance(seed, 4, 5, 14, min_duplicates=2, max_retries=2000)[0]
        path.write_text(serialize_instance(inst))
        assert_same_output(path)


def multi_family_instances(count):
    found = []
    for seed in range(1, 2000):
        p, q = 3 + seed % 3, 3 + (seed // 3) % 3
        try:
            inst = random_instance(seed, p, q, p + q + 2 + seed % 4, min_duplicates=2)[0]
        except InfeasibleParams:
            continue
        if len(solve(inst)) >= 2:
            found.append(inst)
            if len(found) == count:
                return found
    raise AssertionError("too few multi-family instances")


def test_multi_family_budget_matches_eager_reference(tmp_path):
    # the --max-solutions budget carries across families, and a family it
    # cannot reach prints "truncated: true"
    path = tmp_path / "dup.edd"
    truncated = 0
    for inst in multi_family_instances(30):
        path.write_text(serialize_instance(inst))
        outs = assert_same_output(path)
        assert outs[0][1].count("assignment: ") >= 2
        truncated += "truncated: true" in outs[3][1]
    assert truncated


def layout_cut_map(tmp_path, seed: int, equal_pieces: bool) -> str:
    """A map of the all-layouts cut pattern, made with ``edd gen --cuts-a/--cuts-b``:
    runs of B cuts inside one A-fragment give blocks of 3, 4 and 5 pieces."""
    pattern = "ABBBBABABBBBBABABBBBBBABA"
    rng = random.Random(seed)
    lengths = rng.sample(range(1, 10**4), len(pattern) + 1)
    if equal_pieces:   # two pieces of the 5-block: 8,640 distinct layouts
        lengths[18] = lengths[17]
    cuts = {"A": [], "B": []}
    pos = 0
    for kind, length in zip(pattern, lengths):
        pos += length
        cuts[kind].append(str(pos))
    path = tmp_path / f"layouts-{seed}.edd"
    code = cli.main(["gen", "--total", str(pos + lengths[-1]), "--cuts-a", ",".join(cuts["A"]),
                     "--cuts-b", ",".join(cuts["B"]), "--out", str(path)])
    assert code == 0
    return path


@pytest.mark.parametrize("equal_pieces, layouts", [(True, 8640), (False, 10_000)])
def test_all_layouts_pattern_matches_eager_reference(tmp_path, equal_pieces, layouts):
    path = layout_cut_map(tmp_path, 3, equal_pieces)
    outs = assert_same_output(path, FLAG_SETS + (["--emit-families"], ["--json"]))
    code, text = outs[0]
    assert text.count("solution: ") == layouts
    # all 17,280 layouts are distinct without the equal pieces: the cap cuts them
    assert (code, "truncated: true" in text) == ((0, False) if equal_pieces else (3, True))
