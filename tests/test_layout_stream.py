"""`edd solve` streams its layouts from the family's block structure; the
eager expansion it replaced, kept in `expansion_reference`, must print
the same bytes and exit with the same code."""

import contextlib
import functools
import io
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import expansion_reference
from edd import cli, solver
from edd.generator import InfeasibleParams, random_instance
from edd.instance import EddInstance, serialize_instance
from edd.solver import solve

from expansion_reference import reference_cmd_solve, reference_family_notation

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


def layout_cut_map(tmp_path, seed: int, equal_pieces: bool, runs=(4, 5, 6)) -> str:
    """A map of the all-layouts cut pattern, made with ``edd gen --cuts-a/--cuts-b``:
    a run of r B cuts inside one A-fragment gives a block of r - 1 pieces, so
    the default runs give blocks of 3, 4 and 5 pieces."""
    pattern = "A" + "ABA".join("B" * r for r in runs) + "ABA"
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


@pytest.mark.parametrize("equal_pieces", [True, False])
def test_group_edges_match_eager_reference(tmp_path, equal_pieces):
    # the last block has 60 orders (120 without the equal pieces): caps around
    # one and two passes through it, and one short of every layout
    path = layout_cut_map(tmp_path, 3, equal_pieces)
    caps = ("59", "60", "61", "119", "8639")
    assert_same_output(path, [[*json, "--all", "--max-solutions", cap]
                              for cap in caps for json in ([], ["--json"])])


def test_two_order_last_block_matches_eager_reference(tmp_path):
    # blocks of 2, 3, 3, 3, 3 and 2 pieces: every combination of the five
    # blocks before the last prints two layouts
    path = layout_cut_map(tmp_path, 5, False, runs=(3, 4, 4, 4, 4, 3))
    (_aid, fam), = solve(cli._load_instance(str(path)))
    assert fam.block_sizes() == (2, 3, 3, 3, 3, 2)
    outs = assert_same_output(path, FLAG_SETS + (["--all", "--max-solutions", "5183"],))
    assert outs[0][1].count("solution: ") == 2 * 6**4 * 2


@pytest.mark.parametrize("runs", [(4, 5, 6), (6, 5, 4)])
@pytest.mark.parametrize("group_layouts, batch_chars", [(1, 1), (2, 700), (64, 1 << 16), (10**6, 1 << 20)])
def test_runs_and_batches_match_eager_reference(tmp_path, monkeypatch, runs, group_layouts, batch_chars):
    # the cut pattern both ways round, so the last block has 120 or 6 orders;
    # inner blocks from none to all but the first, batches from one record up
    monkeypatch.setattr(solver, "GROUP_LAYOUTS", group_layouts)
    monkeypatch.setattr(cli, "_BATCH_CHARS", batch_chars)
    path = layout_cut_map(tmp_path, 3, False, runs=runs)
    assert_same_output(path, [[*json, "--all", "--max-solutions", cap]
                              for cap in ("127", "3001") for json in ([], ["--json"])])


def test_text_kernel_matches_str_join():
    rng = np.random.default_rng(17)
    for size in (0, 1, 2, 3, 5, 1000, 20_000):
        values = rng.integers(1, 2**63 - 1, size=size, dtype=np.int64, endpoint=True)
        values >>= rng.integers(0, 63, size=size)   # every digit count from 1 to 19
        values[:2] = [1, 2**63 - 1][:size]
        for given in (values.tolist(), tuple(values.tolist())):
            assert cli._text(given) == " ".join(map(str, given))
    assert cli._text(range(7, 12)) == "7 8 9 10 11"


NOTATION_SPANS = {
    "no block": (4, []),
    "one value": (1, []),
    "a block at position 0": (5, [(0, 2)]),
    "a block at the end": (5, [(3, 5)]),
    "two adjacent blocks": (7, [(1, 3), (3, 6)]),
    "blocks side by side over all": (6, [(0, 2), (2, 4), (4, 6)]),
    "one block over all": (4, [(0, 4)]),
    "a one-value block": (3, [(1, 2)]),
}


@pytest.mark.parametrize("case", NOTATION_SPANS)
def test_family_notation_matches_token_reference(case):
    size, spans = NOTATION_SPANS[case]
    rng = random.Random(size)
    values = ([1, 2**63 - 1] + [rng.randrange(1, 10**rng.randint(1, 18)) for _ in range(size)])[:size]
    fam = SimpleNamespace(block_starts=np.array([s for s, _e in spans], dtype=np.int64),
                          block_ends=np.array([e for _s, e in spans], dtype=np.int64))
    assert cli._family_notation(fam, values) == reference_family_notation(fam, values)


def test_star_map_notation_matches_eager_reference(tmp_path):
    # one block spanning the whole family
    leaves = (2**63 - 1 - 2**62, 1, *range(2, 12))
    path = tmp_path / "star.edd"
    path.write_text(serialize_instance(
        EddInstance((sum(leaves),), leaves, (leaves,), tuple((v,) for v in leaves))))
    outs = assert_same_output(path, [["--emit-families"], ["--json", "--emit-families"],
                                     ["--all", "--emit-families", "--max-solutions", "7"]])
    assert f"family: [1 2 3 4 5 6 7 8 9 10 11 {leaves[0]}]" in outs[0][1]


def test_each_reached_block_order_is_made_once(tmp_path, monkeypatch):
    calls = []
    step = solver._next_permutation
    monkeypatch.setattr(solver, "_next_permutation", lambda arr: calls.append(1) or step(arr))
    code, text = _run(cli.cmd_solve, ["solve", str(layout_cut_map(tmp_path, 3, True)), "--all"])
    assert (code, text.count("solution: ")) == (0, 8640)
    assert len(calls) == 5 + 23 + 59   # 6, 24 and 60 orders: one step to each after the first


@pytest.mark.parametrize("equal_pieces, code", [(True, 0), (False, 3)])
def test_quiet_builds_no_text(tmp_path, monkeypatch, capsys, equal_pieces, code):
    # the exit code needs only len() and truncated, known before any layout
    def refuse(*args):
        raise AssertionError("--quiet built layout or family text")

    for name in ("_write_layouts", "_layout_tokens", "_family_notation", "_family_slots"):
        monkeypatch.setattr(cli, name, refuse)
    path = str(layout_cut_map(tmp_path, 3, equal_pieces))
    for flags in (["--all", "--emit-families"], ["--json", "--all", "--emit-families"]):
        assert cli.main(["solve", path, "--quiet", *flags]) == code
    assert capsys.readouterr() == ("", "")


class _CountingSink:
    """Counts what is written to it.  Its first write, "status: ok" after
    the solve, resets the traced peak, so the peak covers printing."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        if not self.chars:
            tracemalloc.reset_peak()
        self.chars += len(text)
        return len(text)


def _printing_peak(path, cap: int) -> int:
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["solve", str(path), "--all", "--max-solutions", str(cap)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and sink.chars > cap * 10_000
    return peak


def test_printing_memory_does_not_grow_with_the_cap(tmp_path):
    # one block of 1,000 pieces: each layout is a new order of it, about 15 kB of text
    leaves = tuple(random.Random(5).sample(range(10**9, 10**10), 1000))
    inst = EddInstance((sum(leaves),), leaves, (leaves,), tuple((v,) for v in leaves))
    path = tmp_path / "star.edd"
    path.write_text(serialize_instance(inst))
    assert _printing_peak(path, 400) < 1.5 * _printing_peak(path, 200)
