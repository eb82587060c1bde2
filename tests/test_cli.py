import json
import math
import subprocess
import sys

import pytest

from edd.cli import main
from edd.generator import random_instance
from edd.instance import EddInstance, serialize_instance

from conftest import DEMO_TEXT, deep_subtree_instance, dup_instance


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.edd"
    path.write_text(DEMO_TEXT)
    return str(path)


@pytest.fixture
def dup_file(tmp_path):
    path = tmp_path / "dup.edd"
    path.write_text(serialize_instance(dup_instance()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_ok(capsys, demo_file):
    code, out = run(capsys, "check", demo_file)
    assert code == 0 and out == "ok\n"


def test_check_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad.edd"
    path.write_text(DEMO_TEXT.replace("AB 1 3 6", "AB 1 3 7"))
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[0].startswith("SUM_A:")
    assert "UNION_MISMATCH:" in out


def test_check_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "syntax.edd"
    path.write_text("EDD 1\nA x\n")
    code, _out = run(capsys, "check", str(path))
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _out = run(capsys, "check", "/nonexistent/file.edd")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["check", "{dir}"],
    ["check", "{binary}"],
    ["solve", "{binary}"],
    ["verify", "{demo}", "--orders", "{dir}"],
    ["solve", "{demo}", "--dump-graph", "{dir}"],
    ["gen", "--total", "100", "--seed", "1", "--p", "3", "--q", "3", "--out", "{dir}"],
])
def test_unreadable_files_exit_2(capsys, demo_file, tmp_path, argv):
    binary = tmp_path / "latin1.edd"
    binary.write_bytes(DEMO_TEXT.encode() + b"# caf\xe9, in Latin-1\n")
    names = {"dir": str(tmp_path), "binary": str(binary), "demo": demo_file}
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_solve_demo_default_golden(capsys, demo_file):
    code, out = run(capsys, "solve", demo_file)
    assert code == 0
    assert out == (
        "status: ok\n"
        "assignments: 1\n"
        "assignment: 0\n"
        "solution: 1\n"
        "piA: 9 12 15 37 17\n"
        "piB: 6 38 46\n"
        "paIdx: 1 2 3 5 4\n"
        "pbIdx: 1 2 3\n"
    )


def test_solve_demo_all_families_golden(capsys, demo_file):
    code, out = run(capsys, "solve", demo_file, "--all", "--emit-families")
    assert code == 0
    lines = out.splitlines()
    assert "family: 6 3 [12 15] 8 29 17" in lines
    assert lines.count("piB: 6 38 46") == 2
    assert "piA: 9 15 12 37 17" in lines


def test_solve_dup_shows_assignment(capsys, dup_file):
    code, out = run(capsys, "solve", dup_file, "--emit-families")
    assert code == 0
    lines = out.splitlines()
    assert "assignments: 2" in lines
    assert "assignment: 0" in lines
    assert "family: [4 8] 7 6 [5 7]" in lines


def test_solve_unsolvable_reason(capsys, tmp_path):
    path = tmp_path / "deep.edd"
    path.write_text(serialize_instance(deep_subtree_instance()))
    code, out = run(capsys, "solve", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status: no-solution"
    assert lines[1] == "reason: DEEP_SUBTREE"
    assert lines[2].startswith("witness: C")


def test_solve_truncation_exit_3(capsys, dup_file):
    code, out = run(capsys, "solve", dup_file, "--all", "--max-solutions", "2")
    assert code == 3
    assert "truncated: true" in out


def test_solve_json_mirrors_human(capsys, demo_file):
    code, out = run(capsys, "solve", demo_file, "--all", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["assignmentsTried"] == 1
    fam = data["families"][0]
    assert fam["assignment"] == 0
    assert fam["expansionCount"] == 2
    assert fam["expansionCountLog10"] == pytest.approx(math.log10(2))
    assert fam["family"] == [
        {"fixed": 6}, {"fixed": 3},
        {"block": [12, 15], "attachment": "B2"},
        {"fixed": 8}, {"fixed": 29}, {"fixed": 17}]
    assert [s["piA"] for s in fam["solutions"]] == [
        [9, 12, 15, 37, 17], [9, 15, 12, 37, 17]]
    assert fam["solutions"][0]["piC"] == [6, 3, 12, 15, 8, 29, 17]


def test_solve_dump_graph(capsys, demo_file, tmp_path):
    dump = tmp_path / "graph.txt"
    code, _out = run(capsys, "solve", demo_file, "--dump-graph", str(dump))
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 14
    assert "B2 C12#1" in lines


@pytest.mark.parametrize("flags", [
    ("--max-assignments", "-3"),
    ("--max-assignments", "0"),
    ("--max-solutions", "-1"),
])
def test_solve_rejects_out_of_range_caps(capsys, dup_file, flags):
    code = main(["solve", dup_file, *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and flags[0] in captured.err


def test_verify_valid_and_invalid(capsys, demo_file):
    code, out = run(capsys, "verify", demo_file, "--pa", "1 2 3 5 4", "--pb", "1,2,3")
    assert code == 0 and out == "valid\n"
    code, out = run(capsys, "verify", demo_file, "--pa", "1 2 3 4 5", "--pb", "1 2 3")
    assert code == 1 and out.startswith("invalid:")
    code, _out = run(capsys, "verify", demo_file, "--pa", "1 1 2 3 4", "--pb", "1 2 3")
    assert code == 2


def test_verify_orders_file(capsys, demo_file, tmp_path):
    orders = tmp_path / "orders.txt"
    orders.write_text("# a valid layout\nPA 1 2 3 5 4\nPB 1 2 3\n")
    assert run(capsys, "verify", demo_file, "--orders", str(orders)) == (0, "valid\n")
    code, out = run(capsys, "verify", demo_file, "--orders", str(orders), "--json")
    assert code == 0 and json.loads(out) == {"valid": True, "reason": None}
    orders.write_text("PA 1 2 3 4 5\nPB 1 2 3\n")
    code, out = run(capsys, "verify", demo_file, "--orders", str(orders))
    assert code == 1 and out.startswith("invalid:")


@pytest.mark.parametrize("argv, message", [
    (["--orders", "ORDERS", "--pa", "1 2 3 5 4"], "--orders cannot be combined with --pa/--pb"),
    (["--orders", "ORDERS", "--pb", "1 2 3"], "--orders cannot be combined with --pa/--pb"),
    (["--pa", "1 2 3 5 4"], "verify needs --pa and --pb, or --orders"),
    ([], "verify needs --pa and --pb, or --orders"),
    (["--orders", "ORDERS"], "PA must be a permutation of 1..5"),
    (["--orders", "MISSING"], "No such file"),
])
def test_verify_orders_usage_errors(capsys, demo_file, tmp_path, argv, message):
    orders = tmp_path / "orders.txt"
    orders.write_text("PA 1 2 3\nPB 1 2 3\n")
    argv = [str(orders) if a == "ORDERS" else str(tmp_path / "none") if a == "MISSING" else a
            for a in argv]
    code = main(["verify", demo_file, *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_solve_distinct_assignment_cap_message(capsys, tmp_path):
    # 87 distinct assignments; counting stops once it passes the cap
    path = tmp_path / "dup8.edd"
    assert main(["gen", "--seed", "8", "--p", "5", "--q", "5", "--total", "12",
                 "--min-duplicates", "2", "--out", str(path)]) == 0
    code, out = run(capsys, "solve", str(path), "--max-assignments", "10")
    assert (code, out) == (3, "cap-exceeded: more than 10 distinct duplicate assignments (cap 10)\n")


def test_oracle_single(capsys, tmp_path):
    path = tmp_path / "one.edd"
    path.write_text("EDD 1\nA 5\nB 5\nAB 1 5\nBA 1 5\n")
    code, out = run(capsys, "oracle", str(path))
    assert code == 0
    assert out.splitlines()[0] == "solutions: 1"


def test_oracle_none(capsys, tmp_path):
    path = tmp_path / "deep.edd"
    path.write_text(serialize_instance(deep_subtree_instance()))
    code, out = run(capsys, "oracle", str(path))
    assert code == 1 and out == "solutions: 0\n"


def test_gen_cut_positions_golden(capsys, demo_file):
    code, out = run(capsys, "gen", "--total", "90",
                    "--cuts-a", "9,21,36,73", "--cuts-b", "6,44")
    assert code == 0
    assert out.splitlines()[0] == "EDD 1"
    assert "A 9 12 15 37 17" in out
    code2, out2 = run(capsys, "gen", "--total", "90",
                      "--cuts-a", "9,21,36,73", "--cuts-b", "6,44")
    assert out2 == out  # byte-identical across runs


def test_gen_seeded_with_sidecar(capsys, tmp_path):
    out_file = tmp_path / "inst.edd"
    side = tmp_path / "side.txt"
    for _ in range(2):
        code, _ = run(capsys, "gen", "--seed", "9", "--p", "3", "--q", "2",
                      "--total", "100", "--out", str(out_file), "--sidecar", str(side))
        assert code == 0
    text = out_file.read_text()
    assert text.startswith("EDD 1\n")
    gt = side.read_text().splitlines()
    assert gt[0].startswith("GT-A ") and gt[1].startswith("GT-B ")
    # sidecar reproduces the instance through the cut-position route
    cuts_a = gt[0].split()[1:]
    cuts_b = gt[1].split()[1:]
    code, out = run(capsys, "gen", "--total", "100",
                    "--cuts-a", " ".join(cuts_a), "--cuts-b", " ".join(cuts_b))
    assert sorted(out.splitlines()) == sorted(text.splitlines())


def test_gen_usage_errors(capsys):
    code, _ = run(capsys, "gen", "--total", "100", "--cuts-a", "5")
    assert code == 2
    code, _ = run(capsys, "gen", "--total", "100")
    assert code == 2
    code, _ = run(capsys, "gen", "--total", "3", "--seed", "1", "--p", "5", "--q", "5")
    assert code == 2


def test_reduce_hp_golden(capsys, tmp_path):
    gpath = tmp_path / "one.graph"
    gpath.write_text("GRAPH 1\n")
    code, out = run(capsys, "reduce-hp", str(gpath))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "EDD 1"
    assert "A 6 6 5" in lines
    assert "# node A2 = t" in lines
    assert "# node A3 = z" in lines
    assert "# node B3 = t(1)" in lines


def test_reduce_hp_output_parses(capsys, tmp_path):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    out_file = tmp_path / "red.edd"
    code, _ = run(capsys, "reduce-hp", str(gpath), "--out", str(out_file))
    assert code == 0
    from edd.instance import parse_instance, validate_consistency
    inst = parse_instance(out_file.read_text())
    assert validate_consistency(inst).ok
    assert inst.a_lengths == (14, 14, 14, 7)


def test_extract_hp_end_to_end(capsys, tmp_path):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    red_file = tmp_path / "red.edd"
    run(capsys, "reduce-hp", str(gpath), "--out", str(red_file))

    code, out = run(capsys, "solve", str(red_file),
                    "--max-assignments", "100000", "--json")
    assert code == 0
    sol = json.loads(out)["families"][0]["solutions"][0]

    sol_file = tmp_path / "sol.txt"
    sol_file.write_text("PA " + " ".join(map(str, sol["paIdx"])) + "\n"
                        "PB " + " ".join(map(str, sol["pbIdx"])) + "\n")
    code, out = run(capsys, "extract-hp", str(gpath), str(sol_file))
    assert code == 0
    assert out in ("path: 1 2\n", "path: 2 1\n")


def test_extract_hp_rejects_invalid(capsys, tmp_path):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    red_file = tmp_path / "red.edd"
    run(capsys, "reduce-hp", str(gpath), "--out", str(red_file))
    sol_file = tmp_path / "sol.txt"
    sol_file.write_text("PA 4 2 3 1\nPB 1 2 3 4 5 6 7\n")
    code, out = run(capsys, "extract-hp", str(gpath), str(sol_file))
    assert code == 1


def test_quiet_suppresses_stdout(capsys, demo_file):
    code, out = run(capsys, "solve", demo_file, "--quiet")
    assert code == 0 and out == ""


def test_solve_output_accepted_by_verify(capsys, demo_file, dup_file):
    for path in (demo_file, dup_file):
        code, out = run(capsys, "solve", path, "--all", "--json")
        assert code == 0
        for fam in json.loads(out)["families"]:
            for sol in fam["solutions"]:
                pa = " ".join(map(str, sol["paIdx"]))
                pb = " ".join(map(str, sol["pbIdx"]))
                vcode, vout = run(capsys, "verify", path, "--pa", pa, "--pb", pb)
                assert vcode == 0 and vout == "valid\n"


def test_identical_invocations_identical_output(capsys, demo_file, dup_file):
    for argv in (["solve", demo_file, "--all", "--emit-families"],
                 ["solve", dup_file, "--all", "--json"],
                 ["oracle", dup_file],
                 ["check", demo_file]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_solve_assignment_cap_exit_3(capsys, tmp_path):
    from conftest import multi_dup_instance

    path = tmp_path / "dupes.edd"
    path.write_text(serialize_instance(multi_dup_instance()))
    code, out = run(capsys, "solve", str(path), "--max-assignments", "2")
    assert code == 3
    assert out.startswith("cap-exceeded:")


def test_module_entry_point(demo_file):
    proc = subprocess.run([sys.executable, "-m", "edd", "check", demo_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


def star_instance(pieces: int) -> EddInstance:
    """One A-fragment cut into single-piece B-fragments of lengths
    1..pieces: the family is one block of every piece."""
    values = tuple(range(1, pieces + 1))
    return EddInstance((sum(values),), values, (values,), tuple((v,) for v in values))


def test_solve_json_huge_expansion_count(capsys, tmp_path):
    # 1000! has 2,568 digits and prints exactly; 1700! has 4,707, past
    # the default int-to-str limit of 4,300, and prints as null
    for pieces, exact in ((1000, math.factorial(1000)), (1700, None)):
        path = tmp_path / f"star{pieces}.edd"
        path.write_text(serialize_instance(star_instance(pieces)))
        code, out = run(capsys, "solve", str(path), "--json", "--max-solutions", "0")
        assert code == 0
        fam = json.loads(out)["families"][0]
        assert fam["family"][0]["block"] == list(range(1, pieces + 1))
        assert fam["expansionCount"] == exact
        assert fam["expansionCountLog10"] == pytest.approx(
            math.lgamma(pieces + 1) / math.log(10))


def test_solve_all_equal_leaf_star_prints_one_layout(tmp_path):
    # 12 equal pieces in one block: 12! orderings, one distinct layout
    path = tmp_path / "star.edd"
    path.write_text(serialize_instance(
        EddInstance((84,), (7,) * 12, ((7,) * 12,), ((7,),) * 12)))
    proc = subprocess.run([sys.executable, "-m", "edd", "solve", str(path), "--all"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("solution: ") == 1
    assert "piB: " + " ".join(["7"] * 12) in proc.stdout.splitlines()


def test_solve_star_of_2000_equal_leaves(capsys, tmp_path):
    path = tmp_path / "star.edd"
    path.write_text(serialize_instance(
        EddInstance((10_000,), (5,) * 2000, ((5,) * 2000,), ((5,),) * 2000)))
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert out.splitlines()[:3] == ["status: ok", "assignments: 1", "assignment: 0"]


def _edd_capped(argv, stdout=subprocess.PIPE):
    """``edd`` in a child process whose address space is capped at 2 GB.

    The child reads its arguments from stdin, one per line, because a
    10^5-fragment ``--pa`` list is longer than the OS allows one
    command-line argument to be."""
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    entry = "import sys; from edd.cli import main; sys.exit(main(sys.stdin.read().split('\\n')))"
    return subprocess.run([sys.executable, "-c", entry], input="\n".join(argv), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, preexec_fn=limit, timeout=600)


def test_solve_big_maps_within_memory_cap(capsys, tmp_path):
    # a random 2x10^4-fragment map has thousands of blocks and the star a
    # block of 1,700: expanding either eagerly cannot fit in 2 GB
    big = tmp_path / "big.edd"
    big.write_text(serialize_instance(
        random_instance(1, 10_001, 10_000, 4 * 10**17, duplicate_free=True)[0]))
    star = tmp_path / "star.edd"
    star.write_text(serialize_instance(star_instance(1700)))
    for argv in ([big], [big, "--emit-families"], [big, "--json"], [star]):
        proc = _edd_capped(["solve", *map(str, argv)])
        assert proc.returncode == 0, proc.stderr
        if "--json" in argv:
            sol = json.loads(proc.stdout)["families"][0]["solutions"][0]
            pa, pb = (" ".join(map(str, sol[k])) for k in ("paIdx", "pbIdx"))
        else:
            fields = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
            pa, pb = fields["paIdx"], fields["pbIdx"]
        code, out = run(capsys, "verify", str(argv[0]), "--pa", pa, "--pb", pb)
        assert code == 0 and out == "valid\n"


def test_solve_all_streams_big_map_within_memory_cap(tmp_path):
    # 10,000 layouts of a 2x10^4-fragment map print about 4 GB: --all
    # prints each layout as it is made and holds none of them
    big = tmp_path / "big.edd"
    big.write_text(serialize_instance(
        random_instance(1, 10_001, 10_000, 4 * 10**17, duplicate_free=True)[0]))
    proc = _edd_capped(["solve", str(big), "--all", "--emit-families"], stdout=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (3, "")   # 3: the 10,000-layout cap cut it short


def test_solve_then_verify_at_1e5_within_memory_cap(tmp_path):
    # the whole file-to-answer path at 10^5 fragments, each step in a capped child
    path = tmp_path / "big.edd"
    path.write_text(serialize_instance(
        random_instance(5, 50_001, 50_000, 4 * 10**17, duplicate_free=True)[0]))
    solved = _edd_capped(["solve", str(path)])
    assert solved.returncode == 0, solved.stderr
    fields = dict(line.split(": ", 1) for line in solved.stdout.splitlines())
    orders = tmp_path / "orders.txt"
    orders.write_text(f"PA {fields['paIdx']}\nPB {fields['pbIdx']}\n")
    checked = _edd_capped(["verify", str(path), "--orders", str(orders)])
    assert (checked.returncode, checked.stdout) == (0, "valid\n"), checked.stderr


def _reference_index_list(text, count, name):
    """The token-by-token ``int()`` reading of an order list."""
    try:
        idx = [int(tok) - 1 for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{name} must be a list of integers") from None
    if sorted(idx) != list(range(count)):
        raise ValueError(f"{name} must be a permutation of 1..{count}")
    return idx


def _index_list_outcome(fn, text, count):
    try:
        return list(fn(text, count, "--pa"))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("text", [
    "1 2 3", "3,1,2", "3, 1 ,2", "1,,2,3", " 1  2   3 ", ",1,2,3,", "01 2 3", "1 2",
    "1 2 3 4", "1 1 2", "0 1 2", "+1 2 3", "٣ 1 2", "1_0 2 3", "1 2 x", "-1 2 3",
    "1\t2 3", "1 2 " + str(2**63), "1 2 " + str(2**63 - 1), "1 2 " + str(2**64 + 3),
    "", "   ", ",", " , ",
])
def test_order_list_bulk_read_matches_int_reading(text):
    from edd.cli import _parse_index_list
    assert (_index_list_outcome(_parse_index_list, text, 3)
            == _index_list_outcome(_reference_index_list, text, 3))


TWO_FRAGMENT_MAP = "EDD 1\nA 3 4\nB 2 5\nAB 1 1 2\nAB 2 4\nBA 1 2\nBA 2 1 4\n"


def test_verify_rejects_repeated_order_lines(capsys, tmp_path):
    path = tmp_path / "map.edd"
    path.write_text(TWO_FRAGMENT_MAP)
    assert run(capsys, "verify", str(path), "--pa", "1 2", "--pb", "1 2") == (0, "valid\n")
    orders = tmp_path / "orders.txt"
    for text, line in (("PA 1 2\nPB 1 2\nPA 2 1\n", "line 3: duplicate PA line"),
                       ("PB 1 2\n# note\nPA 1 2\nPB 1 2\n", "line 4: duplicate PB line")):
        orders.write_text(text)
        code = main(["verify", str(path), "--orders", str(orders)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {line}\n")


def test_extract_hp_rejects_repeated_order_lines(capsys, tmp_path):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    sol_file = tmp_path / "sol.txt"
    sol_file.write_text("PA 1 2 3 4\nPB 1 2 3 4 5 6 7\nPA 4 3 2 1\n")
    code = main(["extract-hp", str(gpath), str(sol_file)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: line 3: duplicate PA line\n")
