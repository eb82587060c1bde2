import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from itertools import accumulate
from types import SimpleNamespace

import pytest

from edd import cli
from edd.cli import main
import edd.instance as instance
from edd.generator import random_instance
from edd.instance import EddInstance, ParseError, parse_instance, serialize_instance
from edd.reduction import MAX_REDUCTION_NODES

from conftest import DEMO_TEXT, deep_subtree_instance, dup_instance, shared_label_instance
from test_format_sweeps import NEAR_PLAIN, _byte_edit, _sweep_documents


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


def test_one_parser_serves_successive_calls(capsys, demo_file):
    calls = [["solve", demo_file, "--max-solutions", "-1"],
             ["solve", demo_file],
             ["verify", demo_file, "--pa", "2,1,5,3,4", "--pb", "1,2,3"]]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert [code for code, _out in alone] == [2, 0, 1]
    assert cli._build_parser() is cli._build_parser()


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


def _timed_solve(capsys, tmp_path, inst, *flags):
    path = tmp_path / "map.edd"
    path.write_text(serialize_instance(inst))
    start = time.perf_counter()
    code, out = run(capsys, "solve", str(path), *flags)
    return code, out, time.perf_counter() - start


@pytest.mark.parametrize("k", [16, 20])
def test_solve_one_shared_label_in_time(capsys, tmp_path, k):
    # the k copies of 1000 share one AB-side label; the 7s' second class solves
    code, out, seconds = _timed_solve(capsys, tmp_path, shared_label_instance(k))
    assert code == 0 and f"assignment: {math.factorial(k)}" in out.splitlines()
    assert seconds < 1, seconds


def test_solve_ids_past_the_digit_limit_print_in_hexadecimal(capsys, tmp_path):
    # 2000! has 5,736 digits, past the 4,300 that int may print by default
    want = format(math.factorial(2000), "#x")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, seconds = _timed_solve(capsys, tmp_path, shared_label_instance(2000))
        assert code == 0 and f"assignment: {want}" in out.splitlines()
        assert seconds < 2, seconds
        mirror = shared_label_instance(2000, mirror=True)
        code, out, _ = _timed_solve(capsys, tmp_path, mirror)
        assert code == 0 and f"assignment: {want}" in out.splitlines()
        code, out, _ = _timed_solve(capsys, tmp_path, mirror, "--json")
        assert code == 0 and [f["assignment"] for f in json.loads(out)["families"]] == [want]
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_solve_inconsistent_data(capsys, tmp_path):
    path = tmp_path / "bad.edd"
    path.write_text("EDD 1\nA 5 8\nB 4 10\nAB 1 5\nAB 2 9\nBA 1 4\nBA 2 3 7\n")
    code, out = run(capsys, "check", str(path))
    assert code == 1
    violations = out.splitlines()
    assert [line.split(":")[0] for line in violations] == ["SUM_A", "UNION_MISMATCH", "COUNT"]
    assert run(capsys, "solve", str(path)) == (1, out)
    code, out = run(capsys, "solve", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {
        "status": "inconsistent",
        "violations": [dict(zip(("rule", "detail"), line.split(": ", 1))) for line in violations]}


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


def test_verify_checks_each_order_once(capsys, demo_file, tmp_path, monkeypatch):
    from edd import verifier
    checked, real = [], verifier._is_permutation

    def counting(idx, count):
        checked.append(count)
        return real(idx, count)

    monkeypatch.setattr(verifier, "_is_permutation", counting)
    monkeypatch.setattr(cli, "_is_permutation", counting)
    orders = tmp_path / "orders.txt"
    orders.write_text("PA 1 2 3 5 4\nPB 1 2 3\n")
    for argv in (["--pa", "1 2 3 5 4", "--pb", "1 2 3"], ["--orders", str(orders)]):
        checked.clear()
        assert run(capsys, "verify", demo_file, *argv) == (0, "valid\n")
        assert checked == [5, 3]


@pytest.mark.parametrize("argv, message", [
    (["--orders", "ORDERS", "--pa", "1 2 3 5 4"], "--orders cannot be combined with --pa/--pb"),
    (["--orders", "ORDERS", "--pb", "1 2 3"], "--orders cannot be combined with --pa/--pb"),
    (["--pa", "1 2 3 5 4"], "verify needs --pa and --pb, or --orders"),
    ([], "verify needs --pa and --pb, or --orders"),
    (["--orders", "ORDERS"], "PA must be a permutation of 1..5"),
    (["--orders", "MISSING"], "No such file"),
    (["--orders", "KIND"], "line 2: expected PA or PB line"),
    (["--orders", "PA_ONLY"], "solution file needs PA and PB lines"),
    (["--pa", "1,+99999999999999999999", "--pb", "1 2 3"], "--pa must be a permutation of 1..5"),
])
def test_verify_orders_usage_errors(capsys, demo_file, tmp_path, argv, message):
    files = {"ORDERS": "PA 1 2 3\nPB 1 2 3\n", "KIND": "PA 1 2 3 5 4\nX 1\nPB 1 2 3\n",
             "PA_ONLY": "# no PB line\nPA 1 2 3 5 4\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else str(tmp_path / "none") if a == "MISSING" else a
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


def test_oracle_cap_exit_3(capsys, demo_file):
    code = main(["oracle", demo_file, "--max-total", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: p + q = 8 exceeds exhaustive-search cap 3\n"


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


def test_gen_total_past_int64_exit_2(capsys):
    code = main(["gen", "--total", str(10**20), "--seed", "1", "--p", "3", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: total length {10**20} exceeds 2^63 - 1\n"


def test_gen_cuts_on_a_total_past_int64(capsys, tmp_path):
    # the total is 2^63, yet every fragment and piece length fits int64
    path = tmp_path / "wide.edd"
    code, _ = run(capsys, "gen", "--total", str(2**63), "--cuts-a", "5", "--cuts-b", "3",
                  "--out", str(path))
    assert code == 0
    assert "A 5 9223372036854775803\n" in path.read_text()
    assert run(capsys, "check", str(path)) == (0, "ok\n")


def test_gen_unwritable_sidecar_prints_nothing(capsys, tmp_path):
    code = main(["gen", "--total", "100", "--seed", "1", "--p", "3", "--q", "3",
                 "--sidecar", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_non_utf8_file_error_names_file_and_line(capsys, demo_file, tmp_path):
    binary = tmp_path / "latin1.edd"
    binary.write_bytes(DEMO_TEXT.encode() + b"# caf\xe9, in Latin-1\n")
    line = DEMO_TEXT.count("\n") + 1
    for argv in (["check", str(binary)], ["verify", demo_file, "--orders", str(binary)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: line {line}: {binary} is not UTF-8: byte 0xe9 at column 6\n"


def test_fifo_is_read_to_its_end(tmp_path):
    """A pipe has no size to allocate for: the reader grows its buffer
    until the end of the data, past the pipe's own 64 KiB."""
    inst = random_instance(3, 3001, 3000, 10**12, duplicate_free=True)[0]
    data = serialize_instance(inst).encode()
    fifo = tmp_path / "map.fifo"
    os.mkfifo(fifo)
    assert os.stat(fifo).st_size == 0 and len(data) > 2**17

    def write():
        with open(fifo, "wb") as fh:
            for k in range(0, len(data), 5000):
                fh.write(data[k:k + 5000])

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert cli._load_instance(str(fifo)) == inst
    finally:
        writer.join(10)


def test_crlf_file_keeps_the_plain_reader(tmp_path, monkeypatch):
    def line_loop(text):
        raise AssertionError("CRLF file read line by line")

    monkeypatch.setattr(instance, "_read_lines", line_loop)
    inst = random_instance(4, 40, 30, 10**9)[0]
    path = tmp_path / "crlf.edd"
    path.write_bytes(serialize_instance(inst).replace("\n", "\r\n").encode())
    assert cli._load_instance(str(path)) == inst


def test_no_final_newline_and_non_ascii_comment(tmp_path):
    path = tmp_path / "map.edd"
    path.write_bytes(DEMO_TEXT.rstrip("\n").encode())
    assert cli._load_instance(str(path)) == parse_instance(DEMO_TEXT)
    path.write_bytes(("# café, naïve – ½\n" + DEMO_TEXT.rstrip("\n")).encode())
    assert cli._load_instance(str(path)) == parse_instance(DEMO_TEXT)


def _load_outcome(load, path):
    try:
        return ("ok", load(path))
    except ParseError as err:
        return ("error", str(err))


def _text_mode_load(path):
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


@pytest.mark.parametrize("parts", [1, 2])
def test_loaded_bytes_read_as_text_mode_reads_them(tmp_path, monkeypatch, parts):
    """The sweep documents, byte edits of them, some with CRLF or a lone
    CR, and the near-plain documents, written as bytes: ``_load_instance``
    gives the instance or the ParseError that the text of a text-mode
    read gives, and a buffer the plain reader turns down gets its bytes
    back, in one part and cut in two."""
    if parts == 2:
        monkeypatch.setattr(instance, "_TWO_PARTS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rng = random.Random(parts)
    docs = [serialize_instance(inst) for inst in _sweep_documents(rng)]
    texts = list(NEAR_PLAIN)
    for trial in range(600):
        text = docs[trial % len(docs)]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            text = _byte_edit(rng, text)
        if rng.random() < 0.25:
            text = text.replace("\n", "\r\n")
        if rng.random() < 0.1:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + "\r" + text[k:]
        texts.append(text)
    path = tmp_path / "doc.edd"
    outcomes = set()
    for text in texts:
        data = text.encode()
        path.write_bytes(data)
        want = _load_outcome(_text_mode_load, path)
        assert _load_outcome(cli._load_instance, str(path)) == want, text
        buf = bytearray(data)
        if instance._read_plain(buf) is None:
            assert buf == data, text
        outcomes.add(want[0])
    assert outcomes == {"ok", "error"}


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


def test_reduce_hp_quiet_builds_no_text(capsys, tmp_path, monkeypatch):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    code, text = run(capsys, "reduce-hp", str(gpath))
    assert code == 0
    out_file = tmp_path / "red.edd"
    assert run(capsys, "reduce-hp", str(gpath), "--quiet", "--out", str(out_file)) == (0, "")
    assert out_file.read_text() == text

    def refuse(_inst):
        raise AssertionError("serialized with nowhere to write it")

    monkeypatch.setattr(cli, "serialize_instance", refuse)
    assert run(capsys, "reduce-hp", str(gpath), "--quiet") == (0, "")
    assert run(capsys, "reduce-hp", str(gpath), "--quiet", "--json") == (0, "")


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


def test_json_count_past_the_digit_limit_is_never_built(monkeypatch):
    # 200,000! has about 973,000 digits: the log decides, and no count is made
    class Family:
        @property
        def expansion_count(self):
            raise AssertionError("built an exact count past the digit limit")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)   # the default
    log10 = math.lgamma(200_001) / math.log(10)
    assert cli._printable_count(Family(), log10) is None
    star = SimpleNamespace(expansion_count=math.factorial(1700))
    assert cli._printable_count(star, math.lgamma(1701) / math.log(10)) is None
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)   # no limit: always exact
    assert cli._printable_count(star, math.lgamma(1701) / math.log(10)) == math.factorial(1700)


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


def _edd_capped(argv, stdout=subprocess.PIPE, timeout=600):
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
                          stderr=subprocess.PIPE, text=True, preexec_fn=limit, timeout=timeout)


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


def test_dense_duplicates_end_at_the_assignment_cap(tmp_path):
    # most lengths repeat, in groups of up to 510 copies: the matching
    # search lists classes in id order and stops one past the cap
    maps = [random_instance(7, 5_001, 4_999, 200_000)[0],
            random_instance(4, 300, 300, 2000)[0],
            random_instance(3, 500, 500, 10**4)[0]]
    for k, inst in enumerate(maps):
        path = tmp_path / f"dup{k}.edd"
        path.write_text(serialize_instance(inst))
        proc = _edd_capped(["solve", str(path), "--max-solutions", "0"], timeout=30)
        assert (proc.returncode, proc.stderr) == (3, ""), proc.stderr
        assert proc.stdout == ("cap-exceeded: more than 10080 distinct duplicate "
                               "assignments (cap 10080)\n")


def test_reduction_node_cap(tmp_path):
    # the hub joins every node: two billion nodes would be two billion edges
    gpath = tmp_path / "huge.graph"
    gpath.write_text("GRAPH 2000000000\n1 2\n")
    orders = tmp_path / "orders.txt"
    orders.write_text("PA 1\nPB 1\n")
    for argv in (["reduce-hp", str(gpath)], ["extract-hp", str(gpath), str(orders)]):
        proc = _edd_capped(argv, timeout=30)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: 2000000000 nodes exceed the reduction cap {MAX_REDUCTION_NODES}\n"


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


def _usage_error(capsys, *argv) -> str:
    """The one stderr line of a command that must exit 2 and print nothing."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (2, "", 1)
    return captured.err


def test_oracle_json_lists_the_text_layouts_with_pic(capsys, demo_file):
    code, text = run(capsys, "oracle", demo_file)
    assert code == 0
    layouts = []
    for line in text.splitlines()[1:]:   # after "solutions: 2"
        name, value = line.split(": ")
        if name == "solution":
            layouts.append({})
        else:
            layouts[-1][name] = value
    code, out = run(capsys, "oracle", demo_file, "--json")
    assert code == 0
    got = json.loads(out)["solutions"]
    assert len(got) == len(layouts) == 2
    for sol, layout in zip(got, layouts):
        assert {name: " ".join(map(str, sol[name])) for name in layout} == layout
        # piC is the layout's sub-fragments: it cuts exactly where piA or piB does
        cuts = [set(accumulate(sol[name])) for name in ("piA", "piB", "piC")]
        assert cuts[0] | cuts[1] == cuts[2]
        assert sorted(sol["piC"]) == sorted(v for s in parse_instance(DEMO_TEXT).ab_sets for v in s)


@pytest.mark.parametrize("text, line", [("", 1), ("# only a comment\n\n", 2)])
def test_headerless_file_exit_2(capsys, tmp_path, text, line):
    path = tmp_path / "headerless.edd"
    path.write_text(text)
    assert _usage_error(capsys, "check", str(path)) == \
        f"error: line {line}: missing 'EDD 1' header\n"


@pytest.mark.parametrize("graph, message", [
    ("GRAPH x\n", "line 1: invalid node count 'x'"),
    ("GRAPH 2\n1 y\n", "line 2: invalid edge endpoints"),
])
def test_reduce_hp_malformed_graph_exit_2(capsys, tmp_path, graph, message):
    gpath = tmp_path / "bad.graph"
    gpath.write_text(graph)
    assert _usage_error(capsys, "reduce-hp", str(gpath)) == f"error: {message}\n"


def test_extract_hp_reads_a_reversed_layout(capsys, tmp_path):
    gpath = tmp_path / "edge.graph"
    gpath.write_text("GRAPH 2\n1 2\n")
    red_file = tmp_path / "red.edd"
    run(capsys, "reduce-hp", str(gpath), "--out", str(red_file))
    code, out = run(capsys, "solve", str(red_file), "--max-assignments", "100000", "--json")
    assert code == 0
    sol = json.loads(out)["families"][0]["solutions"][0]
    paths = []
    for step in (1, -1):   # the layout read right to left is the same map
        sol_file = tmp_path / "sol.txt"
        sol_file.write_text(f"PA {' '.join(map(str, sol['paIdx'][::step]))}\n"
                            f"PB {' '.join(map(str, sol['pbIdx'][::step]))}\n")
        paths.append(run(capsys, "extract-hp", str(gpath), str(sol_file)))
    assert paths[0] == paths[1] and paths[0][0] == 0 and paths[0][1].startswith("path: ")


def test_gen_refuses_more_duplicates_than_pieces_allow(capsys):
    assert _usage_error(capsys, "gen", "--total", "5", "--seed", "3", "--p", "2", "--q", "2",
                        "--min-duplicates", "99") == \
        "error: min_duplicates 99 exceeds n - 1 = 2 (n = p + q - 1 pieces)\n"
