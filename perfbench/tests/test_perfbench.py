"""Self-tests of the benchmark: checker rules, span arithmetic, reference speed, inputs.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import gc
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from edd import cli  # noqa: E402
from edd.generator import random_instance  # noqa: E402
from edd.instance import parse_instance, serialize_instance  # noqa: E402

import checker  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument, self_times  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(tmp_path, name, inst):
    path = tmp_path / f"{name}.edd"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return str(path)


def _truth(inst, sol):
    return workloads.Truth(inst, sol.pi_a, sol.pi_b, sol.c_values())


# --- checker ---------------------------------------------------------------

def test_family_parse_and_match():
    slots = checker.parse_family("6 3 [15 12] 8 29 17")
    assert slots == [6, 3, (12, 15), 8, 29, 17]
    assert checker.family_matches(slots, [6, 3, 15, 12, 8, 29, 17])
    assert checker.family_matches(slots, [6, 3, 12, 15, 8, 29, 17])
    assert not checker.family_matches(slots, [6, 3, 12, 15, 8, 29])


def test_checker_accepts_real_solve_output_and_rejects_changed_fixed_value(tmp_path):
    inst, truth = random_instance(7, 40, 40, 10**9, duplicate_free=True)
    path, t = _write(tmp_path, "m", inst), _truth(inst, truth).to_json()
    code, out = _cli(["solve", path, *run.MAP_SOLVE])
    assert checker.check_solve_map(code, out, t).ok

    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("family: "))
    toks = lines[k].split()
    f = next(i for i, tok in enumerate(toks[1:], start=1) if tok.isdigit())
    toks[f] = str(int(toks[f]) + 1)
    lines[k] = " ".join(toks)
    verdict = checker.check_solve_map(code, "\n".join(lines), t)
    assert not verdict.ok and not verdict.refusal
    assert "ground truth" in verdict.problem


def test_checker_rejects_wrong_exit_codes():
    nomap = "status: no-solution\nreason: HAS_CYCLE\nwitness: A1 B1\n"
    assert checker.check_solve_nomap(1, nomap).ok
    assert not checker.check_solve_nomap(0, nomap).ok
    assert not checker.check_solve_nomap(1, nomap.replace("HAS_CYCLE", "DEEP_SUBTREE")).ok
    assert not checker.check_solve_map(2, "", {"c_values": [1]}).ok
    assert checker.check_verify(0, "valid\n", True).ok
    assert not checker.check_verify(1, "valid\n", True).ok
    assert checker.check_verify(1, "invalid: SUM_MISMATCH\n", False).ok
    assert not checker.check_verify(0, "invalid: SUM_MISMATCH\n", False).ok


def test_cap_exit_is_a_refusal_not_a_wrong_answer():
    verdict = checker.check_solve_map(3, "cap-exceeded: 16384 duplicate assignments exceed "
                                         "cap 10080\n", {"c_values": [1]})
    assert not verdict.ok and verdict.refusal and verdict.problem is None


def test_all_layouts_rules(tmp_path):
    inst, truth = workloads.layout_map(3, 0)
    path, t = _write(tmp_path, "lay", inst), truth.to_json()
    code, out = _cli(["solve", path, "--all", "--emit-families"])
    assert code == 0
    assert out.count("solution: ") == 8640
    assert checker.check_all_layouts(code, out, inst, t).ok

    # truncated enumeration without the 'truncated: true' line
    assert not checker.check_all_layouts(3, out, inst, t).ok
    # a layout printed twice
    lines = out.splitlines()
    first = lines.index("solution: 1")
    doubled = "\n".join(lines + lines[first:first + 5])
    assert "printed twice" in checker.check_all_layouts(code, doubled, inst, t).problem


def test_all_layouts_truncation_needs_cap_and_marker(monkeypatch, tmp_path):
    inst, truth = workloads.layout_map(3, 0)
    path, t = _write(tmp_path, "lay", inst), truth.to_json()
    code, out = _cli(["solve", path, "--all", "--emit-families", "--max-solutions", "50"])
    assert code == 3 and "truncated: true" in out
    monkeypatch.setattr(checker, "EXPANSION_CAP", 50)
    assert checker.check_all_layouts(code, out, inst, t).ok
    unmarked = out.replace("truncated: true\n", "")
    assert not checker.check_all_layouts(code, unmarked, inst, t).ok


def test_memoised_verdict_follows_the_output(tmp_path):
    inst, truth = random_instance(11, 20, 20, 10**9, duplicate_free=True)
    _write(tmp_path, "memo", inst)
    (tmp_path / "memo.truth.json").write_text(json.dumps(_truth(inst, truth).to_json()),
                                              encoding="utf-8")
    inp = run.MapInput(tmp_path, "memo")
    good = _cli(["solve", inp.path, *run.MAP_SOLVE])[1]
    bad = good.replace("family: ", "family: 1 ", 1)

    class FakeCli:
        solve_outputs = [good, good, bad]

        def main(self, argv):
            print(self.solve_outputs.pop(0) if argv[0] == "solve" else "valid", end="")
            return 0

    verdicts: dict = {}
    ops = [run.Op(FakeCli(), "big-map", inp, verdicts=verdicts) for _ in range(3)]
    assert [op.verdict.ok for op in ops] == [True, True, False]
    assert len(verdicts) == 2


# --- spans -----------------------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    #   op [0, 10]
    #     a [1, 6]
    #       b [2, 3]
    #       c [3, 5]
    #     d [7, 9]
    spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
             ["c", 3.0, 5.0, 1, 0], ["d", 7.0, 9.0, 0, 0]]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert sum(own) == spans[0][2] - spans[0][1]


def test_traced_op_accounts_for_its_wall_time(tmp_path):
    inst, truth = random_instance(5, 30, 30, 10**9, duplicate_free=True)
    stem = "traced"
    _write(tmp_path, stem, inst)
    (tmp_path / f"{stem}.truth.json").write_text(json.dumps(_truth(inst, truth).to_json()),
                                                 encoding="utf-8")
    tracer = Tracer()
    instrument(tracer)
    try:
        op = run.Op(cli, "big-map", run.MapInput(tmp_path, stem), tracer, op_id=0)
        untraced = run.Op(cli, "big-map", run.MapInput(tmp_path, stem))
    finally:
        tracer.uninstall()
    assert op.verdict.ok and untraced.verdict.ok
    names = [rec[0] for rec in tracer.spans]
    for name in ("op", "cli.main", "instance.parse_instance", "solver.solve",
                 "solver.solve_labeled", "digestgraph.check_structure",
                 "solver.dangler_first_search", "verifier.verify_permutation"):
        assert name in names
    assert sum(self_times(tracer.spans)) == pytest.approx(op.seconds)
    assert tracer.counts["digestgraph.verdict.ok"] == 1
    assert cli.parse_instance is parse_instance   # uninstall restored it


# --- reference speed -------------------------------------------------------

def test_end_to_end_scales_op_times_to_the_reference_speed():
    def op(solve, verify, scale, ok=True, fragments=10):
        return SimpleNamespace(solve_seconds=solve, verify_seconds=verify,
                               seconds=solve + verify, scale=scale,
                               verdict=SimpleNamespace(ok=ok),
                               inp=SimpleNamespace(fragments=fragments))
    # Twice as slow on a core that runs the load at half speed: same figures.
    ops = [op(1.0, 0.5, 1.0), op(2.0, 1.0, 0.5), op(3.0, 1.5, 1 / 3), op(9.0, 9.0, 1.0, ok=False)]
    metrics = run.end_to_end(ops, setup_s=0.5)
    assert metrics["solve_s.p50"] == pytest.approx(1.0)
    assert metrics["solve_s.p75"] == pytest.approx(1.0)
    assert metrics["verify_s.p50"] == pytest.approx(0.5)
    assert metrics["fragments_per_s"] == pytest.approx(30 / (3 * 1.5 + 18.0))
    assert metrics["ok_ratio"] == 0.75


def test_reference_load_keeps_the_collector_state():
    gc.disable()
    try:
        assert reference.load_seconds() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert reference.load_seconds() > 0
    assert gc.isenabled()


# --- inputs ----------------------------------------------------------------

def test_same_seed_gives_byte_identical_files(tmp_path):
    a = workloads.write_inputs("all-layouts", 4, tmp_path / "a")
    b = workloads.write_inputs("all-layouts", 4, tmp_path / "b")
    assert a == b
    for stem in a:
        for suffix in (".edd", ".truth.json"):
            assert (tmp_path / "a" / (stem + suffix)).read_bytes() == \
                (tmp_path / "b" / (stem + suffix)).read_bytes()
    c = workloads.write_inputs("all-layouts", 5, tmp_path / "c")
    assert (tmp_path / "c" / (c[0] + ".edd")).read_bytes() != \
        (tmp_path / "a" / (a[0] + ".edd")).read_bytes()


def test_broken_layout_passes_check_and_solve_rejects_it(tmp_path):
    inst, truth = random_instance(9, 1001, 1000, 10**15, duplicate_free=True)
    moved = workloads.break_layout(inst, truth, random.Random(9))
    path = _write(tmp_path, "nomap", moved)
    assert _cli(["check", path])[0] == 0
    code, out = _cli(["solve", path, *run.MAP_SOLVE])
    assert checker.check_solve_nomap(code, out).ok
    pa = " ".join(str(i + 1) for i in truth.pi_a)
    pb = " ".join(str(j + 1) for j in truth.pi_b)
    code, out = _cli(["verify", path, "--pa", pa, "--pb", pb])
    assert checker.check_verify(code, out, False).ok
    assert parse_instance(open(path).read()) == moved
