"""The edd benchmark: seeded maps timed through ``edd solve`` / ``edd verify``.

    python3 perfbench/run.py --workload big-map --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop with one client: one map
op at a time, no extra threads.  A map op calls the public CLI entry
``edd.cli.main`` in-process with stdout captured: first ``solve`` on the
map file, then ``verify`` on the generator's ground-truth layout.  Every
op's output is checked.  A fixed reference load runs before and after
every op and scales the op's times to one machine speed
(``reference.py``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last stdout
line is one JSON object; the exit code is 1 when a check found a wrong
answer.  ``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Below the machine's 7 GB, so a runaway allocation raises MemoryError in
# this process (a failed op) instead of getting the process OOM-killed.
MEMORY_CAP_BYTES = 3 * 2**30
SETUP_RUNS = 7   # spread evenly over a run, between ops
SETUP_CODE = "import edd.cli, scipy.sparse.csgraph"

MAP_SOLVE = ["--emit-families", "--max-solutions", "0"]

# name -> (solve arguments after the file, check kind, verify must accept)
WORKLOADS = {
    "big-map": (MAP_SOLVE, "map", True),
    "big-nomap": (MAP_SOLVE, "nomap", False),
    "dup-map": (MAP_SOLVE, "map", True),
    "all-layouts": (["--all", "--emit-families"], "layouts", True),
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.p75", "s"),
    ("verify_s.p50", "s"),
    ("fragments_per_s", "fragments/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

SPAN_NAMES = (
    "instance.parse_instance", "instance.validate_consistency",
    "instance.label_duplicates", "digestgraph.build_graph",
    "digestgraph.check_structure", "solver.solve", "solver.solve_labeled",
    "solver.dangler_first_search", "solver.expand_family",
    "verifier.verify_permutation", "cli.main",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    s, c = "s", "count"
    return [
        ("instance.parse_instance.s", s), ("instance.parse_instance.calls", c),
        ("instance.parse_instance.bytes", "bytes"),
        ("instance.validate_consistency.s", s),
        ("instance.label_duplicates.s", s), ("instance.label_duplicates.calls", c),
        ("digestgraph.build_graph.calls", c),
        ("digestgraph.check_structure.s", s), ("digestgraph.check_structure.calls", c),
        ("digestgraph.verdict.ok", c), ("digestgraph.verdict.HAS_CYCLE", c),
        ("digestgraph.verdict.NOT_CONNECTED", c), ("digestgraph.verdict.DEEP_SUBTREE", c),
        ("solver.solve.s", s), ("solver.solve.cap_exceeded", c),
        ("solver.assignments.raw", c), ("solver.assignments.tried", c),
        ("solver.assignments.useful_ratio", "ratio"),
        ("solver.solve_labeled.s", s), ("solver.solve_labeled.calls", c),
        ("solver.dangler_first_search.s", s),
        ("solver.family.blocks", c), ("solver.family.max_block", c),
        ("solver.family.log10_expansions", "log10"),
        ("solver.expand_family.s", s), ("solver.expand_family.calls", c),
        ("solver.expand_family.layouts", c), ("solver.expand_family.truncated", c),
        ("verifier.verify_permutation.s", s), ("verifier.verify_permutation.calls", c),
        ("cli.main.s", s), ("cli.self_s", s), ("cli.stdout_bytes", "bytes"),
        ("ops.memory_error", c), ("ops.check_failed", c),
        ("trace.overhead_ratio", "ratio"), ("trace.remainder_s", s),
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import the CLI from the checkout's ``src``; exit 2 when it is absent."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import edd.cli
    except ImportError as err:
        print(f"error: cannot import edd from {SRC}: {err}", file=sys.stderr)
        sys.exit(2)
    if not Path(edd.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: edd was imported from {edd.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return edd.cli


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_once() -> float:
    """Wall time of a fresh interpreter importing the CLI and scipy."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=program_env(),
                   cwd=ROOT, check=True, timeout=120)
    return perf_counter() - t0


def generate(workload: str, seed: int, out: Path) -> list[str]:
    """Write the inputs in a child process, so that its memory is not
    counted in this process's peak RSS."""
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload",
                           workload, "--seed", str(seed), "--out", str(out)],
                          env=program_env(), cwd=ROOT, timeout=600,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: input generation failed (exit {done.returncode})")
    return done.stdout.split()


class Call:
    """Outcome of one ``edd.cli.main`` call."""

    def __init__(self, cli, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        self.error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    self.code = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        self.code = cli.main(argv)
        except MemoryError:
            self.code, self.error = None, "MemoryError"
        except Exception:
            self.code, self.error = None, traceback.format_exc(limit=3)
        self.seconds = perf_counter() - t0
        self.stdout = out.getvalue()


class MapInput:
    def __init__(self, work: Path, stem: str):
        self.stem = stem
        self.path = str(work / f"{stem}.edd")
        self.truth = json.loads((work / f"{stem}.truth.json").read_text(encoding="utf-8"))
        self.fragments = self.truth["p"] + self.truth["q"]
        self.pa = " ".join(map(str, self.truth["pa"]))
        self.pb = " ".join(map(str, self.truth["pb"]))
        self._instance = None

    def instance(self):
        if self._instance is None:
            from edd.instance import parse_instance
            with open(self.path, encoding="utf-8") as fh:
                self._instance = parse_instance(fh.read())
        return self._instance


class Op:
    """One map op: ``solve`` then ``verify``, both checked.

    The op keeps only times, sizes and the verdict, not the output, so a
    run's memory does not grow with its op count.  ``verdicts`` memoises
    the check per (map, exit codes, output digest): the checker is a pure
    function of those, and re-checking 8,640 layouts would cost as much
    as printing them."""

    def __init__(self, cli, workload: str, inp: MapInput, tracer=None, op_id=0,
                 verdicts=None):
        solve_args, kind, verify_ok = WORKLOADS[workload]
        self.inp = inp
        self.traced = tracer is not None
        root = contextlib.nullcontext() if tracer is None else tracer.op_span(op_id)
        with root as span:
            solve = Call(cli, ["solve", inp.path, *solve_args], tracer)
            verify = Call(cli, ["verify", inp.path, "--pa", inp.pa, "--pb", inp.pb], tracer)
        self.solve_seconds, self.verify_seconds = solve.seconds, verify.seconds
        self.seconds = (span[2] - span[1]) if self.traced else solve.seconds + verify.seconds
        self.scale = 1.0   # NOMINAL_S over the reference load time around the op
        self.stdout_bytes = len(solve.stdout) + len(verify.stdout)
        self.memory_error = "MemoryError" in (solve.error or "") + (verify.error or "")

        key = (inp.stem, solve.code, verify.code, solve.error, verify.error,
               hashlib.blake2b(solve.stdout.encode()).digest(),
               hashlib.blake2b(verify.stdout.encode()).digest())
        if verdicts is not None and key in verdicts:
            self.verdict = verdicts[key]
            return
        self.verdict = _check(kind, verify_ok, inp, solve, verify)
        if verdicts is not None:
            verdicts[key] = self.verdict


def _check(kind: str, verify_ok: bool, inp: MapInput, solve: Call, verify: Call):
    from checker import (check_all_layouts, check_solve_map, check_solve_nomap,
                         check_verify, wrong)
    if solve.error or verify.error:
        return wrong((solve.error or verify.error).strip().splitlines()[-1])
    if kind == "map":
        verdict = check_solve_map(solve.code, solve.stdout, inp.truth)
    elif kind == "nomap":
        verdict = check_solve_nomap(solve.code, solve.stdout)
    else:
        verdict = check_all_layouts(solve.code, solve.stdout, inp.instance(), inp.truth)
    if verdict.ok or verdict.refusal:
        checked = check_verify(verify.code, verify.stdout, verify_ok)
        if not checked.ok:
            return checked
    return verdict


def run_ops(cli, workload: str, maps: list[MapInput], seconds: float, tracer,
            setup_runs: int = 0):
    """Warm up with one untimed op, then run ops until ``seconds`` pass.

    With a tracer, every second op is traced, so the traced and the
    untraced op times come from the same stretch of the run.  The
    ``setup_runs`` set-up samples are taken between ops at even intervals,
    so that they see the same machine as the ops.  The reference load
    runs between ops and sets each op's ``scale``; set-up samples are
    plain wall times."""
    from reference import NOMINAL_S, load_seconds

    verdicts: dict = {}
    warmup = Op(cli, workload, maps[0], verdicts=verdicts)
    ops, setups = [], []
    t_start = perf_counter()
    t_end = t_start + seconds
    before = load_seconds()
    while len(ops) < 2 or perf_counter() < t_end:
        if len(setups) < setup_runs and \
                perf_counter() >= t_start + len(setups) * seconds / setup_runs:
            setups.append(setup_once())
            before = load_seconds()
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        op = Op(cli, workload, maps[(k + 1) % len(maps)],
                tracer if traced else None, op_id=k, verdicts=verdicts)
        after = load_seconds()
        op.scale = NOMINAL_S / ((before + after) / 2)
        before = after
        ops.append(op)
    while len(setups) < setup_runs:
        setups.append(setup_once())
    return warmup, ops, setups


def percentile(xs: list[float], p: int) -> float:
    """The ``p``-th percentile, interpolated between the samples."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def end_to_end(ops: list, setup_s: float) -> dict:
    # Op times at the reference speed (``reference.py``); the machine's
    # swings in speed would otherwise decide the figures.  p75 is the
    # highest percentile with ten samples beyond it on every workload.
    good = [op for op in ops if op.verdict.ok]
    solve = [op.solve_seconds * op.scale for op in good]
    return {
        "setup_s": setup_s,
        "solve_s.p50": percentile(solve, 50),
        "solve_s.p75": percentile(solve, 75),
        "verify_s.p50": percentile([op.verify_seconds * op.scale for op in good], 50),
        # Goodput: failed ops take time and deliver no fragments.
        "fragments_per_s": (sum(op.inp.fragments for op in good)
                            / sum(op.seconds * op.scale for op in ops)),
        "ok_ratio": len(good) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops: list, tracer) -> dict:
    from tracer import END, NAME, PARENT, START, self_times

    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    own = self_times(tracer.spans)
    cli_self = remainder = 0.0
    for rec, self_s in zip(tracer.spans, own):
        name = rec[NAME]
        busy[name] = busy.get(name, 0.0) + rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.main":
            cli_self += self_s
        elif rec[PARENT] < 0:
            remainder += self_s
    counts = tracer.counts
    tried = counts["solver.assignments.tried"]
    families = counts["solver.families"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = busy.get(name, 0.0) / n
        out[f"{name}.calls"] = calls.get(name, 0) / n
    for key in ("instance.parse_instance.bytes", "digestgraph.verdict.ok",
                "digestgraph.verdict.HAS_CYCLE", "digestgraph.verdict.NOT_CONNECTED",
                "digestgraph.verdict.DEEP_SUBTREE", "solver.solve.cap_exceeded",
                "solver.assignments.raw", "solver.assignments.tried",
                "solver.expand_family.layouts", "solver.expand_family.truncated"):
        out[key] = float(counts[key]) / n
    out["solver.assignments.useful_ratio"] = families / tried if tried else 0.0
    out["solver.family.blocks"] = counts["solver.family.blocks"] / families if families else 0.0
    out["solver.family.log10_expansions"] = (
        counts["solver.family.log10_expansions"] / families if families else 0.0)
    out["solver.family.max_block"] = float(tracer.maxima.get("solver.family.max_block", 0))
    out["cli.self_s"] = cli_self / n
    out["cli.stdout_bytes"] = sum(op.stdout_bytes for op in traced) / n
    out["ops.memory_error"] = float(sum(op.memory_error for op in ops))
    out["ops.check_failed"] = float(sum(not op.verdict.ok and not op.verdict.refusal
                                        for op in ops))
    out["trace.overhead_ratio"] = (statistics.fmean(op.seconds for op in traced)
                                   / statistics.fmean(op.seconds for op in plain))
    out["trace.remainder_s"] = remainder / n
    return {name: out[name] for name, _unit in per_layer_names()}


def run_workload(args) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    cli = import_program()
    from tracer import Tracer, instrument

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stems = generate(args.workload, args.seed, work)
        maps = [MapInput(work, stem) for stem in stems]
        tracer = None
        if args.trace:
            tracer = Tracer()
            instrument(tracer)
        try:
            warmup, ops, setups = run_ops(cli, args.workload, maps, args.seconds, tracer,
                                          setup_runs=0 if args.trace else SETUP_RUNS)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong_ops = [op for op in [warmup, *ops] if not op.verdict.ok and not op.verdict.refusal]
    for op in wrong_ops:
        print(f"WRONG workload={args.workload} seed={args.seed} map={op.inp.stem}: "
              f"{op.verdict.problem}")
    if args.trace:
        metrics, units = per_layer(ops, tracer), dict(per_layer_names())
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, units = end_to_end(ops, statistics.median(setups)), dict(END_TO_END)
    ok = sum(op.verdict.ok for op in ops)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {ok} ok, "
          f"{sum(op.traced for op in ops)} traced")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    result = {"correct": not wrong_ops, "attempted": len(ops), "failed": len(ops) - ok,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not wrong_ops else 1


def run_all(args) -> int:
    """Run every workload in its own process; relay their output."""
    results, worst = {}, 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    summary = {"correct": worst == 0 and all(r and r["correct"] for r in results.values()),
               "workloads": results}
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
