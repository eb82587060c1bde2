"""Stage and end-to-end wall times of ``edd solve`` and ``edd verify``: a
change against its parent.

    python3 tools/stage_times.py > BENCH_<PR>.json

The change is the ``src/`` of this checkout.  Its parent is ``HEAD``
when ``src/`` differs from ``HEAD`` (the change is not committed yet),
otherwise ``HEAD~1``; the parent's ``src/`` is exported with
``git archive`` into a temporary directory.  The inputs are ten fixed
maps, written there by this checkout's generator:

- ``free_N``: ``random_instance(7, N/2 + 1, N/2 - 1, 4 * 10**18,
  duplicate_free=True)``;
- ``dup_N``: ``random_instance(7, N/2 + 1, N/2 - 1, 20 * N)``, a mean
  piece length of about 10, so most lengths repeat;
- ``nomap_N``: ``free_N`` with one sub-fragment moved by
  ``perfbench/workloads.break_layout`` (``random.Random(7)``):
  consistent, with no layout;

for N = 10**4, 10**5 and 10**6 fragments, and ``layouts``, the
27-fragment map ``perfbench/workloads.layout_map(7, 0)`` of the
all-layouts cut pattern, with 8,640 distinct layouts.  Each free and
nomap map also gets the generator's truth as an orders file, its ``PA``
and ``PB`` lines (the nomap map's truth being free's).  Each of five
runs measures each map on both sides, the parent first in runs 1, 3
and 5 and the change first in runs 2 and 4, since the core speed of a
shared machine drifts; each stage and e2e row keeps its runs, their
median and their min.  A side is measured in two child processes:

- stages, all in one process: read the file and ``parse_instance`` it
  as ``cli._load_instance`` does (``cli._read_file`` into a bytearray),
  their sum as ``read+parse``, ``validate_consistency``,
  ``_labeling_plan``, the first labeling as ``solve`` builds it, plan
  included (the first item of ``solver._distinct_labelings`` under the
  default assignment cap; on a map whose classes pass the cap, the time
  until it raises ``AssignmentCapExceeded``, as ``solve`` does, and the
  plan's identity labeling goes on to the screen), the structure screen
  (``check_structure``, on the labeling that an untimed ``build_graph``
  checked), ``dangler_first_search``, the family's ``--emit-families``
  line (its values as a list, then ``cli._family_notation``) and
  rendering the text of the first layout
  (``cli._write_layouts`` into a sink that drops it); the last three
  only when the screen finds no violation; and on a map with an orders
  file, ``verify_permutation`` of those orders, on an instance parsed
  afresh (untimed) so that it ranks its flats as ``edd verify`` does.
  Each stage's time is the
  median of 5, 3 or 1 repetitions at 10**4, 10**5 or 10**6 fragments,
  and of 5 on ``layouts``.  Next to each time it keeps the minor page
  faults the stage took (``ru_minflt`` before and after, the median
  over the same repetitions): glibc gives freed heap back to the system
  between calls, so a stage that allocates large temporaries faults
  their pages in again on every call, in system time;
- e2e: ``python -m edd solve MAP``, with ``--all`` on ``layouts``, and
  on a map with an orders file ``python -m edd verify MAP --orders
  FILE``, each with its wall time, exit code, peak RSS, minor page
  faults (``os.wait4``) and a hash of its stdout, which goes to a file.

The JSON report goes to stdout, progress lines to stderr.  The script
takes no options.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = 5
SIZES = {"1e4": 10**4, "1e5": 10**5, "1e6": 10**6}
REPS = {"1e4": 5, "1e5": 3, "1e6": 1}
STAGES = ("read", "parse", "read+parse", "validate", "plan", "label", "screen", "dangler",
          "notation", "render", "verify")
E2E = ("e2e_solve", "e2e_verify")

STAGE_CODE = r'''
import json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from edd import cli, solver
from edd.digestgraph import build_graph, check_structure
from edd.instance import AssignmentCapExceeded, _labeling_plan, parse_instance, validate_consistency
from edd.solver import DEFAULT_MAX_ASSIGNMENTS, dangler_first_search, expand_family
from edd.verifier import verify_permutation

path, reps, orders = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
times, faults = {}, {}

def read():
    return cli._read_file(path, ascii_bytes=True)

def timed(name, fn):
    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        return fn()
    finally:
        times.setdefault(name, []).append(time.perf_counter() - start)
        faults.setdefault(name, []).append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)

for _ in range(reps):
    text = timed("read", read)
    inst = timed("parse", lambda: parse_instance(text))
    del text
    for table in (times, faults):
        table.setdefault("read+parse", []).append(table["read"][-1] + table["parse"][-1])
    timed("validate", lambda: validate_consistency(inst))
    plan = timed("plan", lambda: _labeling_plan(inst))
    try:
        _aid, lab = timed("label", lambda: next(solver._distinct_labelings(inst, DEFAULT_MAX_ASSIGNMENTS)))
    except AssignmentCapExceeded:   # where solve stops; screen the identity labeling
        lab = plan[0]
    g = build_graph(lab)
    verdict = timed("screen", lambda: check_structure(g))
    if verdict.violation is None:
        fam = timed("dangler", lambda: dangler_first_search(g, verdict))
        timed("notation", lambda: f"family: {cli._family_notation(fam, fam.c_value_array().tolist())}")
        timed("render", lambda: cli._write_layouts(inst, expand_family(fam, 1), lambda text: None))
    del inst, plan, lab, g, verdict
    if orders:
        fresh = parse_instance(read())
        pa, pb = cli._read_orders(orders[0], fresh.p, fresh.q)
        timed("verify", lambda: verify_permutation(fresh, pa, pb, checked=True))
        del fresh, pa, pb
print(json.dumps({name: [statistics.median(ts), statistics.median(faults[name])]
                  for name, ts in times.items()}))
'''


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(into: Path) -> tuple[str, str]:
    """Write the parent's src/ under ``into``; return (parent sha, change label)."""
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode
    parent = "HEAD" if dirty else "HEAD~1"
    sha = git("rev-parse", parent).decode().strip()
    change = "working tree" if dirty else git("rev-parse", "HEAD").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha, "src"))) as tar:
        tar.extractall(into, filter="data")
    return sha, change


MAP_CODE = r'''
import json, random, sys
from pathlib import Path
from edd.generator import random_instance
from edd.instance import serialize_instance
from workloads import break_layout

into, label, size = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
p, q = size // 2 + 1, size // 2 - 1
free, truth = random_instance(7, p, q, 4 * 10**18, duplicate_free=True)
dup, _ = random_instance(7, p, q, 20 * size)
specs = {
    "free": (f"random_instance(7, {p}, {q}, 4 * 10**18, duplicate_free=True)", free),
    "dup": (f"random_instance(7, {p}, {q}, {20 * size})", dup),
    "nomap": (f"free_{label} with one sub-fragment moved by break_layout(random.Random(7))",
              break_layout(free, truth, random.Random(7))),
}
for kind, (spec, inst) in specs.items():
    (into / f"{kind}_{label}.edd").write_text(serialize_instance(inst), encoding="utf-8")
    specs[kind] = spec
    if kind != "dup":
        (into / f"{kind}_{label}.orders").write_text(
            "".join(f"{tag} {' '.join(str(i + 1) for i in order)}\n"
                    for tag, order in (("PA", truth.pi_a), ("PB", truth.pi_b))), encoding="utf-8")
print(json.dumps(specs))
'''

LAYOUT_CODE = r'''
import sys
from edd.instance import serialize_instance
from workloads import layout_map

inst, _truth = layout_map(7, 0)
open(sys.argv[1], "w", encoding="utf-8").write(serialize_instance(inst))
'''


def write_maps(into: Path) -> dict:
    """The ten input maps, made by this checkout's generator in child
    processes, so that this process stays small: a child's peak RSS counts
    the process it was started from.  Returns name -> (path, spec,
    stage repetitions, e2e solve options, orders file or None)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "perfbench"))))
    maps = {}
    for label, size in SIZES.items():
        done = subprocess.run([sys.executable, "-c", MAP_CODE, str(into), label, str(size)],
                              env=env, check=True, capture_output=True, text=True)
        for kind, spec in json.loads(done.stdout).items():
            orders = into / f"{kind}_{label}.orders"
            maps[f"{kind}_{label}"] = (into / f"{kind}_{label}.edd", spec, REPS[label], [],
                                       orders if orders.exists() else None)
            log(f"wrote {kind}_{label}.edd")
    path = into / "layouts.edd"
    subprocess.run([sys.executable, "-c", LAYOUT_CODE, str(path)], env=env, check=True)
    maps["layouts"] = (path, "perfbench/workloads.layout_map(7, 0)", 5, ["--all"], None)
    log("wrote layouts.edd")
    return maps


def child(argv: list[str], src: Path, out: Path) -> dict:
    """Run one child process on ``src``, its stdout to the file ``out``:
    its wall time, exit code, peak RSS in MB, minor page faults and a
    hash of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    with out.open("wb") as sink, subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL,
                                                   stdout=sink) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, so Popen does not wait
    seconds = round(time.perf_counter() - start, 4)
    # hashed in chunks: a child's peak RSS starts from this process's RSS
    digest = hashlib.blake2b(digest_size=8)
    with out.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return {"s": seconds, "exit": proc.returncode, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "minflt": usage.ru_minflt, "stdout": digest.hexdigest()}


def measure(src: Path, stage_script: Path, path: Path, reps: int, options: list[str],
            orders: Path | None) -> tuple[dict, dict]:
    """The stage times and the e2e rows of one map on one side."""
    out = stage_script.with_name("stdout")
    extra = [str(orders)] if orders else []
    ran = child([sys.executable, str(stage_script), str(src), str(path), str(reps), *extra],
                src, out)
    if ran["exit"] != 0:
        raise RuntimeError(f"stage run failed on {path.name} with {src}")
    stages = json.loads(out.read_text())
    e2e = {"e2e_solve": child([sys.executable, "-m", "edd", "solve", str(path), *options],
                              src, out)}
    if orders:
        e2e["e2e_verify"] = child([sys.executable, "-m", "edd", "verify", str(path),
                                   "--orders", str(orders)], src, out)
    return stages, e2e


def tabulate(raw: dict) -> dict:
    """Per map, per stage and e2e row, each side's runs, median and min;
    a stage's runs are its times, ``minflt`` the median of its faults."""
    results = {}
    for name, by_side in raw.items():
        rows: dict = {}
        for stage in STAGES:
            for side, measured in by_side.items():
                runs = [stages[stage] for stages, _ in measured if stage in stages]
                if runs:
                    secs = [round(t, 5) for t, _ in runs]
                    rows.setdefault(stage, {})[side] = {
                        "runs": secs, "median": round(statistics.median(secs), 5),
                        "min": min(secs), "minflt": statistics.median(f for _, f in runs)}
        for row in E2E:
            for side, measured in by_side.items():
                runs = [e2e[row] for _, e2e in measured if row in e2e]
                if not runs:
                    continue
                rows.setdefault(row, {})[side] = {"runs": runs, "median": {
                    "s": round(statistics.median(r["s"] for r in runs), 4),
                    "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
                    "minflt": statistics.median(r["minflt"] for r in runs),
                    "exit": sorted({r["exit"] for r in runs}),
                    "stdout": sorted({r["stdout"] for r in runs})}, "min": {
                    "s": min(r["s"] for r in runs),
                    "peak_rss_mb": min(r["peak_rss_mb"] for r in runs)}}
        results[name] = rows
    return results


def summarize(results: dict) -> dict:
    summary = {}
    for name, rows in results.items():
        for row, sides in rows.items():
            if len(sides) < 2:
                continue
            parent, change = sides["parent"]["median"], sides["change"]["median"]
            parent_min, change_min = sides["parent"]["min"], sides["change"]["min"]
            if row in E2E:
                same = len(parent["stdout"]) == 1 and parent["stdout"] == change["stdout"]
                summary[f"{name}.{row}"] = (
                    f"{parent['s']} -> {change['s']} s "
                    f"(min {parent_min['s']} -> {change_min['s']}), "
                    f"peak RSS {parent['peak_rss_mb']} -> {change['peak_rss_mb']} MB, "
                    f"minflt {parent['minflt']} -> {change['minflt']}, "
                    f"exit {parent['exit']} -> {change['exit']}, "
                    f"stdout {'identical' if same else 'DIFFERS'}")
            else:
                summary[f"{name}.{row}"] = (
                    f"{parent} -> {change} s (min {parent_min} -> {change_min}), minflt "
                    f"{sides['parent']['minflt']} -> {sides['change']['minflt']}")
    return summary


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="stage_times_"))
    try:
        parent_sha, change = export_parent(work / "parent")
        sides = {"parent": work / "parent" / "src", "change": ROOT / "src"}
        stage_script = work / "stages.py"
        stage_script.write_text(STAGE_CODE, encoding="utf-8")
        maps = write_maps(work)
        raw: dict = {name: {side: [] for side in sides} for name in maps}
        for run in range(RUNS):
            order = ("parent", "change") if run % 2 == 0 else ("change", "parent")
            for name, (path, _spec, reps, options, orders) in maps.items():
                for side in order:
                    stages, e2e = measure(sides[side], stage_script, path, reps, options, orders)
                    raw[name][side].append((stages, e2e))
                    log(f"run {run + 1} {name} {side}: " + ", ".join(
                        f"{row} {r['s']} s, exit {r['exit']}, {r['peak_rss_mb']} MB"
                        for row, r in e2e.items()))
        results = tabulate(raw)
        report = {
            "what": "Per-stage wall times and minor page faults of the edd solve and verify "
                    "paths in one process, and e2e `python -m edd solve MAP` and "
                    "`python -m edd verify MAP --orders FILE` with peak RSS, minor page "
                    "faults and a stdout hash: parent against change",
            "parent": parent_sha,
            "change": change,
            "machine": {"python": platform.python_version(),
                        "numpy": subprocess.run(
                            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                            check=True, capture_output=True, text=True).stdout.strip(),
                        "cpus": os.cpu_count(), "platform": platform.platform()},
            "inputs": {name: {"spec": spec, "bytes": path.stat().st_size, "solve": options,
                              "orders": orders is not None}
                       for name, (path, spec, _reps, options, orders) in maps.items()},
            "method": __doc__.split("\n\n", 2)[2].strip(),
            "summary": summarize(results),
            "results": results,
        }
        print(json.dumps(report, indent=1))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
