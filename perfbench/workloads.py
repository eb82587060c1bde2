"""Seeded input generator for the benchmark workloads.

Each workload turns ``--seed`` into a fixed list of EDD map files plus a
ground-truth file per map, written before any timing starts.  The same
seed always gives byte-identical files.  Every map must pass
``edd check`` (exit 0); the generator refuses to hand over one that
does not.

Run on its own to write the inputs of one workload:

    python3 perfbench/workloads.py --workload big-map --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from edd import cli  # noqa: E402
from edd.generator import CutModel, instance_from_cuts, random_instance  # noqa: E402
from edd.instance import EddInstance, serialize_instance  # noqa: E402

# all-layouts: the internal cut sites in line order, by enzyme.  Each run of
# B cuts inside one A-fragment leaves whole B-fragments as interchangeable
# pieces, so this pattern gives every map the same family shape: blocks of
# 3, 4 and 5, i.e. 3! * 4! * 5! = 17,280 expansions.
LAYOUT_PATTERN = "ABBBBABABBBBBABABBBBBBABA"
# Two pieces of the 5-block get equal lengths, so half of the expansions
# repeat a layout and 8,640 distinct layouts remain (under the 10,000 cap).
LAYOUT_EQUAL_PIECES = (17, 18)

BIG_P, BIG_Q, BIG_TOTAL = 10_001, 10_000, 4 * 10**17


class Truth:
    """Ground truth of one generated map, as the checker needs it."""

    def __init__(self, inst: EddInstance, pa, pb, c_values):
        self.p = inst.p
        self.q = inst.q
        self.pa = [i + 1 for i in pa]          # 1-based, as the CLI takes them
        self.pb = [j + 1 for j in pb]
        self.a_values = [inst.a_lengths[i] for i in pa]
        self.b_values = [inst.b_lengths[j] for j in pb]
        self.c_values = list(c_values)

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _map_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def big_map(seed: int, k: int):
    inst, truth = random_instance(_map_seed(seed, k), BIG_P, BIG_Q, BIG_TOTAL,
                                  duplicate_free=True)
    return inst, Truth(inst, truth.pi_a, truth.pi_b, truth.c_values())


def big_nomap(seed: int, k: int):
    inst, truth = random_instance(_map_seed(seed, k), BIG_P, BIG_Q, BIG_TOTAL,
                                  duplicate_free=True)
    moved = break_layout(inst, truth, random.Random(_map_seed(seed, k)))
    return moved, Truth(moved, truth.pi_a, truth.pi_b, truth.c_values())


def break_layout(inst: EddInstance, truth, rng: random.Random) -> EddInstance:
    """Move one sub-fragment to another B-fragment so no layout remains.

    Pick an A-fragment whose pieces x, y lie in B_j != B_k, move x from
    B_j (which keeps other pieces) to B_k and adjust both B lengths.  The
    sums, the union and the count still agree, so ``check`` passes, but
    A_i and B_k now share two pieces, and two intervals overlap in at
    most one piece: no layout exists.  The truth of the map before the
    move stays with the result, for ``verify`` to reject.
    """
    elems = list(truth.pi_c.order)             # line order
    ba_size = [len(s) for s in inst.ba_sets]
    start = rng.randrange(len(elems) - 1)
    for t in list(range(start, len(elems) - 1)) + list(range(start)):
        x, y = elems[t], elems[t + 1]
        if x.a_owner == y.a_owner and ba_size[x.b_owner] >= 2:
            break
    else:
        raise ValueError("no sub-fragment can be moved")
    j, kk = x.b_owner, y.b_owner
    b_lengths = list(inst.b_lengths)
    b_lengths[j] -= x.value
    b_lengths[kk] += x.value
    ba_sets = [list(s) for s in inst.ba_sets]
    ba_sets[j].remove(x.value)
    ba_sets[kk].append(x.value)
    return EddInstance(inst.a_lengths, tuple(b_lengths), inst.ab_sets,
                       tuple(tuple(s) for s in ba_sets))


def dup_map(seed: int, k: int):
    inst, truth = random_instance(_map_seed(seed, k), 200, 200, 10**6)
    return inst, Truth(inst, truth.pi_a, truth.pi_b, truth.c_values())


def layout_map(seed: int, k: int):
    rng = random.Random(_map_seed(seed, k))
    lengths = rng.sample(range(1, 10**6), len(LAYOUT_PATTERN) + 1)
    lengths[LAYOUT_EQUAL_PIECES[1]] = lengths[LAYOUT_EQUAL_PIECES[0]]
    cuts_a, cuts_b, pos = [], [], 0
    for kind, length in zip(LAYOUT_PATTERN, lengths):
        pos += length
        (cuts_a if kind == "A" else cuts_b).append(pos)
    inst, truth = instance_from_cuts(CutModel(pos + lengths[-1], cuts_a, cuts_b))
    return inst, Truth(inst, truth.pi_a, truth.pi_b, truth.c_values())


# name -> (map maker, number of maps per seed).  Ops cycle through the maps.
# dup-map maps differ in their work, so a 40 s run (about 90 ops) should
# not repeat them.
WORKLOADS = {
    "big-map": (big_map, 1),
    "big-nomap": (big_nomap, 1),
    "dup-map": (dup_map, 160),
    "all-layouts": (layout_map, 8),
}


def _check_exit(path: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["check", str(path)])


def write_inputs(workload: str, seed: int, out: Path) -> list[str]:
    """Write the workload's maps and truths into ``out``; return the map stems."""
    maker, count = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    stems = []
    for k in range(count):
        inst, truth = maker(seed, k)
        stem = f"{workload}-{seed}-{k}"
        edd_path = out / f"{stem}.edd"
        edd_path.write_text(serialize_instance(inst), encoding="utf-8")
        (out / f"{stem}.truth.json").write_text(json.dumps(truth.to_json()),
                                                encoding="utf-8")
        code = _check_exit(edd_path)
        if code != 0:
            raise RuntimeError(f"edd check exits {code} on {edd_path.name}")
        stems.append(stem)
    return stems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    stems = write_inputs(args.workload, args.seed, Path(args.out))
    print("\n".join(stems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
