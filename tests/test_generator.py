import hashlib
import random
import re
import sys
from pathlib import Path

import pytest

from edd.generator import CutModel, InfeasibleParams, instance_from_cuts, random_instance
from edd.instance import EddInstance, parse_instance, serialize_instance, validate_consistency
from edd.reduction import complete_graph, reduce_graph
from edd.solver import canonical_key, solve
from edd.verifier import brute_force_solve, verify_permutation

from conftest import demo_instance, dup_instance, expanded_solutions


def canon(inst):
    """Instance identity up to fragment renumbering."""
    return (tuple(sorted(zip(inst.a_lengths, inst.ab_sets))),
            tuple(sorted(zip(inst.b_lengths, inst.ba_sets))))


def test_cut_model_validation():
    with pytest.raises(ValueError):
        CutModel(10, (3, 3), ())
    with pytest.raises(ValueError):
        CutModel(10, (10,), ())
    with pytest.raises(ValueError):
        CutModel(10, (4,), (4,))
    CutModel(10, (4,), (5,))


def test_demo_cuts_reproduce_demo_instance():
    inst, truth = instance_from_cuts(CutModel(90, (9, 21, 36, 73), (6, 44)))
    assert canon(inst) == canon(demo_instance())
    assert inst.a_lengths == (9, 12, 15, 37, 17)  # left-to-right order
    assert verify_permutation(inst, truth.pi_a, truth.pi_b)


def test_no_cuts_single_fragment():
    inst, truth = instance_from_cuts(CutModel(5, (), ()))
    assert inst.a_lengths == (5,) and inst.b_lengths == (5,)
    assert truth.pi_a == (0,) and truth.pi_b == (0,)
    assert validate_consistency(inst).ok


def test_dup_cuts_reproduce_dup_instance():
    inst, _ = instance_from_cuts(CutModel(37, (18,), (5, 12, 25, 33)))
    assert canon(inst) == canon(dup_instance())
    assert validate_consistency(inst).ok


def test_cuts_instances_always_consistent():
    for seed in range(25):
        inst, truth = random_instance(seed, seed % 5 + 1, (seed * 3) % 5 + 1, 1000)
        report = validate_consistency(inst)
        assert report.ok
        assert verify_permutation(inst, truth.pi_a, truth.pi_b)


def test_random_instance_deterministic():
    a = random_instance(42, 3, 2, 100)[0]
    b = random_instance(42, 3, 2, 100)[0]
    assert a == b
    assert serialize_instance(a) == serialize_instance(b)
    assert parse_instance(serialize_instance(a)) == a
    # equal data compares and hashes equal whichever path built it: the
    # generator's cuts, unsorted tuple multisets, and text with the values
    # of each line shuffled, in serialized line order or not
    rng = random.Random(4)
    for seed in range(20):
        inst = random_instance(seed, 6, 5, 30)[0]
        sets = [[rng.sample(s, len(s)) for s in side] for side in (inst.ab_sets, inst.ba_sets)]
        lines = [line.split() for line in serialize_instance(inst).splitlines()]
        lines = lines[:3] + [line[:2] + rng.sample(line[2:], len(line) - 2) for line in lines[3:]]
        texts = ["\n".join(map(" ".join, order)) + "\n"
                 for order in (lines, lines[:3] + rng.sample(lines[3:], len(lines) - 3))]
        from_tuples = EddInstance(inst.a_lengths, inst.b_lengths, *sets)
        for other in (from_tuples, *map(parse_instance, texts)):
            assert other == inst and hash(other) == hash(inst)
    # equal values split at other fragment boundaries are other data
    assert EddInstance((3, 3), (6,), ((1, 2), (3,)), ((1, 2, 3),)) != \
        EddInstance((3, 3), (6,), ((1, 2, 3), ()), ((1, 2, 3),))


def test_random_instance_single_fragment():
    inst, truth = random_instance(5, 1, 1, 50)
    assert inst.p == 1 and inst.q == 1
    assert verify_permutation(inst, truth.pi_a, truth.pi_b)


def test_min_duplicates_flag():
    inst, _ = random_instance(1, 3, 3, 8, min_duplicates=2)
    values = [v for s in inst.ab_sets for v in s]
    assert len(values) - len(set(values)) >= 2


def test_duplicate_free_flag():
    inst, _ = random_instance(1, 4, 4, 10**6, duplicate_free=True)
    values = [v for s in inst.ab_sets for v in s]
    assert len(values) == len(set(values))


def test_infeasible_params():
    with pytest.raises(InfeasibleParams):
        random_instance(1, 5, 5, 8)
    with pytest.raises(InfeasibleParams):
        random_instance(1, 0, 3, 100)
    with pytest.raises(InfeasibleParams):
        random_instance(1, 2, 2, 3, min_duplicates=1, duplicate_free=True)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 3, 3, 100), {"min_duplicates": 5},
     "min_duplicates 5 exceeds n - 1 = 4 (n = p + q - 1 pieces)"),
    ((1, 1, 1, 50), {"min_duplicates": 1},
     "min_duplicates 1 exceeds n - 1 = 0 (n = p + q - 1 pieces)"),
    ((1, 3, 3, 14), {"duplicate_free": True},
     "5 distinct piece lengths need a line of n(n+1)/2 = 15"),
    ((1, 100_001, 99_999, 4 * 10**13), {"duplicate_free": True},
     "199999 pieces on a length-40000000000000 line expect n^3/(4 total) = 50.0 repeats"),
    ((1, 1, 1, -5), {}, "total_length must be positive"),
    ((1, 1, 1, 0), {}, "total_length must be positive"),
    ((1, 3, 3, 100), {"min_duplicates": -1}, "min_duplicates must be at least 0, got -1"),
    ((1, 3, 3, 100), {"min_duplicates": -1, "duplicate_free": True},
     "min_duplicates must be at least 0, got -1"),
])
def test_hopeless_profiles_refused_before_any_draw(monkeypatch, args, kwargs, message):
    import edd.generator as generator
    monkeypatch.setattr(generator, "random", None)   # any draw would fail on it
    with pytest.raises(InfeasibleParams, match=f"^{re.escape(message)}"):
        random_instance(*args, **kwargs)


def test_duplicate_free_at_the_smallest_line_draws():
    # 3 pieces of 1, 2 and 3: the bound n(n+1)/2 is met, and some draw meets it
    inst, _ = random_instance(2, 2, 2, 6, duplicate_free=True)
    assert sorted(v for s in inst.ab_sets for v in s) == [1, 2, 3]


def test_ground_truth_among_solver_output():
    for seed in range(20):
        p = seed % 4 + 1
        q = (seed * 7) % 4 + 1
        inst, truth = random_instance(seed + 40, p, q, 400)
        truth_key = canonical_key(inst, truth)
        keys = set()
        for _aid, fam in solve(inst):
            for sol in expanded_solutions(fam):
                keys.add(canonical_key(inst, sol))
        assert truth_key in keys


def test_solver_oracle_equality_on_generated():
    for seed in range(15):
        p = seed % 3 + 1
        q = (seed * 5) % 3 + 2
        for kwargs in ({}, {"min_duplicates": 1}):
            total = p + q + 3 if kwargs else 600
            try:
                inst, _ = random_instance(seed + 7, p, q, total,
                                          max_retries=2000, **kwargs)
            except InfeasibleParams:
                continue
            keys = set()
            for _aid, fam in solve(inst):
                for sol in expanded_solutions(fam):
                    keys.add(canonical_key(inst, sol))
            oracle = {canonical_key(inst, s) for s in brute_force_solve(inst)}
            assert keys == oracle


# sha256 of each map's text and its truth, as the generator wrote them
# before instances were built from arrays; the benchmark writes its maps
# with this generator, so they must not drift
PINNED = {
    "free": "c5dd1f1f9d57af7f6c09bc59a5c247fed037a2fde50c1ef2efac24b0e3a18fe5",
    "dup": "6bac978fbd0bfaf05591b4b9ce182b6128d6183813a8f612e6d904c913f6bd27",
    "dup_1e4": "8fb040d24c157bc74cf352a2193a5b6e914647d77866e566b7836f6ca26ecb76",
    "4e18": "31c7a7390468f8ec099e64b1129ac6bb3ccb28c327f4fe7f02754ff98c443aae",
    "past_int64": "8abea6383611d8dadc2abbeca8f69795fbd3fcca28f55fcbd12422a28c7903ff",
    "K5": "5a2cb86a265cc004ec9cbec372fdc401df44bc56845c19cc8faa14f68e5bd949",
    "break_layout": "ba17946daa2c7c9cacd9dc300f5c8ff2e654bab04ed1240e0086682c60ca26ff",
}


def _pinned_maps():
    """(name, instance, truth or None) of the generator's pinned outputs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import break_layout
    broken, truth = random_instance(14, 300, 300, 10**7)
    return [
        ("free", *random_instance(11, 40, 35, 10**12, duplicate_free=True)),
        ("dup", *random_instance(12, 60, 60, 250, min_duplicates=20)),
        ("dup_1e4", *random_instance(7, 5001, 4999, 200_000)),
        ("4e18", *random_instance(13, 50, 45, 4 * 10**18)),
        ("past_int64", *instance_from_cuts(CutModel(2**63, (5,), (3,)))),
        ("K5", reduce_graph(complete_graph(5)).instance, None),
        ("break_layout", break_layout(broken, truth, random.Random(14)), None),
    ]


def test_generator_bytes_are_pinned():
    got = {}
    for name, inst, truth in _pinned_maps():
        h = hashlib.sha256(serialize_instance(inst).encode())
        if truth is not None:
            h.update(repr([list(truth.pi_a), list(truth.pi_b), list(truth.c_values())]).encode())
        got[name] = h.hexdigest()
    assert got == PINNED
