import pytest

from edd.generator import CutModel, InfeasibleParams, instance_from_cuts, random_instance
from edd.instance import parse_instance, serialize_instance, validate_consistency
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
