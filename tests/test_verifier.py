import random
from collections import Counter

import numpy as np
import pytest

from edd.instance import EddInstance
from edd.generator import random_instance
from edd.solver import canonical_key
from edd.verifier import (
    COINCIDENT_CUT,
    SUM_MISMATCH,
    OracleCapExceeded,
    _is_permutation,
    brute_force_solve,
    verify_permutation,
)

from conftest import demo_instance, dup_instance
from format_reference import reference_verify


def test_verify_sum_mismatch():
    inst = EddInstance((5, 4), (5,), ((5,), (4,)), ((5,),))
    res = verify_permutation(inst, (0, 1), (0,))
    assert not res and res.reason == SUM_MISMATCH


def test_verify_rejects_non_permutation():
    inst = demo_instance()
    with pytest.raises(ValueError):
        verify_permutation(inst, (0, 0, 2, 4, 3), (0, 1, 2))


def test_linear_permutation_check_matches_sorting():
    rng = np.random.default_rng(17)
    for count in (0, 1, 2, 5, 64):
        base = rng.permutation(count)
        cases = [base, base[:-1], np.append(base, 0), base + 1, base - 1, base[::-1],
                 base.astype(np.uint64), base.reshape(1, -1)]
        if count > 1:
            cases += [np.where(base == 0, 1, base), np.where(base == count - 1, -1, base),
                      np.where(base == 0, count, base), np.where(base == 1, 2**63 - 1, base)]
        for idx in cases:
            want = idx.shape == (count,) and sorted(idx.tolist()) == list(range(count))
            assert _is_permutation(idx, count) == want, (idx, count)


def test_verify_demo_solution():
    inst = demo_instance()
    assert verify_permutation(inst, (0, 1, 2, 4, 3), (0, 1, 2))
    flipped = verify_permutation(inst, (0, 1, 2, 4, 3), (2, 1, 0))
    assert not flipped and flipped.reason is not None


def test_verify_single():
    inst = EddInstance((5,), (5,), ((5,),), ((5,),))
    assert verify_permutation(inst, (0,), (0,))


def test_verify_coincident_is_verdict_not_crash():
    # a-prefix 18 collides with b-prefix 5+13
    res = verify_permutation(dup_instance(), (0, 1), (1, 4, 3, 2, 0))
    assert not res and res.reason == COINCIDENT_CUT


def test_verify_mirror_symmetry():
    for seed in range(15):
        inst, truth = random_instance(seed, seed % 3 + 1, seed % 4 + 1, 200)
        pa, pb = truth.pi_a, truth.pi_b
        assert verify_permutation(inst, pa, pb)
        assert verify_permutation(inst, pa[::-1], pb[::-1])
        # perturbed orders keep the symmetry too
        if inst.p > 1:
            bad_pa = (pa[1], pa[0]) + pa[2:]
            fwd = verify_permutation(inst, bad_pa, pb)
            rev = verify_permutation(inst, bad_pa[::-1], pb[::-1])
            assert fwd.ok == rev.ok


def test_oracle_demo():
    inst = demo_instance()
    sols = brute_force_solve(inst)
    assert len(sols) == 2
    assert {s.c_values() for s in sols} == {
        (6, 3, 12, 15, 8, 29, 17), (6, 3, 15, 12, 8, 29, 17)}
    assert all(verify_permutation(inst, s.pi_a, s.pi_b) for s in sols)
    # output is canonical and sorted
    keys = [canonical_key(inst, s) for s in sols]
    assert keys == sorted(keys)


def test_oracle_dup_instance():
    sols = brute_force_solve(dup_instance())
    assert len(sols) == 4


def test_oracle_two_fragment_mirror_dedup():
    inst = EddInstance((3, 4), (7,), ((3,), (4,)), ((3, 4),))
    assert len(brute_force_solve(inst)) == 1


def test_oracle_cap():
    inst, _ = random_instance(3, 7, 7, 10_000)
    with pytest.raises(OracleCapExceeded):
        brute_force_solve(inst)
    # the threshold is adjustable in both directions
    small, _ = random_instance(3, 2, 2, 100)
    with pytest.raises(OracleCapExceeded):
        brute_force_solve(small, max_total=3)
    assert len(brute_force_solve(small, max_total=4)) >= 1


def _in_shared_run(inst, pa, pb, reason):
    """True when the fragment ``reason`` names gets the wrong count of a
    length that other fragments of its side hold too: a mismatch inside
    a run of equal lengths that spans several fragments."""
    side, k = reason.split(" ")[0].split("_")
    sets = inst.ab_sets if side == "AB" else inst.ba_sets
    a = np.cumsum([inst.a_lengths[i] for i in pa])
    b = np.cumsum([inst.b_lengths[j] for j in pb])
    bounds = sorted({0, *a.tolist(), *b.tolist()})
    cuts = a if side == "AB" else b
    order = pa if side == "AB" else pb
    got = Counter(hi - lo for lo, hi in zip(bounds, bounds[1:])
                  if order[int(np.searchsorted(cuts, lo, side="right"))] == int(k) - 1)
    want = Counter(sets[int(k) - 1])
    return any(got[v] != want[v] and sum(v in s for s in sets) > 1 for v in got | want)


def test_verifier_matches_reference_on_duplicate_runs():
    """Maps of 2-8 fragments a side on lines only a little longer than
    p + q, so that most pieces share their length with pieces of other
    fragments, under random layouts: the verdicts and reasons equal the
    reference's, and many mismatches lie inside a run of equal lengths."""
    rng = random.Random(21)
    reasons, in_runs = Counter(), 0
    for seed in range(500):
        p, q = rng.randint(2, 8), rng.randint(2, 8)
        inst, truth = random_instance(seed, p, q, p + q + rng.randint(2, 14))
        orders = [(truth.pi_a, truth.pi_b)]
        orders += [(tuple(rng.sample(range(p), p)), tuple(rng.sample(range(q), q)))
                   for _ in range(9)]
        for pa, pb in orders:
            want = reference_verify(inst, pa, pb)
            assert verify_permutation(inst, pa, pb) == want, (inst, pa, pb)
            reasons[want.reason and want.reason.split("_")[0]] += 1
            if want.reason and want.reason[:2] in ("AB", "BA"):
                in_runs += _in_shared_run(inst, pa, pb, want.reason)
    assert min(reasons[k] for k in (None, "AB", "BA")) >= 100, reasons
    assert in_runs >= 200, (in_runs, reasons)
