import random
import tracemalloc
from dataclasses import replace
from itertools import islice, permutations, product, zip_longest

import numpy as np
import pytest

from edd.generator import CutModel, instance_from_cuts, random_instance
from edd.instance import (
    COUNT,
    SUM_A,
    UNION_MISMATCH,
    MAX_LENGTH,
    AssignmentCapExceeded,
    CPermutation,
    EddInstance,
    ParseError,
    count_assignments,
    label_duplicates,
    parse_instance,
    serialize_instance,
    _labeling_plan,
    _rank,
    validate_consistency,
)

from conftest import DEMO_TEXT, demo_instance, dup_instance, multi_dup_instance
from labeling_reference import (
    PLAN_FIELDS,
    reference_labeling_plan,
    reference_occurrence_counts,
    reference_union_mismatch,
)


def test_parse_demo_document():
    text = "# demo dataset\n" + DEMO_TEXT.replace("AB 1 3 6", "AB 1 3 6   # fragment one")
    inst = parse_instance(text)
    assert inst == demo_instance()
    assert inst.p == 5 and inst.q == 3
    assert inst.ab_sets[0] == (3, 6)
    assert inst.ba_sets[2] == (17, 29)


def test_parse_single_fragment():
    inst = parse_instance("EDD 1\nA 5\nB 5\nAB 1 5\nBA 1 5\n")
    assert inst.p == 1 and inst.q == 1
    assert inst.a_lengths == (5,) and inst.ba_sets == ((5,),)


def test_parse_index_out_of_range():
    text = "EDD 1\nA 3 4\nB 7\nAB 1 3\nAB 3 4\nBA 1 3 4\n"
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert "out of range" in str(exc.value)
    assert exc.value.line_no == 5


@pytest.mark.parametrize("text,fragment", [
    ("A 5\nB 5\nAB 1 5\nBA 1 5\n", "EDD 1"),
    ("EDD 2\nA 5\nB 5\n", "EDD 1"),
    ("EDD 1\nA 5\nA 6\nB 5\nAB 1 5\nBA 1 5\n", "duplicate A"),
    ("EDD 1\nA 5\nB 5\nAB 1 5\nAB 1 5\nBA 1 5\n", "duplicate AB"),
    ("EDD 1\nA 5\nB 5\nAB 1 5\nBA 1 5\nXY 1 2\n", "unknown line"),
    ("EDD 1\nA 0\nB 5\nAB 1 5\nBA 1 5\n", "non-positive"),
    ("EDD 1\nA -2\nB 5\nAB 1 5\nBA 1 5\n", "non-positive"),
    ("EDD 1\nA 9223372036854775808\nB 5\nAB 1 5\nBA 1 5\n", "63-bit"),
    ("EDD 1\nA 5\nB 5\nBA 1 5\n", "missing AB"),
    ("EDD 1\nA 5\nAB 1 5\n", "missing B"),
    ("EDD 1\nAB 1 5\nA 5\nB 5\nBA 1 5\n", "AB line before A"),
    ("EDD 1\nA 5\nB 5\nAB 1 x\nBA 1 5\n", "invalid integer"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment.lower() in str(exc.value).lower()


def test_serialize_demo_golden():
    assert serialize_instance(demo_instance()) == DEMO_TEXT


def test_serialize_roundtrip_single():
    inst = parse_instance("EDD 1\nA 5\nB 5\nAB 1 5\nBA 1 5\n")
    text = serialize_instance(inst)
    assert text.count("\n") == 5
    assert parse_instance(text) == inst


def test_serialize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        inst = EddInstance(
            a_lengths=tuple(rng.randint(1, 99) for _ in range(p)),
            b_lengths=tuple(rng.randint(1, 99) for _ in range(q)),
            ab_sets=tuple(tuple(rng.randint(1, 99) for _ in range(rng.randint(1, 4)))
                          for _ in range(p)),
            ba_sets=tuple(tuple(rng.randint(1, 99) for _ in range(rng.randint(1, 4)))
                          for _ in range(q)),
        )
        assert parse_instance(serialize_instance(inst)) == inst
        assert serialize_instance(parse_instance(serialize_instance(inst))) == serialize_instance(inst)


def test_validate_demo_ok():
    assert validate_consistency(demo_instance()).ok


def test_validate_dup_demo_ok():
    inst = dup_instance()
    report = validate_consistency(inst)
    assert report.ok
    assert sum(len(s) for s in inst.ab_sets) == inst.p + inst.q - 1 == 6


def test_validate_reports_sum_and_union():
    inst = demo_instance()
    broken = EddInstance(inst.a_lengths, inst.b_lengths,
                         ((3, 7),) + inst.ab_sets[1:], inst.ba_sets)
    report = validate_consistency(broken)
    assert report.rules() == (SUM_A, UNION_MISMATCH)
    assert "1" in report.violations[0].detail


def test_validate_count_rule_alone():
    inst = EddInstance((4, 6), (4, 6), ((4,), (6,)), ((4,), (6,)))
    report = validate_consistency(inst)
    assert report.rules() == (COUNT,)


def test_validate_reports_all_failures():
    inst = EddInstance((5, 9), (4, 11), ((5,), (2, 6)), ((4,), (3, 9)))
    rules = validate_consistency(inst).rules()
    assert SUM_A in rules and "SUM_B" in rules and UNION_MISMATCH in rules


def test_label_demo_single_assignment():
    labs = list(label_duplicates(demo_instance()))
    assert len(labs) == 1
    elems = list(labs[0].c_elements)
    assert sorted(e.value for e in elems) == [3, 6, 8, 12, 15, 17, 29]
    assert all(e.copy_id == 1 for e in elems)


def test_label_dup_demo_two_assignments():
    labs = list(label_duplicates(dup_instance()))
    assert len(labs) == 2

    def seven_owners(lab):
        return {e.copy_id: e.b_owner for e in lab.c_elements if e.value == 7}

    # copy 1 lives in the first A-fragment; its BA slot is either BA_3
    # (index 2) or BA_5 (index 4).
    assert seven_owners(labs[0]) == {1: 2, 2: 4}
    assert seven_owners(labs[1]) == {1: 4, 2: 2}


def test_label_count_matches_factorial_product():
    inst = multi_dup_instance()
    assert validate_consistency(inst).ok
    assert count_assignments(inst) == 12
    labs = list(label_duplicates(inst))
    assert len(labs) == 12
    keys = {tuple(lab.c_elements) for lab in labs}
    assert len(keys) == 12


def test_rank_matches_stable_argsort(monkeypatch):
    """Small and large lengths, repeats, and lengths that differ only in
    the bits the packed sort shifts out, which send it to the argsort."""
    stable = np.argsort
    fallbacks, took = [], []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: fallbacks.append(1) or stable(*a, **k))
    rng = np.random.default_rng(2)
    for trial in range(3000):
        n = int(rng.integers(0, 60))
        low, high = [(1, 10), (MAX_LENGTH - 20, MAX_LENGTH), (1, MAX_LENGTH),
                     (2**62, 2**62 + 64), (1, 2**61 // max(n, 1))][trial % 5]
        values = rng.integers(low, high, n, endpoint=True)
        want = stable(values, kind="stable")
        fallbacks.clear()
        assert np.array_equal(_rank(values), want), values
        if trial % 5 in (1, 3) and n > 1:   # close values past the packing limit
            took.append(bool(fallbacks))
    assert 0 < sum(took) < len(took), sum(took)


def _old_labelings(inst):
    """Every labeling in the order ``itertools.product`` over each
    group's permutations gives them."""
    ident, groups = _labeling_plan(inst)
    for combo in product(*(permutations(range(len(c))) for c, _ in groups)):
        b_own = ident.b_owners.copy()
        for (cpos, owners), perm in zip(groups, combo):
            b_own[cpos] = [owners[s] for s in perm]
        yield replace(ident, b_owners=b_own)


def _same_labelings(got, want):
    return all(np.array_equal(g.c_elements.columns, w.c_elements.columns)
               for g, w in zip_longest(got, want, fillvalue=CPermutation(np.empty((4, 0)))))


def test_label_nine_copies_start_without_holding_all_permutations():
    # nine pieces of length 10, one group of 9! bijections
    inst = instance_from_cuts(CutModel(90, (10, 30, 50, 70), (20, 40, 60, 80)))[0]
    assert inst.ab_sets == ((10,), (10, 10), (10, 10), (10, 10), (10, 10))
    tracemalloc.start()
    try:
        first = next(label_duplicates(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    old = list(islice(_old_labelings(inst), 50))
    assert _same_labelings([first], old[:1])
    assert _same_labelings(islice(label_duplicates(inst), 50), old)


def test_label_order_of_several_groups():
    """Later groups vary fastest, each group's bijections in
    lexicographic order, through every labeling."""
    for inst in (dup_instance(), multi_dup_instance(),
                 random_instance(4, 5, 6, 24, min_duplicates=4)[0]):
        assert len(_labeling_plan(inst)[1]) >= 1
        assert _same_labelings(label_duplicates(inst), _old_labelings(inst))


def test_label_cap():
    with pytest.raises(AssignmentCapExceeded) as exc:
        label_duplicates(multi_dup_instance(), max_assignments=11)
    assert exc.value.count == 12 and exc.value.cap == 11


def test_label_grouping_recovers_multisets():
    for inst in (demo_instance(), dup_instance(), multi_dup_instance()):
        for lab in label_duplicates(inst):
            elems = list(lab.c_elements)
            assert len({(e.value, e.copy_id) for e in elems}) == len(elems)
            for i, ab in enumerate(inst.ab_sets):
                assert tuple(sorted(e.value for e in elems if e.a_owner == i)) == ab
            for j, ba in enumerate(inst.ba_sets):
                assert tuple(sorted(e.value for e in elems if e.b_owner == j)) == ba


def test_label_deterministic():
    runs = [[tuple(lab.c_elements) for lab in label_duplicates(multi_dup_instance())]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_empty_multiset_line_roundtrips_and_fails_validation():
    text = "EDD 1\nA 5\nB 5\nAB 1\nBA 1 5\n"
    inst = parse_instance(text)
    assert inst.ab_sets == ((),)
    assert serialize_instance(inst) == text
    rules = validate_consistency(inst).rules()
    assert SUM_A in rules


def test_large_lengths_validate_exactly():
    big = 2**62 + 11
    good = EddInstance((big, 7), (big, 7), ((3, big - 3), (7,)),
                       ((big - 3, 3), (7,)))
    assert validate_consistency(good).ok
    # sums near the 63-bit edge are re-checked exactly in Python
    bad = EddInstance((big, 7), (big + 1, 7), ((3, big - 3), (7,)),
                      ((big - 3, 3), (7,)))
    report = validate_consistency(bad)
    assert report.rules() == ("SUM_B",)
    assert str(big) in report.violations[0].detail


def test_segment_sum_wraparound_is_caught():
    # every value is below 2^62, but AB_1 sums to 2^64 + a_1 in int64
    piece = 2**62 - 1
    inst = EddInstance(((5 * piece) % 2**64,), (piece,) * 5, ((piece,) * 5,),
                       ((piece,),) * 5)
    report = validate_consistency(inst)
    assert report.rules() == (SUM_A,)
    assert str(5 * piece) in report.violations[0].detail


def _rank_once_cases():
    for seed in range(12):
        yield random_instance(seed, 30 + seed, 25, 10**12, duplicate_free=True)[0]
        yield random_instance(seed, 50, 50, 200)[0]
    # every piece 10 long: one tie run spans each side
    yield instance_from_cuts(CutModel(100, (10, 30, 50, 70, 90), (20, 40, 60, 80)))[0]
    # one piece too long for (length, position) to share an int64 key, then ties
    head = 4 * 10**18
    yield instance_from_cuts(CutModel(head + 200, tuple(range(head, head + 200, 20)),
                                      tuple(range(head + 10, head + 200, 20))))[0]


def test_rank_once_plan_matches_stable_sort_reference():
    for inst in _rank_once_cases():
        ident, groups = _labeling_plan(inst)
        *want_fields, want_groups = reference_labeling_plan(inst)
        for name, want in zip(PLAN_FIELDS, want_fields, strict=True):
            assert np.array_equal(getattr(ident, name), want), name
        assert groups == want_groups
        order_a = np.argsort(ident.rank)
        assert np.array_equal(order_a, np.lexsort((ident.copy_ids, ident.values)))


def test_along_line_copy_ids_match_stable_sort_reference():
    rng = np.random.default_rng(3)
    past_int64_key = 0
    for inst in _rank_once_cases():
        values = inst._flats()[0]
        for line in (values, values[::-1], rng.permutation(values)):
            owners = np.zeros(len(line), dtype=np.int64)
            got = CPermutation.along_line(line, owners, owners).columns[3]
            assert np.array_equal(got, reference_occurrence_counts(line))
        past_int64_key += int(values.max()) >= MAX_LENGTH // len(values)
    assert past_int64_key == 1


def test_rank_once_union_mismatch_names_the_same_position():
    rng = random.Random(5)
    checked = 0
    for inst in _rank_once_cases():
        ba = [list(s) for s in inst.ba_sets]
        j = rng.randrange(len(ba))
        ba[j][rng.randrange(len(ba[j]))] += rng.choice((1, 7, 1000))
        broken = EddInstance(inst.a_lengths, inst.b_lengths, inst.ab_sets, ba)
        want = reference_union_mismatch(broken)
        got = [v.detail for v in validate_consistency(broken).violations
               if v.rule == UNION_MISMATCH]
        assert got == ([want] if want else [])
        checked += bool(want)
    assert checked > 20
