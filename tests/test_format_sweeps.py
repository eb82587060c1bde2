"""Equivalence sweeps: the array parser and verifier against the
pure-Python references in ``format_reference``."""

import os
import random
import threading

import numpy as np
import pytest

import edd.instance as instance
from edd.generator import random_instance
from edd.instance import EddInstance, ParseError, parse_instance, serialize_instance
from edd.verifier import CoincidentCut, SumMismatch, _cut_arrays, verify_permutation

from conftest import DEMO_TEXT, demo_instance, multi_dup_instance
from format_reference import reference_parse, reference_verify

BIG = 2**63 - 1
ODD_TOKENS = ["x", "0", "-3", "+5", "1_000", str(BIG), str(2**63), "-", "+", "1.5",
              "-99999999999999999999", "00012", "9" * 25, "٣", "5\x1f6", "5\xa06",
              "-0", "0x10", "1-2", " ", "7"]


def _parse_outcome(parse, text):
    try:
        inst = parse(text)
    except ParseError as err:
        return ("error", err.line_no, err.message)
    return ("ok", inst)


def _base_documents(rng):
    docs = [DEMO_TEXT, serialize_instance(multi_dup_instance())]
    for _ in range(6):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        docs.append(serialize_instance(EddInstance(
            a_lengths=tuple(rng.randint(1, 99) for _ in range(p)),
            b_lengths=tuple(rng.randint(1, 99) for _ in range(q)),
            ab_sets=tuple(tuple(rng.randint(1, 99) for _ in range(rng.randint(0, 4)))
                          for _ in range(p)),
            ba_sets=tuple(tuple(rng.randint(1, 99) for _ in range(rng.randint(0, 4)))
                          for _ in range(q)))))
    return docs


def _mutate_token(rng, line):
    tokens = line.split(" ")
    k = rng.randrange(len(tokens))
    tokens[k] = rng.choice(ODD_TOKENS)
    return " ".join(tokens)


def _mutate(rng, lines):
    lines = list(lines)
    op = rng.randrange(13)
    k = rng.randrange(len(lines)) if lines else 0
    if not lines:
        return ["EDD 1"]
    if op == 0:
        del lines[k]
    elif op == 1:
        lines.insert(k, lines[k])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif op == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(k))
    elif op in (4, 5):
        lines[k] = _mutate_token(rng, lines[k])
    elif op == 6:
        lines[k] = rng.choice([lines[k] + "  # note", "# " + lines[k],
                               lines[k].replace(" ", " # ", 1), "#", lines[k] + "#x 1"])
    elif op == 7:
        lines[k] = lines[k].replace(" ", rng.choice(["\t", "  ", " \t "]))
    elif op == 8:
        lines[k] = rng.choice(["EDD 2", "EDD 1 x", "EDD", "edd 1", "", "   "])
    elif op == 9:
        parts = lines[k].split(" ")
        if len(parts) > 1:
            parts[1] = rng.choice(["0", "9", "x", "+1", "01", "1", "2", "-1", "1_0"])
        lines[k] = " ".join(parts)
    elif op == 10:
        lines.insert(k, rng.choice(["XY 1 2", "ab 1 2", "A", "B", "AB", "BA 1", "AB 1",
                                    "A 5 5", "B 7", "\t", "AB 1 " + str(BIG)]))
    elif op == 11:
        lines[k] = lines[k].split(" ", 1)[0]
    else:
        lines[k] = lines[k] + " " + rng.choice(ODD_TOKENS)
    return lines


def test_parser_matches_reference_on_mutated_documents():
    rng = random.Random(20261018)
    docs = _base_documents(rng)
    outcomes = {"ok": 0, "error": 0}
    for trial in range(2400):
        lines = docs[trial % len(docs)].splitlines()
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            lines = _mutate(rng, lines)
        text = rng.choice(["\n", "\r\n", "\x0c", "\r", "\n\n"]).join(lines)
        if rng.random() < 0.5:
            text += rng.choice(["\n", "\r\n", "", "\x0c"])
        want = _parse_outcome(reference_parse, text)
        got = _parse_outcome(parse_instance, text)
        assert got == want, (trial, text)
        if want[0] == "ok":
            for mine, ref in zip(got[1]._flats(), want[1]._flats()):
                assert np.array_equal(mine, ref), (trial, text)
            assert got[1].a_lengths == want[1].a_lengths
        outcomes[want[0]] += 1
    # the sweep exercises both kinds of outcome
    assert min(outcomes.values()) >= 400, outcomes


def test_parser_reads_unsorted_and_odd_spellings():
    text = "EDD 1\nA  +9\t1_0 \nB 19\nBA 1 9 10\nAB 2 010\nAB 1 9\n"
    assert parse_instance(text) == reference_parse(text)
    fa, oa, offa, fb, ob, offb = parse_instance("EDD 1\nA 8 4\nB 12\nAB 2 1 3\n"
                                                "AB 1 5 1 2\nBA 1 5 3 2 1 1\n")._flats()
    assert fa.tolist() == [1, 2, 5, 1, 3] and oa.tolist() == [0, 0, 0, 1, 1]
    assert offa.tolist() == [0, 3, 5] and fb.tolist() == [1, 1, 2, 3, 5]


@pytest.mark.parametrize("token,message", [
    (str(2**63), f"length {2**63} exceeds 63-bit range"),
    ("-99999999999999999999", "non-positive length -99999999999999999999"),
    (str(BIG), None),
])
def test_parser_rechecks_the_int64_ceiling(token, message):
    text = f"EDD 1\nA 5 {token}\nB 5\nAB 1 5\nBA 1 5\n"
    got, want = _parse_outcome(parse_instance, text), _parse_outcome(reference_parse, text)
    assert got == want
    if message is not None:
        assert got == ("error", 2, message)


def _pieces_instance(pieces, a_cut_after):
    """Instance of a line cut into ``pieces``; after piece t the cut is
    the first enzyme's when ``a_cut_after[t]``, else the second's."""
    a_sets, b_sets, a_cur, b_cur = [], [], [], []
    for t, v in enumerate(pieces):
        a_cur.append(v)
        b_cur.append(v)
        if t == len(pieces) - 1 or a_cut_after[t]:
            a_sets.append(tuple(a_cur))
            a_cur = []
        if t == len(pieces) - 1 or not a_cut_after[t]:
            b_sets.append(tuple(b_cur))
            b_cur = []
    return EddInstance(tuple(map(sum, a_sets)), tuple(map(sum, b_sets)), a_sets, b_sets)


def _orders(rng, inst, pa, pb):
    yield pa, pb
    yield pa[::-1], pb[::-1]
    for _ in range(3):
        a, b = list(pa), list(pb)
        side = a if rng.random() < 0.5 else b
        i, j = rng.randrange(len(side)), rng.randrange(len(side))
        side[i], side[j] = side[j], side[i]
        yield tuple(a), tuple(b)
    k = rng.randrange(inst.p)
    yield pa[k:] + pa[:k], pb
    k = rng.randrange(inst.q)
    yield pa, pb[k:] + pb[:k]
    yield tuple(rng.sample(range(inst.p), inst.p)), tuple(rng.sample(range(inst.q), inst.q))


def _perturbed(rng, inst):
    """The instance with one length changed, moved or dropped, so some
    check fails."""
    a, b = list(inst.a_lengths), list(inst.b_lengths)
    ab, ba = [list(s) for s in inst.ab_sets], [list(s) for s in inst.ba_sets]
    mode = rng.randrange(4)
    if mode == 0:   # one length off
        target = rng.choice([a, b, rng.choice(ab), rng.choice(ba)])
        k = rng.randrange(len(target))
        target[k] = max(1, target[k] + rng.choice([-1, 1, 3]))
    elif mode == 1:   # C kept, one value moved to another fragment's multiset
        sets = rng.choice([ab, ba])
        src, dst = rng.choice(sets), rng.choice(sets)
        dst.append(src.pop(rng.randrange(len(src))))
    elif mode == 2:   # the BA side one value short or long, at its very end
        if rng.random() < 0.5:
            ba[-1].sort()
            ba[-1].pop()
        else:
            ba[-1].append(max(inst.ba_sets[-1]) + 1)
    else:
        rng.choice([ab, ba])[0].append(rng.randint(1, 9))
    return EddInstance(a, b, ab, ba)


def _verify_cases(rng):
    for seed in range(160):
        p, q = rng.randint(1, 7), rng.randint(1, 7)
        dup = seed % 3 == 0
        inst, truth = random_instance(seed, p, q, 60 if dup else 10**6,
                                      min_duplicates=1 if dup and p + q > 3 else 0)
        yield inst, truth.pi_a, truth.pi_b
        yield _perturbed(rng, inst), truth.pi_a, truth.pi_b
    for _ in range(40):
        inst = _big_instance(rng)
        yield inst, tuple(range(inst.p)), tuple(range(inst.q))


def _big_instance(rng):
    """Random pieces of up to 2^62 + 2^60, so totals pass 2^63 and
    fragments come close to it."""
    while True:
        n = rng.randint(1, 8)
        pieces = [rng.randint(2**61, 2**62 + 2**60) if rng.random() < 0.7 else rng.randint(1, 9)
                  for _ in range(n)]
        cuts = [rng.random() < 0.5 for _ in range(n)]
        try:
            return _pieces_instance(pieces, cuts)
        except ValueError:   # some fragment longer than 2^63 - 1
            continue


def test_verifier_matches_reference():
    rng = random.Random(5)
    reasons = set()
    for inst, pa, pb in _verify_cases(rng):
        for a, b in _orders(rng, inst, tuple(pa), tuple(pb)):
            want = reference_verify(inst, a, b)
            assert verify_permutation(inst, a, b) == want, (inst, a, b)
            reasons.add(want.reason and want.reason.split("_")[0])
    # every verdict shows up
    assert reasons == {None, "SUM", "COINCIDENT", "piece multiset differs from C", "AB", "BA"}


def test_verifier_exact_beyond_int64():
    # A-fragment 1 is 2^63 - 1 long, and the total 2^64 + 2 wraps to 2 in int64
    pieces = [2**62, 2**62 - 1, 5, 2**62 + 7, 2**62 - 9]
    inst = _pieces_instance(pieces, [False, True, False, True])
    assert inst.a_lengths[0] == BIG and sum(inst.a_lengths) == 2**64 + 2
    a_prefix, _b_prefix, bounds, _a_index, _b_index = _cut_arrays((0, 1, 2), (0, 1, 2), inst)
    assert bounds[-1] == 2**64 + 2
    assert a_prefix[:-1].tolist() == [BIG, BIG + 2**62 + 12]
    assert np.diff(bounds).tolist() == pieces
    assert verify_permutation(inst, (0, 1, 2), (0, 1, 2))
    assert verify_permutation(inst, (2, 1, 0), (2, 1, 0))
    assert verify_permutation(inst, (1, 0, 2), (0, 1, 2)) == \
        reference_verify(inst, (1, 0, 2), (0, 1, 2))


def _searchsorted_cuts(pa, pb, inst):
    """``_cut_arrays`` as it was read before the merge: a sort of the
    bounds, then a binary search of each piece start in each digest's
    cuts."""
    pa, pb = np.asarray(pa), np.asarray(pb)
    a, b = inst._a[pa], inst._b[pb]
    a_prefix, b_prefix = np.cumsum(a), np.cumsum(b)
    if a_prefix.min() < 0 or b_prefix.min() < 0:
        a_prefix, b_prefix = np.cumsum(a.astype(object)), np.cumsum(b.astype(object))
    if a_prefix[-1] != b_prefix[-1]:
        return ("SumMismatch", int(a_prefix[-1]), int(b_prefix[-1]))
    a_cuts, b_cuts = a_prefix[:-1], b_prefix[:-1]
    bounds = np.sort(np.concatenate(([0], a_cuts, b_cuts, a_prefix[-1:])), kind="stable")
    shared = np.flatnonzero(bounds[1:] == bounds[:-1])
    if len(shared):
        return ("CoincidentCut", int(bounds[shared[0]]))
    starts = bounds[:-1]
    return (a_prefix, b_prefix, bounds, pa[np.searchsorted(a_cuts, starts, side="right")],
            pb[np.searchsorted(b_cuts, starts, side="right")])


def _cuts_outcome(pa, pb, inst):
    try:
        return _cut_arrays(pa, pb, inst)
    except SumMismatch as err:
        return ("SumMismatch", err.total_a, err.total_b)
    except CoincidentCut as err:
        return ("CoincidentCut", err.position)


def test_cut_arrays_match_searchsorted_reading():
    rng = random.Random(19)
    cases = [random_instance(3, 10_001, 10_000, 4 * 10**17, duplicate_free=True)]
    cases += [random_instance(seed, rng.randint(1, 9), rng.randint(1, 9),
                              rng.choice([30, 10**6])) for seed in range(200)]
    pairs = [(inst, truth.pi_a, truth.pi_b) for inst, truth in cases]
    pairs += [(inst, tuple(rng.sample(range(inst.p), inst.p)),
               tuple(rng.sample(range(inst.q), inst.q))) for inst, _ in cases[1:]]
    pairs += [(_perturbed(rng, inst), truth.pi_a, truth.pi_b) for inst, truth in cases[1:51]]
    pairs += [(inst, tuple(range(inst.p)), tuple(range(inst.q)))
              for inst in (_big_instance(rng) for _ in range(40))]
    kinds = set()
    for inst, pa, pb in pairs:
        want, got = _searchsorted_cuts(pa, pb, inst), _cuts_outcome(pa, pb, inst)
        if isinstance(want[0], str):
            assert got == want, (inst, pa, pb)
            kinds.add(want[0])
            continue
        for mine, ref in zip(got, want):
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref), (inst, pa, pb)
        kinds.add("object" if want[2].dtype == object else "int64")
    # every outcome shows up, a total past int64 among them
    assert kinds == {"SumMismatch", "CoincidentCut", "int64", "object"}, kinds


def test_verifier_rejects_non_permutations():
    inst = multi_dup_instance()
    for pa in [(0, 0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3, 5), (0, 1, 2, 3, -1),
               (0, 1, 2, 3, 2**70)]:
        for fn in (verify_permutation, reference_verify):
            with pytest.raises(ValueError, match=r"^pa is not a permutation of 0\.\.4$"):
                fn(inst, pa, (0, 1, 2, 3, 4))


# --- the whole-buffer reader --------------------------------------------------

SWEEP_BYTES = "0123456789 \nAB-+#\t"


def _sweep_documents(rng):
    """Serialized random, duplicate-heavy and near-2^63 instances."""
    for _ in range(4):
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        yield EddInstance(
            a_lengths=[rng.randint(1, 999) for _ in range(p)],
            b_lengths=[rng.randint(1, 999) for _ in range(q)],
            ab_sets=[[rng.randint(1, 99) for _ in range(rng.randint(0, 4))] for _ in range(p)],
            ba_sets=[[rng.randint(1, 99) for _ in range(rng.randint(0, 4))] for _ in range(q)])
    for seed in range(4):
        yield random_instance(seed, 4, 5, 24, min_duplicates=2)[0]
    yield multi_dup_instance()

    def near():
        return BIG - rng.choice([0, 0, 1, 9, rng.randint(0, 10**6)])

    for _ in range(3):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        yield EddInstance([near() for _ in range(p)], [near() for _ in range(q)],
                          [[near() for _ in range(rng.randint(1, 3))] for _ in range(p)],
                          [[near() for _ in range(rng.randint(1, 3))] for _ in range(q)])


def _byte_edit(rng, text):
    k = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0 or k == len(text):   # insert
        return text[:k] + rng.choice(SWEEP_BYTES) + text[k:]
    if op == 1:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice(SWEEP_BYTES) + text[k + 1:]


def test_byte_sweep_matches_reference(monkeypatch):
    took = []
    read_plain = instance._read_plain

    def spy(text):
        read = read_plain(text)
        took.append(read is not None)
        return read

    monkeypatch.setattr(instance, "_read_plain", spy)
    rng = random.Random(9)
    docs = [serialize_instance(inst) for inst in _sweep_documents(rng)]
    plain = 0
    counts = {"ok": 0, "error": 0}
    for trial in range(3000):
        text = docs[trial % len(docs)]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            text = _byte_edit(rng, text)
        want = _parse_outcome(reference_parse, text)
        took.clear()
        got = _parse_outcome(parse_instance, text)
        assert got == want, (trial, text)
        if want[0] == "ok":
            for mine, ref in zip(got[1]._flats(), want[1]._flats()):
                assert np.array_equal(mine, ref), (trial, text)
            assert got[1].a_lengths == want[1].a_lengths
        plain += took[0]
        counts[want[0]] += 1
    print(f"{plain} of 3000 documents took the whole-buffer path; outcomes {counts}")
    assert plain >= 600 and min(counts.values()) >= 600, (plain, counts)


def test_serialized_documents_skip_the_line_loop(monkeypatch):
    def line_loop(text):
        raise AssertionError("plain document read line by line")

    monkeypatch.setattr(instance, "_read_lines", line_loop)
    big = random_instance(4, 10_001, 10_000, 4 * 10**17, duplicate_free=True)[0]
    for inst in (demo_instance(), big):
        got = parse_instance(serialize_instance(inst))
        assert got == inst
        for mine, ref in zip(got._flats(), inst._flats()):
            assert np.array_equal(mine, ref)


def test_normalised_documents_skip_the_exact_reader(monkeypatch):
    def exact(text):
        raise AssertionError("normalised document read token by token")

    monkeypatch.setattr(instance, "_read_exact", exact)
    big = random_instance(4, 10_001, 10_000, 4 * 10**17, duplicate_free=True)[0]
    text = serialize_instance(big)
    for copy in ("# a comment line\n" + text, text.replace("\n", "\r\n"),
                 text.replace(" ", "\t"), text.replace("\n", "\n\n")):
        got = parse_instance(copy)
        assert got == big
        for mine, ref in zip(got._flats(), big._flats()):
            assert np.array_equal(mine, ref)


HEAD = "EDD 1\nA 3 4\nB 7\n"


NEAR_PLAIN = [
    HEAD + "AB 1 3\nAB 2 4\nBA 1 3 4\n",
    HEAD + "AB 1 3\nAB 2 4\nBA 1 3 4 A\n",      # a letter as a token of its own
    HEAD + "AB 1 3\nAB 2 4A\nBA 1 3 4\n",       # a letter run into a number
    HEAD + "AB 1 3\nAB 2 4\nBA 1 3 4 B\n",
    HEAD + "AB 1 3\nA2 4 B\nBA 1 3 4\n",        # a digit run into a kind
    HEAD + "AB 1 3\nAB2 4\nBA 1 3 4\n",          # a kind run into its index
    HEAD + "AB 1 3\n12 2 4 A\nBA 1 3 4\n",      # a line that starts with a digit
    HEAD + "AB 1 3\n2 4\nBA 1 3 4\n",           # a line of numbers only
    HEAD + "AB 1 3\n-2 2 4\nBA 1 3 4\n",        # a line that starts with a sign
    "EDD 1\nA 5\nB23372036854775808 5\nAB 1 5\nBA 1 5\n",   # a kind run into a 17-digit number
    HEAD + "AB 1 3\nAB 1 4\nBA 1 3 4\n",        # an index repeated
    HEAD + "AB 1 3\nAB 3 4\nBA 1 3 4\n",
    HEAD + "AB 1 3\nAB 0 4\nBA 1 3 4\n",
    HEAD + "AB 1 3\nBA 1 3 4\n",
    HEAD + "AB 1 3\nAB 2 4\nBA 1 3 0\n",
    HEAD + f"AB 1 3\nAB 2 {BIG}\nBA 1 3 4\n",
    HEAD + f"AB 1 3\nAB 2 {BIG + 1}\nBA 1 3 4\n",
    HEAD + "AB 1 3\nAB 2 4\nBA 1 3 4",          # no final newline
    HEAD + "AB 1 3\n\nAB 2 4\nBA 1 3 4\n",      # a blank line
    HEAD + "AB 1 3\n   \nAB 2 4\nBA 1 3 4\n",
    HEAD + " AB 1 3\nAB 2 4\nBA 1 3 4\n",
    HEAD + "AB 1 3 \nAB  2 004\nBA 1 3 4  \n",
    HEAD + "AB 1 3\nAB\nBA 1 3 4\n",
    HEAD + "AB 1 3\nAB \nBA 1 3 4\n",
    HEAD + "BA 1 3 4\nAB 2 4\nAB 1 3\n",
    "EDD 1\nB 7\nA 3 4\nAB 1 3\nAB 2 4\nBA 1 3 4\n",
    "EDD 1\nA \nB 7\nAB 1 3\nAB 2 4\nBA 1 3 4\n",
    "EDD 1\nA 3 4\nB 7\nA 3 4\nAB 1 3\nAB 2 4\nBA 1 3 4\n",
    "EDD 1\n", "EDD 1\nA 5\n", "EDD 1\nA 5\nB 5\nAB 1 5\nBA 1 5\nAB",
]


@pytest.mark.parametrize("text", NEAR_PLAIN)
def test_near_plain_documents_match_reference(text):
    got, want = _parse_outcome(parse_instance, text), _parse_outcome(reference_parse, text)
    assert got == want
    if want[0] == "ok":
        for mine, ref in zip(got[1]._flats(), want[1]._flats()):
            assert np.array_equal(mine, ref)


def test_short_read_falls_back_to_exact_parse(monkeypatch):
    """numpy 1.x returns the numbers read so far when fromstring stops
    early; a read that misses the sentinel must not pass."""
    full = np.fromstring

    def short(text, dtype, sep):
        return full(text, dtype=dtype, sep=sep)[:-2]   # the sentinel and one more number

    monkeypatch.setattr(np, "fromstring", short)
    text = HEAD + "AB 1 3\nAB 2 4\nBA 1 3 4\n"
    assert parse_instance(text) == reference_parse(text)


# --- the two-part read ------------------------------------------------------

@pytest.fixture
def two_parts(monkeypatch):
    """Every document is cut in two, on a machine with two CPUs."""
    monkeypatch.setattr(instance, "_TWO_PARTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_byte_sweep_in_two_parts(monkeypatch, two_parts):
    test_byte_sweep_matches_reference(monkeypatch)


def test_mutated_documents_in_two_parts(two_parts):
    test_parser_matches_reference_on_mutated_documents()


@pytest.mark.parametrize("text", NEAR_PLAIN)
def test_near_plain_documents_in_two_parts(text, two_parts):
    test_near_plain_documents_match_reference(text)


def test_short_read_in_two_parts(monkeypatch, two_parts):
    test_short_read_falls_back_to_exact_parse(monkeypatch)


def test_serialized_documents_in_two_parts(monkeypatch, two_parts):
    test_serialized_documents_skip_the_line_loop(monkeypatch)


@pytest.mark.parametrize("text", [
    "EDD 1\nA 2 1\nB 3\nAB 1 2 1\nAB 2 1\nBA 1 1 2 1\n",
    "EDD 1\nA 1\nB 1\nAB 1 1\nBA 1 1",
    "EDD 1\nA 1\nB 1\nAB\nAB 1 1\nBA 1 1\n",
    "EDD 1\nA 1\nB\nB 1\nAB 1 1\nBA 1 1\n",
    "EDD 1\nA 1\n\nB 1\nAB 1 1\n\nBA 1 1\n",
    "EDD 1\nA 1\nB 1\nAB 1 1\nBA 1 1\nA",
])
def test_every_cut_reads_as_one_part(text):
    """With the cut on each newline in turn, next to lines of zero to
    two bytes among them, the two parts read what one part reads."""
    [one] = instance._read_parts(bytearray(text, "ascii"), -1)
    for cut in [k for k, c in enumerate(text) if c == "\n"]:
        parts = instance._read_parts(bytearray(text, "ascii"), cut)
        if one is None:
            assert None in parts, cut
            continue
        assert None not in parts, cut
        for got, want in zip((np.concatenate(column) for column in zip(*parts)), one):
            assert np.array_equal(got, want), cut


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.fixture(scope="module")
def big_text():
    """A 1 MB document, as large as the big-map benchmark's."""
    return serialize_instance(random_instance(4, 10_001, 10_000, 4 * 10**17,
                                              duplicate_free=True)[0])


def test_large_document_starts_one_thread(monkeypatch, started, big_text):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert len(big_text) >= instance._TWO_PARTS
    before = threading.active_count()
    parse_instance(big_text)
    assert len(started) == 1 and threading.active_count() == before
    parse_instance(DEMO_TEXT)
    assert len(started) == 1 and threading.active_count() == before


def test_one_cpu_starts_no_thread(monkeypatch, started, big_text):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parse_instance(big_text)
    assert started == []


def test_worker_error_reaches_the_caller(monkeypatch, started, big_text):
    """A MemoryError in the thread that reads the second part is raised
    by parse_instance, after the thread is joined."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    full = np.fromstring

    def second_part_fails(text, dtype, sep):
        if text[0] == ord("\n"):   # only the second part starts at a newline
            raise MemoryError
        return full(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", second_part_fails)
    before = threading.active_count()
    with pytest.raises(MemoryError):
        parse_instance(big_text)
    assert len(started) == 1 and threading.active_count() == before


def test_first_part_error_joins_the_worker(monkeypatch, big_text):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    full = np.fromstring

    def first_part_fails(text, dtype, sep):
        if text[0] != ord("\n"):
            raise MemoryError
        return full(text, dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", first_part_fails)
    before = threading.active_count()
    with pytest.raises(MemoryError):
        parse_instance(big_text)
    assert threading.active_count() == before
