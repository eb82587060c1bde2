"""Correct-outcome rules for every map op.

Each check takes the exit code and captured stdout of one ``edd`` call
and returns a ``Verdict``.  A verdict is ``ok``, a ``refusal`` (exit 3
on a solvable map: a stable, documented answer, but not the map), or
``wrong`` with a one-line problem.  Refusals and wrong answers both
count against ``ok_ratio``; only wrong answers make a run incorrect.
"""

from __future__ import annotations

from typing import NamedTuple

from edd.verifier import verify_permutation

CAP_EXIT = 3
EXPANSION_CAP = 10_000
NO_LAYOUT_REASONS = ("HAS_CYCLE", "NOT_CONNECTED")


class Verdict(NamedTuple):
    ok: bool
    refusal: bool = False
    problem: str | None = None


OK = Verdict(True)


def wrong(problem: str) -> Verdict:
    return Verdict(False, False, problem)


def parse_family(text: str) -> list:
    """Slots of a ``family:`` notation: an int per fixed slot, a sorted
    tuple per bracket block."""
    slots: list = []
    block: list[int] | None = None
    for tok in text.split():
        if tok.startswith("["):
            block = []
            tok = tok[1:]
        closes = tok.endswith("]")
        if closes:
            tok = tok[:-1]
        if tok:
            (slots if block is None else block).append(int(tok))
        if closes:
            if block is None:
                raise ValueError("unbalanced ']' in family")
            slots.append(tuple(sorted(block)))
            block = None
    if block is not None:
        raise ValueError("unclosed '[' in family")
    return slots


def family_matches(slots: list, c_values: list[int]) -> bool:
    """True when ``c_values`` fits the slots in order: fixed values equal,
    each block equal as a multiset."""
    pos = 0
    for slot in slots:
        if isinstance(slot, tuple):
            end = pos + len(slot)
            if end > len(c_values) or tuple(sorted(c_values[pos:end])) != slot:
                return False
            pos = end
        else:
            if pos >= len(c_values) or c_values[pos] != slot:
                return False
            pos += 1
    return pos == len(c_values)


def _field(lines: list[str], key: str) -> list[str]:
    prefix = key + ": "
    return [ln[len(prefix):] for ln in lines if ln.startswith(prefix)]


def check_solve_map(code: int, out: str, truth) -> Verdict:
    """big-map / dup-map: exit 0 and one family line fits the truth's
    C-value sequence or its reverse."""
    lines = out.splitlines()
    if code == CAP_EXIT and any(ln.startswith("cap-exceeded: ") for ln in lines):
        return Verdict(False, True, None)
    if code != 0:
        return wrong(f"solve exit {code}, want 0")
    if not lines or lines[0] != "status: ok":
        return wrong("solve does not print 'status: ok'")
    forward = truth["c_values"]
    backward = forward[::-1]
    for fam in _field(lines, "family"):
        try:
            slots = parse_family(fam)
        except ValueError as err:
            return wrong(f"bad family line: {err}")
        if family_matches(slots, forward) or family_matches(slots, backward):
            return OK
    return wrong("no family line fits the ground truth")


def check_solve_nomap(code: int, out: str) -> Verdict:
    """big-nomap: exit 1, status no-solution, a cycle or connectivity reason."""
    lines = out.splitlines()
    if code != 1:
        return wrong(f"solve exit {code}, want 1")
    if not lines or lines[0] != "status: no-solution":
        return wrong("solve does not print 'status: no-solution'")
    reasons = _field(lines, "reason")
    if len(reasons) != 1 or reasons[0] not in NO_LAYOUT_REASONS:
        return wrong(f"reason {reasons}, want one of {NO_LAYOUT_REASONS}")
    return OK


def _layouts(lines: list[str]):
    pa_lines, pb_lines = _field(lines, "paIdx"), _field(lines, "pbIdx")
    a_lines, b_lines = _field(lines, "piA"), _field(lines, "piB")
    if not (len(pa_lines) == len(pb_lines) == len(a_lines) == len(b_lines)
            == len(_field(lines, "solution"))):
        raise ValueError("incomplete solution records")
    for pa, pb, a, b in zip(pa_lines, pb_lines, a_lines, b_lines):
        yield (tuple(int(t) - 1 for t in pa.split()), tuple(int(t) - 1 for t in pb.split()),
               tuple(map(int, a.split())), tuple(map(int, b.split())))


def check_all_layouts(code: int, out: str, inst, truth) -> Verdict:
    """all-layouts: every printed layout verifies and is distinct at value
    level; exit 0 also needs the truth or its mirror among them, exit 3
    exactly EXPANSION_CAP layouts and ``truncated: true``."""
    lines = out.splitlines()
    if code not in (0, CAP_EXIT):
        return wrong(f"solve --all exit {code}, want 0 or {CAP_EXIT}")
    seen = set()
    try:
        for pa, pb, a_vals, b_vals in _layouts(lines):
            if not verify_permutation(inst, pa, pb):
                return wrong(f"layout {len(seen) + 1} fails verify_permutation")
            if tuple(inst.a_lengths[i] for i in pa) != a_vals \
                    or tuple(inst.b_lengths[j] for j in pb) != b_vals:
                return wrong(f"layout {len(seen) + 1} values do not match its indices")
            if (a_vals, b_vals) in seen:
                return wrong(f"layout {len(seen) + 1} is printed twice")
            seen.add((a_vals, b_vals))
    except ValueError as err:
        return wrong(f"bad solution lines: {err}")
    truncated = "truncated: true" in lines
    if code == CAP_EXIT:
        if not truncated or len(seen) != EXPANSION_CAP:
            return wrong(f"exit 3 with {len(seen)} layouts, truncated={truncated}; "
                         f"want {EXPANSION_CAP} and truncated: true")
        return OK
    if truncated:
        return wrong("exit 0 but truncated: true")
    a, b = tuple(truth["a_values"]), tuple(truth["b_values"])
    if (a, b) not in seen and (a[::-1], b[::-1]) not in seen:
        return wrong("the ground-truth layout is not among the printed layouts")
    return OK


def check_verify(code: int, out: str, expect_valid: bool) -> Verdict:
    lines = out.splitlines()
    if expect_valid:
        if code != 0 or lines != ["valid"]:
            return wrong(f"verify exit {code} {lines[:1]}, want 0 ['valid']")
    elif code != 1 or len(lines) != 1 or not lines[0].startswith("invalid: "):
        return wrong(f"verify exit {code} {lines[:1]}, want 1 'invalid: ...'")
    return OK
