"""Reference text parser and layout verifier: the pure-Python versions.

Line-by-line parsing with ``int()`` per token, and a layout's pieces
found by walking the merged cut lists piece by piece, kept as the
oracles that ``parse_instance`` and ``verify_permutation`` are compared
against.  The parser and the verifier return the library's own types,
so results compare with ``==``.
"""

from itertools import accumulate

from edd.instance import MAX_LENGTH, EddInstance, ParseError
from edd.verifier import CoincidentCut, LayoutError, SumMismatch, VerifyResult


def reference_parse(text: str) -> EddInstance:
    """Parse an EDD document.

    Format: first content line ``EDD 1``; one ``A`` line and one ``B``
    line (in that region, before any AB/BA lines); then one ``AB i ...``
    line per A-fragment and one ``BA j ...`` per B-fragment, 1-based,
    each index exactly once.  ``#`` starts a comment; blank lines are
    ignored.  Only syntax is checked here, not consistency.
    """
    header_seen = False
    a_vals: list[int] | None = None
    b_vals: list[int] | None = None
    ab_lines: dict[int, list[int]] = {}
    ba_lines: dict[int, list[int]] = {}

    def parse_length(tok: str, line_no: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(line_no, f"invalid integer {tok!r}") from None
        if v < 1:
            raise ParseError(line_no, f"non-positive length {v}")
        if v > MAX_LENGTH:
            raise ParseError(line_no, f"length {v} exceeds 63-bit range")
        return v

    def parse_indexed(tokens: list[str], line_no: int, kind: str, limit: int | None,
                      seen: dict[int, list[int]]):
        if len(tokens) < 2:
            raise ParseError(line_no, f"{kind} line needs an index")
        try:
            idx = int(tokens[1])
        except ValueError:
            raise ParseError(line_no, f"invalid {kind} index {tokens[1]!r}") from None
        if limit is None:
            raise ParseError(line_no, f"{kind} line before {kind[0]} line")
        if not 1 <= idx <= limit:
            raise ParseError(line_no, f"{kind} index {idx} out of range 1..{limit}")
        if idx in seen:
            raise ParseError(line_no, f"duplicate {kind} line for index {idx}")
        seen[idx] = [parse_length(t, line_no) for t in tokens[2:]]

    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if not header_seen:
            if tokens != ["EDD", "1"]:
                raise ParseError(line_no, "expected 'EDD 1' header")
            header_seen = True
            continue
        kind = tokens[0]
        if kind == "A":
            if a_vals is not None:
                raise ParseError(line_no, "duplicate A line")
            a_vals = [parse_length(t, line_no) for t in tokens[1:]]
            if not a_vals:
                raise ParseError(line_no, "A line needs at least one length")
        elif kind == "B":
            if b_vals is not None:
                raise ParseError(line_no, "duplicate B line")
            b_vals = [parse_length(t, line_no) for t in tokens[1:]]
            if not b_vals:
                raise ParseError(line_no, "B line needs at least one length")
        elif kind == "AB":
            parse_indexed(tokens, line_no, "AB", None if a_vals is None else len(a_vals), ab_lines)
        elif kind == "BA":
            parse_indexed(tokens, line_no, "BA", None if b_vals is None else len(b_vals), ba_lines)
        else:
            raise ParseError(line_no, f"unknown line kind {kind!r}")

    if not header_seen:
        raise ParseError(last_line or 1, "missing 'EDD 1' header")
    if a_vals is None:
        raise ParseError(last_line, "missing A line")
    if b_vals is None:
        raise ParseError(last_line, "missing B line")
    for name, want, got in (("AB", len(a_vals), ab_lines), ("BA", len(b_vals), ba_lines)):
        missing = [i for i in range(1, want + 1) if i not in got]
        if missing:
            raise ParseError(last_line, f"missing {name} line for index {missing[0]}")

    return EddInstance(
        a_lengths=tuple(a_vals),
        b_lengths=tuple(b_vals),
        ab_sets=tuple(tuple(ab_lines[i]) for i in range(1, len(a_vals) + 1)),
        ba_sets=tuple(tuple(ba_lines[j]) for j in range(1, len(b_vals) + 1)),
    )


def _check_permutation(seq, count, name):
    if sorted(seq) != list(range(count)):
        raise ValueError(f"{name} is not a permutation of 0..{count - 1}")


def reference_pieces(pa, pb, inst: EddInstance) -> list[tuple[int, int, int]]:
    """Cut [0, total] by both orderings: each piece as (length, A-owner,
    B-owner), left to right.

    ``pa``/``pb`` are 0-based index orders into a_lengths/b_lengths.
    Raises SumMismatch or CoincidentCut for unplottable inputs.
    """
    pa = tuple(pa)
    pb = tuple(pb)
    _check_permutation(pa, inst.p, "pa")
    _check_permutation(pb, inst.q, "pb")
    a_prefix = list(accumulate(inst.a_lengths[i] for i in pa))
    b_prefix = list(accumulate(inst.b_lengths[j] for j in pb))
    if a_prefix[-1] != b_prefix[-1]:
        raise SumMismatch(a_prefix[-1], b_prefix[-1])
    total = a_prefix[-1]
    a_cuts = a_prefix[:-1]
    b_cuts = b_prefix[:-1]
    shared = set(a_cuts) & set(b_cuts)
    if shared:
        raise CoincidentCut(min(shared))

    bounds = sorted([0, total] + a_cuts + b_cuts)
    pieces = []
    ai = bi = 0
    for start, end in zip(bounds, bounds[1:]):
        pieces.append((end - start, pa[ai], pb[bi]))
        if ai < len(a_cuts) and a_prefix[ai] == end:
            ai += 1
        if bi < len(b_cuts) and b_prefix[bi] == end:
            bi += 1
    return pieces


def reference_verify(inst: EddInstance, pa, pb) -> VerifyResult:
    """Decide whether (pa, pb) is a valid layout of the instance.

    Valid means: the overlap pieces reproduce the multiset C, and the
    pieces covered by each fragment reproduce exactly its cross-digest
    multiset.  The first failing check is reported.
    """
    try:
        pieces = reference_pieces(pa, pb, inst)
    except LayoutError as err:
        return VerifyResult(False, err.rule)

    lengths = sorted(length for length, _a, _b in pieces)
    expected = sorted(v for s in inst.ab_sets for v in s)
    if lengths != expected:
        return VerifyResult(False, "piece multiset differs from C")

    by_a: dict[int, list[int]] = {}
    by_b: dict[int, list[int]] = {}
    for length, a_index, b_index in pieces:
        by_a.setdefault(a_index, []).append(length)
        by_b.setdefault(b_index, []).append(length)
    for i, want in enumerate(inst.ab_sets):
        if tuple(sorted(by_a.get(i, []))) != want:
            return VerifyResult(False, f"AB_{i + 1} mismatch")
    for j, want in enumerate(inst.ba_sets):
        if tuple(sorted(by_b.get(j, []))) != want:
            return VerifyResult(False, f"BA_{j + 1} mismatch")
    return VerifyResult(True)
