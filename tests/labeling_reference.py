"""Reference labeling plan, copy numbering and union check: the
stable-sort versions.

The library ranks each side of the cross-digest data once with
default-kind sorts and shares that ranking between
``validate_consistency`` and ``_labeling_plan``; ``CPermutation.along_line``
numbers copies from the same kind of ranking.  These are the earlier
versions, two stable argsorts for the plan, one for the copy numbers
along a line and two ``np.sort`` for the union check, kept as the oracle
the shared ranking is compared against.
"""

from dataclasses import fields

import numpy as np

from edd.instance import EddInstance, LabeledInstance


def reference_labeling_plan(inst: EddInstance):
    """(values, a_owners, copy_ids, base_b, groups): the identity
    labeling's fields named in ``PLAN_FIELDS``, with base_b its
    ``b_owners``, and the duplicate groups."""
    fa, oa, _, fb, ob, _ = inst._flats()
    n = len(fa)
    order_a = np.argsort(fa, kind="stable")
    order_b = np.argsort(fb, kind="stable")
    sv = fa[order_a]
    if not np.array_equal(sv, fb[order_b]):
        raise ValueError("inconsistent instance: AB and BA multisets differ")

    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    sizes = np.diff(np.append(starts, n))
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    copy_ids = np.empty(n, dtype=np.int64)
    copy_ids[order_a] = within + 1

    base_b = np.empty(n, dtype=np.int64)
    base_b[order_a] = ob[order_b]  # identity matching per value group

    groups: list[tuple[list[int], list[int]]] = []
    for g in np.flatnonzero(sizes > 1).tolist():
        s, m = int(starts[g]), int(sizes[g])
        cpos = order_a[s:s + m].tolist()
        owners = ob[order_b[s:s + m]].tolist()
        groups.append((cpos, owners))
    return fa, oa, copy_ids, base_b, groups


# the identity labeling's fields that ``reference_labeling_plan`` returns, in order
PLAN_FIELDS = ("values", "a_owners", "copy_ids", "b_owners")
assert set(PLAN_FIELDS) <= {f.name for f in fields(LabeledInstance)}


def reference_occurrence_counts(values: np.ndarray) -> np.ndarray:
    """1-based per-value occurrence counter, in sequence order."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    sizes = np.diff(np.append(starts, n))
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    out = np.empty(n, dtype=np.int64)
    out[order] = within + 1
    return out


def reference_union_mismatch(inst: EddInstance) -> str | None:
    """The UNION_MISMATCH detail for equal-sized sides, from two ``np.sort``."""
    fa, fb = inst._flats()[0], inst._flats()[3]
    sa, sb = np.sort(fa), np.sort(fb)
    if len(sa) != len(sb) or np.array_equal(sa, sb):
        return None
    k = int(np.flatnonzero(sa != sb)[0])
    return f"multisets differ at sorted position {k}: {int(sa[k])} vs {int(sb[k])}"
