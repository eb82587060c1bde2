"""Reference solve loop: every duplicate assignment, with no class dedup.

``naive_solve`` walks ``label_duplicates`` in full and screens each
labeling with ``solve_labeled``, keeping one family per ``family_key()``
under the first assignment id that gives it.  ``solve`` skips the
assignments that provably relabel one another, and must agree with it:
the same assignment ids, family keys and verdict.
"""

from edd.digestgraph import StructureViolation
from edd.instance import label_duplicates
from edd.solver import SolveResult, solve_labeled


def naive_solve(inst, *, max_assignments=None, first_only=False) -> SolveResult:
    families, seen_keys = [], set()
    first_violation = violation_labeling = None
    tried = 0
    for aid, lab in enumerate(label_duplicates(inst, max_assignments)):
        tried += 1
        out = solve_labeled(lab)
        if isinstance(out, StructureViolation):
            if first_violation is None:
                first_violation, violation_labeling = out, lab
            continue
        key = out.family_key()
        if key not in seen_keys:
            seen_keys.add(key)
            families.append((aid, out))
            if first_only:
                break
    return SolveResult(families, tried, first_violation, violation_labeling)


def assert_names_its_violation(res: SolveResult) -> None:
    """An empty result holds the first violation and the labeling that
    gave it, which gives that violation again: every labeling tried
    failed the screen, and at least one is tried."""
    if not res:
        assert res.first_violation is not None and res.violation_labeling is not None
        assert solve_labeled(res.violation_labeling) == res.first_violation
