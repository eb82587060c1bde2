"""Reference solve loop: every duplicate assignment, with no class dedup.

``naive_solve`` walks ``label_duplicates`` in full and screens each
labeling with ``solve_labeled``, keeping one family per ``family_key()``
under the first assignment id that gives it.  ``solve`` skips the
assignments that provably relabel one another, and must agree with it:
the same assignment ids, family keys and verdict.
"""

from edd.instance import label_duplicates
from edd.solver import NoSolution, SolveResult, solve_labeled


def naive_solve(inst, *, max_assignments=None, first_only=False) -> SolveResult:
    families, seen_keys = [], set()
    first_violation = violation_labeling = None
    tried = 0
    for aid, lab in enumerate(label_duplicates(inst, max_assignments)):
        tried += 1
        out = solve_labeled(lab)
        if isinstance(out, NoSolution):
            if first_violation is None:
                first_violation, violation_labeling = out.violation, lab
            continue
        key = out.family_key()
        if key not in seen_keys:
            seen_keys.add(key)
            families.append((aid, out))
            if first_only:
                break
    return SolveResult(families, tried, first_violation, violation_labeling)
