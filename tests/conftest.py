"""Shared sample data for the test suite."""

from edd.instance import EddInstance
from edd.solver import DEFAULT_MAX_EXPANSIONS, Solution, expand_family

# 5x3 dataset with one interchangeable pair: the solver should report the
# family 6 3 [12 15] 8 29 17 and exactly two distinct layouts.
DEMO_TEXT = """\
EDD 1
A 9 12 15 17 37
B 6 38 46
AB 1 3 6
AB 2 12
AB 3 15
AB 4 17
AB 5 8 29
BA 1 6
BA 2 3 8 12 15
BA 3 17 29
"""


def demo_instance() -> EddInstance:
    return EddInstance(
        a_lengths=(9, 12, 15, 17, 37),
        b_lengths=(6, 38, 46),
        ab_sets=((3, 6), (12,), (15,), (17,), (8, 29)),
        ba_sets=((6,), (3, 8, 12, 15), (17, 29)),
    )


def dup_instance() -> EddInstance:
    """2x5 dataset whose C contains two copies of 7.

    Only one of the two duplicate assignments admits a layout; the other
    produces a cyclic digest graph.
    """
    return EddInstance(
        a_lengths=(18, 19),
        b_lengths=(4, 5, 7, 8, 13),
        ab_sets=((5, 6, 7), (4, 7, 8)),
        ba_sets=((4,), (5,), (7,), (8,), (6, 7)),
    )


def multi_dup_instance() -> EddInstance:
    """Consistent dataset with value multiplicities {5: 3, 7: 2} (12 assignments).

    Built from the piece sequence 5,2,5,3,5,4,7,1,7 with boundaries
    alternating between the two enzymes.
    """
    return EddInstance(
        a_lengths=(5, 7, 8, 11, 8),
        b_lengths=(7, 8, 9, 8, 7),
        ab_sets=((5,), (2, 5), (3, 5), (4, 7), (1, 7)),
        ba_sets=((2, 5), (3, 5), (4, 5), (1, 7), (7,)),
    )


def deep_subtree_instance() -> EddInstance:
    """Consistent but unsolvable: three 4-node legs hang off one hub, so
    whichever diameter is picked leaves one leg deeper than a dangler."""
    return EddInstance(
        a_lengths=(11, 22, 33),
        b_lengths=(6, 10, 20, 30),
        ab_sets=((1, 10), (2, 20), (3, 30)),
        ba_sets=((1, 2, 3), (10,), (20,), (30,)),
    )


def disconnected_instance(cycle_first: bool) -> EddInstance:
    """Consistent but splits into a 4-cycle component plus a path component.

    With ``cycle_first`` the traversal's start fragment sits on the
    cycle (HAS_CYCLE verdict); otherwise it sits on the path component
    and the cycle is elsewhere (NOT_CONNECTED verdict).
    """
    if cycle_first:
        return EddInstance((7, 5), (7, 5), ((3, 4), (5,)), ((3, 4), (5,)))
    return EddInstance((5, 7), (5, 7), ((5,), (3, 4)), ((5,), (3, 4)))


def two_block_instance() -> EddInstance:
    """Solvable dataset whose family has blocks of sizes 3 and 2:
    two whole-fragment stubs plus the loose end merge at one end of the
    diameter, and an interior hub carries two more stubs."""
    return EddInstance(
        a_lengths=(46, 31, 32, 7),
        b_lengths=(1, 21, 22, 68, 4),
        ab_sets=((1, 2, 21, 22), (31,), (32,), (3, 4)),
        ba_sets=((1,), (21,), (22,), (2, 3, 31, 32), (4,)),
    )


def expanded_solutions(fam, max_expansions: int = DEFAULT_MAX_EXPANSIONS):
    """Each layout of ``expand_family(fam)`` as a Solution, the form the
    oracle's layouts and ``canonical_key`` take."""
    elems = fam.labeled.c_elements
    for pi_a, pi_b, c_order in expand_family(fam, max_expansions):
        yield Solution(tuple(pi_a.tolist()), tuple(pi_b.tolist()), elems.take(c_order))
