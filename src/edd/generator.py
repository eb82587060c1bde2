"""Ground-truth instance generation by simulating a double digest.

Cut a line of known length at two disjoint site sets, read off the
fragment and sub-fragment lengths as arrays, and the resulting dataset
is consistent by construction with the identity ordering as a known
solution.  The seeded generator layers reproducible randomness on top;
its stream is Python's Mersenne Twister (``random.Random(seed)``), so
equal seeds reproduce equal instances within this implementation.
Fixtures meant to outlive it should be exchanged as EDD files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .instance import MAX_LENGTH, CPermutation, EddInstance, _int64
from .solver import Solution


class InfeasibleParams(ValueError):
    pass


@dataclass(frozen=True)
class CutModel:
    """A line of ``total_length`` with two disjoint internal cut sets."""

    total_length: int
    cuts_a: tuple[int, ...]
    cuts_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts_a", tuple(self.cuts_a))
        object.__setattr__(self, "cuts_b", tuple(self.cuts_b))
        if self.total_length < 1:
            raise ValueError("total_length must be positive")
        for name, cuts in (("cuts_a", self.cuts_a), ("cuts_b", self.cuts_b)):
            if list(cuts) != sorted(set(cuts)):
                raise ValueError(f"{name} must be strictly increasing")
            if cuts and not (0 < cuts[0] and cuts[-1] < self.total_length):
                raise ValueError(f"{name} must lie strictly inside (0, total_length)")
        if set(self.cuts_a) & set(self.cuts_b):
            raise ValueError("cut sites of the two enzymes must not coincide")


def instance_from_cuts(model: CutModel) -> tuple[EddInstance, Solution]:
    """Digest the cut model into an EddInstance plus its ground truth.

    A and B are the gap lengths of each cut set; the pieces of the union
    digest, each with the A- and B-fragment that hold it, are AB and BA,
    all as arrays, no tuple built.  The returned Solution is the
    identity ordering with the physical left-to-right labeling.
    """
    total = model.total_length
    # positions past int64 stay exact Python ints; the instance checks that each length fits
    dtype = np.int64 if total <= MAX_LENGTH else object
    ca = np.asarray(model.cuts_a, dtype=dtype)
    cb = np.asarray(model.cuts_b, dtype=dtype)
    a = _int64(np.diff(np.concatenate(([0], ca, [total]))))
    b = _int64(np.diff(np.concatenate(([0], cb, [total]))))

    bounds = np.concatenate(([0], np.sort(np.concatenate((ca, cb))), [total]))
    lengths = _int64(np.diff(bounds))
    starts = bounds[:-1]
    a_idx = np.searchsorted(ca, starts, side="right")
    b_idx = np.searchsorted(cb, starts, side="right")
    inst = EddInstance._from_arrays(a, b, lengths, a_idx, lengths, b_idx)

    pi_c = CPermutation.along_line(lengths, a_idx, b_idx)
    truth = Solution(tuple(range(inst.p)), tuple(range(inst.q)), pi_c)
    return inst, truth


def random_instance(seed: int, p: int, q: int, total_length: int, *,
                    min_duplicates: int = 0,
                    duplicate_free: bool = False,
                    max_retries: int = 1000) -> tuple[EddInstance, Solution]:
    """Seeded random instance with p and q fragments on a given length.

    Draws p+q-2 distinct internal cut positions and assigns p-1 of them
    to the first enzyme at random.  ``min_duplicates`` demands at least
    that many repeated values in C (duplicates = |C| minus the number of
    distinct values); ``duplicate_free`` demands none.  Both resample up
    to ``max_retries`` times, counting the repeats on the drawn piece
    lengths and building only the draw they accept.  Profiles that no
    draw, or a vanishing share of draws, can meet are refused before the
    first: n = p+q-1 pieces have at most n-1 repeats, n distinct lengths
    need a line of n(n+1)/2, and a draw has about n^3 / (4 total_length)
    repeats, so past 40 of them fewer than one draw in 10^17 has none.
    """
    if p < 1 or q < 1:
        raise InfeasibleParams("p and q must be at least 1")
    if total_length < 1:
        raise InfeasibleParams("total_length must be positive")
    if total_length > MAX_LENGTH:
        raise InfeasibleParams(f"total length {total_length} exceeds 2^63 - 1")
    if min_duplicates < 0:
        raise InfeasibleParams(f"min_duplicates must be at least 0, got {min_duplicates}")
    if duplicate_free and min_duplicates:
        raise InfeasibleParams("duplicate_free contradicts min_duplicates")
    k = p + q - 2
    if k > total_length - 1:
        raise InfeasibleParams(
            f"cannot place {k} distinct cuts inside a length-{total_length} line")
    n = k + 1
    if min_duplicates > n - 1:
        raise InfeasibleParams(
            f"min_duplicates {min_duplicates} exceeds n - 1 = {n - 1} (n = p + q - 1 pieces)")
    if duplicate_free and 2 * total_length < n * (n + 1):
        raise InfeasibleParams(
            f"{n} distinct piece lengths need a line of n(n+1)/2 = {n * (n + 1) // 2}")
    if duplicate_free and n ** 3 > 160 * total_length:
        raise InfeasibleParams(
            f"{n} pieces on a length-{total_length} line expect n^3/(4 total) ="
            f" {n ** 3 / (4 * total_length):.1f} repeats, past 40: too many to draw none")

    rng = random.Random(seed)
    for _ in range(max(1, max_retries)):
        positions = sorted(rng.sample(range(1, total_length), k))
        a_picks = set(rng.sample(range(k), p - 1))
        lengths = np.sort(np.diff(np.array(positions, np.int64), prepend=0, append=total_length))
        dupes = int(np.count_nonzero(lengths[1:] == lengths[:-1]))
        if dupes < min_duplicates or (duplicate_free and dupes):
            continue
        cuts_a = tuple(positions[t] for t in range(k) if t in a_picks)
        cuts_b = tuple(positions[t] for t in range(k) if t not in a_picks)
        return instance_from_cuts(CutModel(total_length, cuts_a, cuts_b))
    raise InfeasibleParams(
        f"no instance with the requested duplicate profile after {max_retries} tries")
