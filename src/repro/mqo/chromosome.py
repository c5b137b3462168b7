"""Permutation chromosomes: order crossover and swap mutation.

Section 3.2 (GA recombination and mutation): "the chromosomes are
permutations of unique integers ... a randomly chosen contiguous subsection
of the first parent is copied to the child, and then all remaining items in
the second parent (that have not already been taken from the first parent's
subsection) are then copied to the child in order of appearance."
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import OptimizationError
from repro.sim.rng import RandomSource

__all__ = [
    "validate_permutation",
    "order_crossover",
    "crossover_permutations",
    "swap_mutation",
    "random_permutation",
]


def validate_permutation(genes: Sequence[int]) -> None:
    """Raise unless ``genes`` is a permutation of unique integers."""
    if len(set(genes)) != len(genes):
        raise OptimizationError(f"chromosome repeats genes: {list(genes)}")


def random_permutation(genes: Sequence[int], rng: RandomSource) -> list[int]:
    """A uniformly random permutation of ``genes``."""
    shuffled = list(genes)
    rng.shuffle(shuffled)
    return shuffled


def order_crossover(
    parent_a: Sequence[int],
    parent_b: Sequence[int],
    rng: RandomSource,
) -> list[int]:
    """The paper's crossover: copy a slice of A, fill from B in order.

    A contiguous subsection of ``parent_a`` is copied into the child at the
    same positions; the remaining positions are filled with ``parent_b``'s
    genes, skipping those already present, in their order of appearance.
    """
    if sorted(parent_a) != sorted(parent_b):
        raise OptimizationError("parents must be permutations of the same genes")
    validate_permutation(parent_a)
    child = crossover_permutations(parent_a, parent_b, rng)
    validate_permutation(child)
    return child


def crossover_permutations(
    parent_a: Sequence[int],
    parent_b: Sequence[int],
    rng: RandomSource,
) -> list[int]:
    """:func:`order_crossover` minus its checks.

    For callers whose parents are permutations of the same genes by
    construction (the GA's population).  Draws from ``rng`` exactly as
    the checked function does.
    """
    size = len(parent_a)
    if size < 2:
        return list(parent_a)
    lo = rng.randint(0, size - 1)
    hi = rng.randint(lo, size - 1)
    segment = list(parent_a[lo:hi + 1])
    taken = set(segment)
    fill = [gene for gene in parent_b if gene not in taken]
    return fill[:lo] + segment + fill[lo:]


def swap_mutation(genes: Sequence[int], rng: RandomSource) -> list[int]:
    """Swap two random positions — "occasionally a mutation may arise"."""
    mutated = list(genes)
    if len(mutated) < 2:
        return mutated
    i = rng.randint(0, len(mutated) - 1)
    j = rng.randint(0, len(mutated) - 1)
    while j == i:
        j = rng.randint(0, len(mutated) - 1)
    mutated[i], mutated[j] = mutated[j], mutated[i]
    return mutated
