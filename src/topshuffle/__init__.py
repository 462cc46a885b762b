"""Exact computation with top-to-random shuffle sums, in plain and
faced-card (wreath) deck algebras."""

from .algebra import (
    AlgebraElement,
    brute_force_product,
    expansion,
    expansion_element,
    multiply,
    shuffle_product,
    top_to_random,
)
from .coefficients import (
    CapExceeded,
    SegmentedPartition,
    ShuffleSpec,
    anchor_signature,
    anchor_tuples,
    bell,
    enumerate_segmented_partitions,
    falling_factorial,
    iter_segmented_partitions,
    phi,
    phi_inverse,
    q_cardinality,
    respects_rounds,
    stirling2,
    total_outcomes,
)
from .permutations import (
    Injection,
    Permutation,
    all_permutations,
    as_injection,
    compose,
    from_injection,
    identity,
    inverse,
    is_term_of,
    min_shuffle_size,
)
from .probability import (
    g_probability_of,
    g_total_outcomes,
    g_ways_to_reach,
    probability_of,
    ways_to_reach,
)
from .wreath import (
    FiniteGroup,
    GAlgebraElement,
    GPermutation,
    bar_element,
    bar_lift,
    bar_lift_expansion,
    factorization_count,
    factorization_counts_by_enumeration,
    g_brute_force_product,
    g_compose,
    g_expansion,
    g_expansion_element,
    g_multiply,
    hat_top_to_random,
    is_hat_term,
)

__version__ = "0.1.0"
