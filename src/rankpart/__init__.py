"""Partitions of the non-negative integers with prescribed rank-sum schedules.

The package constructs partitions of {0, 1, 2, ...} into t+1 sets (m = 2t+1
odd) whose rank-n column sums follow an alternating-difference schedule,
enumerates the five-column heads such partitions can start from, classifies
the greedy extensions of those heads into equivalence classes, and verifies
the closed-form deviation signatures and sum-preserving reshuffles of the
m=5 family.
"""
from .census import PROTOCOLS, CensusReport, run_census, run_census_both, standard_equivalent_heads
from .checks import CheckResult, run_verification, verification_passed
from .config import ModulusConfig
from .enumeration import (
    DedupGroup,
    Head,
    count_statements,
    dedup_heads,
    enumerate_heads,
    enumerate_heads_general,
    fifth_column_candidates,
    head_by_id,
    head_groups,
    partition_numbering,
    sum_decompositions,
)
from .equivalence import (
    SIGNATURES,
    ClassSignature,
    EquivalenceWitness,
    ExceptionFamily,
    check_signature,
    classify,
    diff_vs_standard,
    equivalent_up_to,
    signature_matches,
    signature_witness,
)
from .errors import (
    CollisionError,
    HorizonError,
    InvariantError,
    NegativeError,
    ParseError,
    RankPartError,
    ResourceError,
)
from .greedy import (
    complete_head,
    greedy_extend,
    lockstep_classes,
    lockstep_extensions,
)
from .headfile import parse_head_file, serialize_head
from .partition import (
    Partition,
    broken_ranks,
    residue_set_index,
    standard_column,
    standard_partition,
    sum_schedule,
)
from .reshuffle import (
    SwapSpec,
    reshuffle_family_i,
    reshuffle_family_ii,
    swap_pair,
    verify_sum_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "PROTOCOLS",
    "SIGNATURES",
    "CensusReport",
    "CheckResult",
    "ClassSignature",
    "CollisionError",
    "DedupGroup",
    "EquivalenceWitness",
    "ExceptionFamily",
    "Head",
    "HorizonError",
    "InvariantError",
    "ModulusConfig",
    "NegativeError",
    "ParseError",
    "Partition",
    "RankPartError",
    "ResourceError",
    "SwapSpec",
    "broken_ranks",
    "check_signature",
    "classify",
    "complete_head",
    "count_statements",
    "dedup_heads",
    "diff_vs_standard",
    "enumerate_heads",
    "enumerate_heads_general",
    "equivalent_up_to",
    "fifth_column_candidates",
    "greedy_extend",
    "head_by_id",
    "head_groups",
    "lockstep_classes",
    "lockstep_extensions",
    "parse_head_file",
    "partition_numbering",
    "residue_set_index",
    "reshuffle_family_i",
    "reshuffle_family_ii",
    "run_census",
    "run_census_both",
    "run_verification",
    "serialize_head",
    "signature_matches",
    "signature_witness",
    "standard_column",
    "standard_equivalent_heads",
    "standard_partition",
    "sum_decompositions",
    "sum_schedule",
    "swap_pair",
    "verification_passed",
    "verify_sum_pattern",
]
