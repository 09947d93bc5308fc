"""Partitions of the non-negative integers with prescribed rank-sum schedules.

The package constructs partitions of {0, 1, 2, ...} into t+1 sets (m = 2t+1
odd) whose rank-n column sums follow an alternating-difference schedule,
enumerates the five-column heads such partitions can start from, classifies
the greedy extensions of those heads into equivalence classes, and verifies
the closed-form deviation signatures and sum-preserving reshuffles of the
m=5 family.

Every public name is listed once, in `_EXPORTS`, under the module that
defines it.  Importing the package loads none of those modules: the first
read of a name (`rankpart.greedy_extend`, `from rankpart import ...`)
imports its module, and later reads find the name in the package itself.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "census": ("PROTOCOLS", "CensusReport", "run_census", "run_census_both", "standard_equivalent_heads"),
    "checks": ("CheckResult", "run_verification", "verification_passed"),
    "config": ("ModulusConfig",),
    "enumeration": (
        "DedupGroup", "Head", "dedup_heads", "enumerate_heads", "enumerate_heads_general",
        "fifth_column_candidates", "head_by_id", "head_groups", "partition_numbering", "sum_decompositions",
    ),
    "equivalence": (
        "SIGNATURES", "ClassSignature", "EquivalenceWitness", "ExceptionFamily", "check_signature",
        "classify", "diff_vs_standard", "equivalent_up_to", "signature_matches", "signature_witness",
    ),
    "errors": (
        "CollisionError", "HorizonError", "InvariantError", "NegativeError", "ParseError",
        "RankPartError", "ResourceError",
    ),
    "greedy": ("complete_head", "greedy_extend", "lockstep_classes", "lockstep_extensions"),
    "headfile": ("parse_head_file", "serialize_head"),
    "partition": (
        "Partition", "broken_ranks", "residue_set_index", "standard_column", "standard_partition",
        "sum_schedule",
    ),
    "reshuffle": ("SwapSpec", "reshuffle_family_i", "reshuffle_family_ii", "swap_pair", "verify_sum_pattern"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, its module imported on the name's first read."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
