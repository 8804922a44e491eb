"""Referral-tree reward allocation with exact rational arithmetic.

Models multi-level referral programs as cooperative games on rooted trees
and computes fair payouts: the equal-shares (Shapley) mechanism alongside
refer-a-friend and geometric baselines, with brute-force oracles and
exhaustive stability checks for verification.
"""

from importlib import import_module

# The API that README documents, each name with its module; import anything
# else from its own module. A name loads its module on first use, so that a
# command loads only the modules it runs.
_EXPORTS = {
    "Allocation": "allocation",
    "count_trimmed_containing": "analysis",
    "is_convex": "analysis",
    "is_in_core": "analysis",
    "MissingCoalitionValueError": "games",
    "TreeGame": "games",
    "ValueFunction": "games",
    "basic_game": "games",
    "coalition_value": "games",
    "coalition_values_by_mask": "games",
    "InputFormatError": "io",
    "JoinEvent": "io",
    "parse_event_log": "io",
    "parse_tree_file": "io",
    "replay_events": "io",
    "EqualShares": "mechanisms",
    "Geometric": "mechanisms",
    "MechanismSpec": "mechanisms",
    "ReferAFriend": "mechanisms",
    "allocate": "mechanisms",
    "compare": "mechanisms",
    "IncrementalState": "shapley",
    "SizeLimitError": "shapley",
    "shapley_basic": "shapley",
    "shapley_bruteforce": "shapley",
    "shapley_general": "shapley",
    "shapley_value": "shapley",
    "RootedTree": "tree",
    "TreeError": "tree",
    "UnknownNodeError": "tree",
    "build_tree": "tree",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)  # later uses skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
