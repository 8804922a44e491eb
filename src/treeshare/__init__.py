"""Referral-tree reward allocation with exact rational arithmetic.

Models multi-level referral programs as cooperative games on rooted trees
and computes fair payouts: the equal-shares (Shapley) mechanism alongside
refer-a-friend and geometric baselines, with brute-force oracles and
exhaustive stability checks for verification.
"""

from .allocation import Allocation
from .analysis import count_trimmed_containing, is_convex, is_in_core
from .games import (
    MissingCoalitionValueError,
    TreeGame,
    ValueFunction,
    basic_game,
    coalition_value,
    coalition_values_by_mask,
)
from .io import (
    InputFormatError,
    JoinEvent,
    parse_event_log,
    parse_tree_file,
    replay_events,
)
from .mechanisms import (
    EqualShares,
    Geometric,
    MechanismSpec,
    ReferAFriend,
    allocate,
    compare,
)
from .shapley import (
    IncrementalState,
    SizeLimitError,
    shapley_basic,
    shapley_bruteforce,
    shapley_general,
    shapley_value,
)
from .tree import RootedTree, TreeError, UnknownNodeError, build_tree

# The API that README documents; import anything else from its own module.
__all__ = [
    "Allocation",
    "EqualShares",
    "Geometric",
    "IncrementalState",
    "InputFormatError",
    "JoinEvent",
    "MechanismSpec",
    "MissingCoalitionValueError",
    "ReferAFriend",
    "RootedTree",
    "SizeLimitError",
    "TreeError",
    "TreeGame",
    "UnknownNodeError",
    "ValueFunction",
    "allocate",
    "basic_game",
    "build_tree",
    "coalition_value",
    "coalition_values_by_mask",
    "compare",
    "count_trimmed_containing",
    "is_convex",
    "is_in_core",
    "parse_event_log",
    "parse_tree_file",
    "replay_events",
    "shapley_basic",
    "shapley_bruteforce",
    "shapley_general",
    "shapley_value",
]
