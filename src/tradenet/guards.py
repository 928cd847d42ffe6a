"""The declared size guards, in one table.

Every answer comes from an exhaustive search, and a search asked to go past
its guard raises `GuardExceededError` instead of running on or truncating.
Each guard is declared here and only here; the module that checks it
imports it.
"""

# contracts of one agent: its 2^n-menu table and every walk over its menus
SIZE_GUARD = 16
# contracts of an instance: fixed-point enumeration's join of menu tables
ENUMERATION_GUARD = 12
# contracts of an instance: brute force's join of acceptable outcomes
BRUTE_GUARD = 12
# fresh contracts of an outcome: the set search's 2^n candidate sets
SET_GUARD = 20
# candidates one trail search may visit
TRAIL_GUARD = 10**6
# weight total of a split check: `solve_partition`'s bitset of reachable sums
# (19 weights totalling 10^7, as many as the set guard lets the CLI take, are
# solved in 14 ms on one core of a 2-vCPU Xeon KVM guest)
PARTITION_GUARD = 10**7
