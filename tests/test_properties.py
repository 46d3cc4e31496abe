"""Pytest entry points for the randomized property checks in
properties.py, so the whole discipline suite runs standalone."""

from properties import (
    check_exact_depth_layers,
    check_manhattan_admissible_consistent,
    check_parity_matches_reachability,
    check_trail_integrity,
    check_trap_hand_traces,
    check_upward_only_discipline,
    check_writes_change_values,
)


def test_expansion_layers_partition_by_true_depth():
    assert check_exact_depth_layers(seed=11) > 0


def test_manhattan_is_admissible_and_consistent():
    assert check_manhattan_admissible_consistent(seed=12) > 0


def test_solvability_parity_matches_reachability():
    assert check_parity_matches_reachability(seed=13) > 0


def test_learning_writes_are_strictly_upward():
    assert check_upward_only_discipline(seed=14) > 0


def test_every_write_changes_a_value():
    assert check_writes_change_values(seed=16) > 0


def test_retreats_follow_the_trail_exactly():
    assert check_trail_integrity(seed=15) > 0


def test_trap_decisions_match_hand_traces():
    assert check_trap_hand_traces() > 0
