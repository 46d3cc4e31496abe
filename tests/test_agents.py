import random
from itertools import chain

import pytest

from lrts.agents import (
    GAMMA_ALGORITHMS,
    RTA_INFINITY,
    AgentConfig,
    AgentState,
    Algorithm,
    derive_seed,
    make_agent,
    step,
)
from lrts.core import DomainViolation, HeuristicTable, iter_layers
from lrts.harness import run_trial, run_until_convergence
from lrts.tiles import TilePuzzle, random_solvable

from domains import GraphProblem, LineProblem
from oracles import (
    acceptable_first_moves,
    bfs_dist_from,
    reference_ilrta_decision,
    reference_lrta_decision,
    reference_rta_decision,
    reference_trap_decision,
)
from properties import (
    check_trail_integrity,
    check_trap_hand_traces,
    check_upward_only_discipline,
)


class RecordingRng(random.Random):
    """random.Random that remembers every tie pool it was asked to pick
    from, so tests can assert on tie-set sizes."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.pools = []

    def choice(self, seq):
        self.pools.append(list(seq))
        return super().choice(seq)


def test_config_validation():
    AgentConfig(Algorithm.GTRAP, d_max=1, gamma=1.0)
    with pytest.raises(ValueError):
        AgentConfig(Algorithm.GTRAP, d_max=0)
    with pytest.raises(ValueError):
        AgentConfig(Algorithm.GTRAP, gamma=0.0)
    with pytest.raises(ValueError):
        AgentConfig(Algorithm.GTRAP, gamma=1.2)
    for epsilon in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            AgentConfig(Algorithm.ILRTA, epsilon=epsilon)
    # a knob the algorithm never reads is rejected, not folded into the seed
    for algorithm in (Algorithm.LRTA, Algorithm.RTA, Algorithm.ILRTA):
        with pytest.raises(ValueError, match="takes no gamma"):
            AgentConfig(algorithm, gamma=0.5)
    for algorithm in (Algorithm.GTRAP_BT, Algorithm.GTRAP, Algorithm.LRTA, Algorithm.RTA):
        with pytest.raises(ValueError, match="takes no epsilon"):
            AgentConfig(algorithm, epsilon=0.2)


def test_make_agent_weighting():
    problem = TilePuzzle(random_solvable(3, 3, random.Random(0)))
    plain = make_agent(problem, AgentConfig(Algorithm.LRTA), base=problem.manhattan)
    weighted = make_agent(problem, AgentConfig(Algorithm.ILRTA, epsilon=0.2),
                          base=problem.manhattan)
    s = problem.initial_state
    assert plain.table.lookup(s) == problem.manhattan(s)
    assert weighted.table.lookup(s) == pytest.approx(1.2 * problem.manhattan(s))
    assert plain.current == s and plain.trail == []


def test_trap_hand_traces():
    assert check_trap_hand_traces() >= 7


def test_trap_upward_discipline_and_trail():
    assert check_upward_only_discipline(seed=4, instances=2) > 0
    assert check_trail_integrity(seed=5, instances=2) > 0


# --- randomized cross-checks against the reference interpreters --------------

def _perturbed_table(problem, s, rng, weight=1.0, radius=4):
    """A table whose values within `radius` moves of s are randomly
    inflated, to exercise both the move and the trapped branch.  With some
    probability every state around s is raised except s itself, digging a
    pit that guarantees a trap at any lookahead up to 3."""
    base = problem.manhattan
    table = HeuristicTable(base if weight == 1.0 else lambda s: weight * base(s))
    pit = rng.random() < 0.35
    for state in bfs_dist_from(problem, s, radius):
        if pit:
            if state != s:
                table.overlay[state] = problem.manhattan(state) + rng.choice((6, 8))
            continue
        roll = rng.random()
        if roll < 0.45:
            table.overlay[state] = problem.manhattan(state) + rng.choice((1, 2, 3, 6))
        elif roll < 0.55:
            table.overlay[state] = problem.manhattan(state)
    return table


def _fresh_agent(problem, table, seed):
    return AgentState(current=problem.initial_state, table=table,
                      rng=random.Random(seed))


def _cases(n, seed, depths=(1, 2, 3)):
    rng = random.Random(seed)
    for i in range(n):
        problem = TilePuzzle(random_solvable(3, 3, rng))
        for d_max in depths:
            yield rng, problem, d_max, i


def _deep_cases(seed):
    """Depth 6 on a few boards: the first 8-puzzle depth where a member is
    reached from several parents."""
    return _cases(3, seed, depths=(6,))


def _replay(problem, s, actions):
    for a in actions:
        s, _ = problem.apply(s, a)
    return s


def test_gamma_trap_matches_reference():
    moves = traps = 0
    for rng, problem, d_max, i in chain(_cases(20, 101), _deep_cases(105)):
        for gamma in (0.2, 1.0):
            for algorithm in (Algorithm.GTRAP_BT, Algorithm.GTRAP):
                cfg = AgentConfig(algorithm, d_max=d_max, gamma=gamma, seed=i)
                table = _perturbed_table(problem, problem.initial_state, rng,
                                         radius=max(4, d_max))
                s = problem.initial_state
                decision = reference_trap_decision(problem, table.lookup, s, d_max, gamma)
                agent = _fresh_agent(problem, table, seed=i)
                acts = step(agent, problem, cfg)
                wrote = table.writes > 0
                dest = s
                for a in acts:
                    dest, _ = problem.apply(dest, a)
                if not wrote:
                    kind, depth, best, winners = decision
                    assert kind == "move"
                    assert len(acts) == depth
                    assert dest in winners
                    assert gamma * depth + table.lookup(dest) == best
                    moves += 1
                else:
                    kind, new_h, overall, pool = decision
                    assert kind == "trapped"
                    assert table.overlay[s] == new_h
                    if algorithm is Algorithm.GTRAP:
                        assert dest in pool
                    else:
                        assert acts == []  # fresh agent stands at the start
                    traps += 1
    assert moves > 50 and traps > 50


def test_lrta_matches_reference():
    checked = 0
    for rng, problem, d_max, i in chain(_cases(20, 202), _deep_cases(206)):
        cfg = AgentConfig(Algorithm.LRTA, d_max=d_max, seed=i)
        table = _perturbed_table(problem, problem.initial_state, rng,
                                 radius=max(4, d_max))
        s = problem.initial_state
        backup, targets = reference_lrta_decision(problem, table.lookup, s, d_max)
        ok_moves = acceptable_first_moves(problem, s, targets, d_max)
        agent = _fresh_agent(problem, table, seed=i)
        acts = step(agent, problem, cfg)
        assert table.lookup(s) == backup
        assert len(acts) == 1 and acts[0] in ok_moves
        checked += 1
    assert checked == 63


def test_ilrta_matches_reference():
    checked = multi_parent = 0
    # seed 322 holds a depth-6 case whose tie pool differs when a member
    # with several parents is lifted by its first parent only
    for rng, problem, d_max, i in chain(_cases(20, 303), _deep_cases(322)):
        if d_max == 6:
            multi_parent += sum(len(m[3]) > 1 for layer in
                                iter_layers(problem, problem.initial_state, d_max)
                                for m in layer)
        for eps in (0.0, 0.2):
            cfg = AgentConfig(Algorithm.ILRTA, d_max=d_max, epsilon=eps, seed=i)
            table = _perturbed_table(problem, problem.initial_state, rng,
                                     weight=1.0 + eps, radius=max(4, d_max))
            s = problem.initial_state
            backup, targets = reference_ilrta_decision(problem, table.lookup, s, d_max)
            ok_moves = acceptable_first_moves(problem, s, targets, d_max)
            agent = _fresh_agent(problem, table, seed=i)
            agent.rng = RecordingRng(i)
            acts = step(agent, problem, cfg)
            assert table.lookup(s) == backup
            assert len(acts) == 1 and acts[0] in ok_moves
            # the tie pool holds exactly the reference's best candidates
            pool = agent.rng.pools[0] if agent.rng.pools else None
            if pool is None:
                assert len(targets) == 1
            else:
                assert sorted(_replay(problem, s, seq) for seq in pool) == \
                    sorted(n for n, _ in targets)
            checked += 1
    assert checked == 126 and multi_parent > 0


def test_rta_matches_reference():
    checked = 0
    for rng, problem, d_max, i in _cases(20, 404):
        cfg = AgentConfig(Algorithm.RTA, d_max=d_max, seed=i)
        table = _perturbed_table(problem, problem.initial_state, rng)
        s = problem.initial_state
        best_actions, second = reference_rta_decision(problem, table.lookup, s, d_max)
        agent = _fresh_agent(problem, table, seed=i)
        acts = step(agent, problem, cfg)
        assert len(acts) == 1 and acts[0] in best_actions
        assert table.overlay[s] == second
        checked += 1
    assert checked == 60


# --- targeted behavior -------------------------------------------------------

def test_rta_stores_sentinel_with_single_action():
    line = LineProblem(5)
    h = {0: 3, 1: 2, 2: 9, 3: 9, 4: 0}
    cfg = AgentConfig(Algorithm.RTA, d_max=1, seed=0)
    agent = make_agent(line, cfg, base=h.__getitem__)
    acts = step(agent, line, cfg)
    assert acts == [LineProblem.RIGHT]
    assert agent.table.lookup(0) == RTA_INFINITY


def test_rta_deep_probe_excludes_current_state():
    # From state 1 with lookahead 2: the left alternative's ball holds only
    # state 0 (state 1 is excluded), the right one reaches states 2 and 3.
    line = LineProblem(5, start=1)
    h = {0: 6, 1: 0, 2: 5, 3: 1, 4: 0}
    cfg = AgentConfig(Algorithm.RTA, d_max=2, seed=0)
    agent = make_agent(line, cfg, base=h.__getitem__)
    acts = step(agent, line, cfg)
    assert acts == [LineProblem.RIGHT]  # right scores 1 + min(5, 1+1) = 3
    assert agent.table.lookup(1) == 7   # runner-up: 1 + 6 through state 0


def test_rta_second_best_equals_best_on_ties():
    line = LineProblem(3, start=1)
    h = {0: 4, 1: 0, 2: 4}
    cfg = AgentConfig(Algorithm.RTA, d_max=1, seed=1)
    agent = make_agent(line, cfg, base=h.__getitem__)
    step(agent, line, cfg)
    assert agent.table.lookup(1) == 5


def test_ilrta_lifts_children_to_the_root_score():
    # h(1)=5 dominates both children's raw scores 2 and 3: no write, and
    # both actions stay tied at the lifted score 5.
    line = LineProblem(3, start=1, goals={2})
    h = {0: 1, 1: 5, 2: 2}
    cfg = AgentConfig(Algorithm.ILRTA, d_max=1, seed=0)
    agent = make_agent(line, cfg, base=h.__getitem__)
    agent.rng = RecordingRng(0)
    step(agent, line, cfg)
    assert agent.table.overlay == {}
    assert [sorted(p) for p in agent.rng.pools] == [[(LineProblem.RIGHT,), (LineProblem.LEFT,)]]


def test_ilrta_lifts_by_the_least_parent():
    # Diamond s-(a|b)-t: f(a)=10, f(b)=4; t raw 2 lifts to min-parent 4,
    # tying with b. A max-parent lift would leave b alone at 4.
    g = GraphProblem(edges=[("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
                     initial="s", goals={"t"})
    h = {"s": 1, "a": 9, "b": 3, "t": 0}
    cfg = AgentConfig(Algorithm.ILRTA, d_max=2, seed=0)
    agent = make_agent(g, cfg, base=h.__getitem__)
    agent.rng = RecordingRng(0)
    step(agent, g, cfg)
    assert agent.table.overlay == {"s": 4}
    assert len(agent.rng.pools) == 1 and len(agent.rng.pools[0]) == 2


def test_ilrta_with_zero_epsilon_replays_lrta_on_consistent_base():
    # With a consistent base the lift never binds and upward gating never
    # blocks, so both policies must produce identical runs, move for move.
    rng = random.Random(77)
    for d_max in (1, 2):
        for _ in range(3):
            problem = TilePuzzle(random_solvable(3, 3, rng))
            runs = []
            for algorithm in (Algorithm.LRTA, Algorithm.ILRTA):
                cfg = AgentConfig(algorithm, d_max=d_max, seed=9)
                agent = make_agent(problem, cfg, base=problem.manhattan)
                actions = []
                current = agent.current
                for _ in range(100_000):
                    if problem.is_goal(current):
                        break
                    acts = step(agent, problem, cfg)
                    actions.extend(acts)
                    for a in acts:
                        current, _ = problem.apply(current, a)
                    agent.current = current
                runs.append((actions, dict(agent.table.overlay)))
            assert runs[0] == runs[1]


def test_lrta_can_lower_values_but_trap_policy_cannot():
    line = LineProblem(3, start=1)
    h = {0: 0, 1: 9, 2: 0}
    cfg = AgentConfig(Algorithm.LRTA, d_max=1, seed=0)
    agent = make_agent(line, cfg, base=h.__getitem__)
    step(agent, line, cfg)
    assert agent.table.lookup(1) == 1  # mini-min drops 9 to 1


def test_tie_breaking_covers_both_sides():
    line = LineProblem(3, start=1, goals={0, 2})
    h = {0: 2, 1: 0, 2: 2}
    seen = set()
    for seed in range(30):
        cfg = AgentConfig(Algorithm.LRTA, d_max=1, seed=seed)
        agent = make_agent(line, cfg, base=h.__getitem__)
        seen.add(step(agent, line, cfg)[0])
    assert seen == {LineProblem.RIGHT, LineProblem.LEFT}


def test_policies_raise_on_isolated_state():
    g = GraphProblem(edges=[("a", "b")], initial="lonely", goals={"b"})
    h = {"lonely": 1, "a": 1, "b": 0}
    for algorithm in Algorithm:
        gamma = 0.5 if algorithm in GAMMA_ALGORITHMS else 1.0
        cfg = AgentConfig(algorithm, d_max=2, gamma=gamma, seed=0)
        agent = make_agent(g, cfg, base=h.__getitem__)
        with pytest.raises(DomainViolation):
            step(agent, g, cfg)


def test_same_seed_same_run():
    problem = TilePuzzle(random_solvable(3, 3, random.Random(12)))
    cfg = AgentConfig(Algorithm.GTRAP_BT, gamma=0.2, seed=5)
    records = []
    for _ in range(2):
        agent = make_agent(problem, cfg, base=problem.manhattan)
        rec = run_trial(agent, problem, cfg)
        records.append((rec.solution_cost, rec.moves, tuple(agent.trial_actions)))
    assert records[0] == records[1]


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(0, 0, 0, "x")
    assert a == derive_seed(0, 0, 0, "x")
    grid = {derive_seed(7, f, i, tag)
            for f in range(10) for i in range(100) for tag in ("a", "b")}
    assert len(grid) == 2000
    assert all(0 <= v < 2**64 for v in grid)
    assert derive_seed(7, 0, 0, "a") != derive_seed(8, 0, 0, "a")


def test_trap_bound_holds_after_convergence(p8_dist):
    rng = random.Random(21)
    for algorithm in (Algorithm.GTRAP_BT, Algorithm.GTRAP):
        board = random_solvable(3, 3, rng)
        problem = TilePuzzle(board)
        cfg = AgentConfig(algorithm, d_max=1, gamma=0.2, seed=3)
        agent = make_agent(problem, cfg, base=problem.manhattan)
        rec = run_until_convergence(agent, problem, cfg)
        assert rec.converged_at is not None
        assert rec.final_cost <= p8_dist[board.tiles] / 0.2


def test_lrta_converges_to_optimal(p8_dist):
    rng = random.Random(22)
    for _ in range(3):
        board = random_solvable(3, 3, rng)
        problem = TilePuzzle(board)
        cfg = AgentConfig(Algorithm.LRTA, d_max=1, seed=4)
        agent = make_agent(problem, cfg, base=problem.manhattan)
        rec = run_until_convergence(agent, problem, cfg)
        assert rec.converged_at is not None
        assert rec.final_cost == p8_dist[board.tiles]
