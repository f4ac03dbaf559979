"""The search loop and its frontier policies."""

import threading

import pytest

from repro.core import (
    BestFirstSearch,
    Node,
    SearchConfig,
    SearchResult,
    SearchStats,
    Status,
    make_frontier,
)
from repro.core.expand import Expander, Expansion
from repro.core.frontier import BestFirstFrontier
from repro.errors import ReproError
from repro.kernel.goals import initial_state
from repro.llm import Candidate, get_model
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.trace import Tracer
from repro.prompting import PromptBuilder
from repro.serapi import ProofChecker
from repro.tactics.script import run_script


class _ScriptedModel:
    """Replays fixed candidate lists (deterministic test double)."""

    name = "scripted"
    context_window = 10**9
    provides_log_probs = True

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.calls = 0

    def generate(self, prompt, k):
        index = min(self.calls, len(self.rounds) - 1)
        self.calls += 1
        return [
            Candidate(t, -float(i + 1))
            for i, t in enumerate(self.rounds[index][:k])
        ]


def _search_for(project, name, model, metrics=NULL_METRICS, **config):
    theorem = project.theorem(name)
    env = project.env_for(theorem)
    checker = ProofChecker(env, metrics=metrics)
    builder = PromptBuilder(project, theorem)
    search = BestFirstSearch(
        checker, model, SearchConfig(**config), metrics=metrics
    )
    return search, theorem, builder, env


def _expansions(spans):
    """Each ``expand`` span's node (depth, score, goal preview) with
    its ``tactic`` children's (text, verdict, message), in order."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def attrs(span, *keys):
        return tuple(span["attrs"][key] for key in keys)

    return [
        (
            attrs(span, "depth", "score", "goal"),
            [
                attrs(kid, "tactic", "verdict", "message")
                for kid in children.get(span["span"], [])
                if kid["name"] == "tactic"
            ],
        )
        for span in spans
        if span["name"] == "expand"
    ]


class TestFrontiers:
    def _nodes(self):
        import dataclasses

        dummy_state = object()
        return [
            Node(state=None, key=str(i), cum_log_prob=lp, depth=0)
            for i, lp in enumerate([-2.0, -0.5, -1.0])
        ]

    def test_best_first_order(self):
        frontier = make_frontier("best-first")
        for node in self._nodes():
            frontier.push(node)
        assert frontier.pop().cum_log_prob == -0.5
        assert frontier.pop().cum_log_prob == -1.0

    def test_depth_first_lifo(self):
        frontier = make_frontier("depth-first")
        for node in self._nodes():
            frontier.push(node)
        assert frontier.pop().key == "2"

    def test_breadth_first_fifo(self):
        frontier = make_frontier("breadth-first")
        for node in self._nodes():
            frontier.push(node)
        assert frontier.pop().key == "0"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_frontier("monte-carlo")

    def test_ties_fifo(self):
        frontier = BestFirstFrontier()
        a = Node(state=None, key="a", cum_log_prob=-1.0, depth=0)
        b = Node(state=None, key="b", cum_log_prob=-1.0, depth=0)
        frontier.push(a)
        frontier.push(b)
        assert frontier.pop() is a


class TestSearch:
    def test_scripted_proof_found(self, project):
        model = _ScriptedModel(
            [["intros", "auto"], ["induction n", "reflexivity"]]
        )
        search, theorem, builder, env = _search_for(
            project, "plus_0_l", model
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.PROVED
        run_script(env, theorem.statement, result.proof_text())  # Qed

    def test_stuck_when_all_rejected(self, project):
        model = _ScriptedModel([["discriminate", "nonsense tactic"]])
        search, theorem, builder, _ = _search_for(project, "plus_0_l", model)
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.STUCK
        assert result.stats.rejected >= 2

    def test_fuelout_on_query_limit(self, project):
        # `intros; simpl in *` style no-ops are duplicates; keep a
        # chain of new-but-useless states alive to exhaust the fuel.
        model = _ScriptedModel([["assert (0 = 0)"]])
        search, theorem, builder, _ = _search_for(
            project, "plus_comm", model, fuel=5
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.FUELOUT
        assert result.stats.queries == 5

    def test_duplicate_states_pruned(self, project):
        model = _ScriptedModel([["auto", "auto", "intros"]])
        search, theorem, builder, _ = _search_for(
            project, "plus_comm", model, fuel=3
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.stats.duplicates >= 1

    def test_dedup_off_keeps_duplicates(self, project):
        model = _ScriptedModel([["auto"], ["auto"], ["auto"]])
        search, theorem, builder, _ = _search_for(
            project, "plus_comm", model, fuel=2, dedup_states=False
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.stats.duplicates == 0

    def test_trace_records_expansions(self, project):
        model = _ScriptedModel([["intros"], ["lia"]])
        tracer = Tracer()
        search, theorem, builder, _ = _search_for(
            project, "le_trans", model, metrics=Metrics(tracer)
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.PROVED
        expansions = _expansions(tracer.export())
        assert [tactics for _, tactics in expansions] == [
            [("intros", "valid", "")],
            [("lia", "valid", "")],
        ]

    @pytest.mark.parametrize(
        "kind",
        ["best-first", "depth-first", "breadth-first", "mcts", "linear"],
    )
    def test_every_policy_reports_its_queries_as_spans(self, project, kind):
        tracer = Tracer()
        search, theorem, builder, _ = _search_for(
            project,
            "plus_comm",
            get_model("gpt-4o"),
            metrics=Metrics(tracer),
            fuel=16,
            frontier=kind,
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        names = [span["name"] for span in tracer.export()]
        assert result.stats.nodes_expanded > 1
        assert names.count("generation") == result.stats.queries
        assert names.count("expand") == result.stats.nodes_expanded

    def test_real_model_end_to_end(self, project):
        model = get_model("gpt-4o")
        search, theorem, builder, env = _search_for(
            project, "app_nil_l", model
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.PROVED
        run_script(env, theorem.statement, result.proof_text())

    def test_search_deterministic(self, project):
        model = get_model("gemini-1.5-flash")
        search, theorem, builder, _ = _search_for(
            project, "Forall_inv", model, fuel=16
        )
        r1 = search.prove(theorem.name, theorem.statement, builder.build)
        r2 = search.prove(theorem.name, theorem.statement, builder.build)
        assert r1.status == r2.status
        assert r1.tactics == r2.tactics


class _Goals:
    """A stand-in proof state with ``n`` open goals."""

    def __init__(self, n):
        self.n = n

    def num_goals(self):
        return self.n

    def is_complete(self):
        return self.n == 0


class _FixedExpander:
    """Admits the given open children, as ``Expander.expand`` would."""

    def __init__(self, children):
        self.children = children

    def expand(self, node, candidates, limit=None):
        return Expansion(children=list(self.children))


class TestFrontierReservations:
    """reserve/commit/release across every policy (virtual loss); ``mcts``
    and ``linear`` hand out one node at a time."""

    def _nodes(self, scores=(-2.0, -0.5, -1.0)):
        return [
            Node(state=None, key=str(i), cum_log_prob=lp, depth=0)
            for i, lp in enumerate(scores)
        ]

    def test_best_first_reserve_skips_to_sibling(self):
        frontier = make_frontier("best-first")
        for node in self._nodes():
            frontier.push(node)
        first = frontier.reserve()
        second = frontier.reserve()
        assert first.cum_log_prob == -0.5
        assert second.cum_log_prob == -1.0  # not the reserved node again
        assert len(frontier) == 1

    def test_best_first_release_restores_exact_order(self):
        frontier = make_frontier("best-first")
        a = Node(state=None, key="a", cum_log_prob=-1.0, depth=0)
        b = Node(state=None, key="b", cum_log_prob=-1.0, depth=0)
        c = Node(state=None, key="c", cum_log_prob=-2.0, depth=0)
        for node in (a, b, c):
            frontier.push(node)
        r1 = frontier.reserve()
        r2 = frontier.reserve()
        assert (r1, r2) == (a, b)
        # Reverse reservation order: ties land back in FIFO position.
        frontier.release(r2)
        frontier.release(r1)
        assert frontier.pop() is a
        assert frontier.pop() is b
        assert frontier.pop() is c

    def test_best_first_commit_is_final(self):
        frontier = make_frontier("best-first")
        for node in self._nodes():
            frontier.push(node)
        node = frontier.reserve()
        frontier.commit(node)
        frontier.release(node)  # after commit: re-queued as a plain push
        assert len(frontier) == 3

    def test_depth_first_reserve_release_round_trip(self):
        frontier = make_frontier("depth-first")
        nodes = self._nodes()
        for node in nodes:
            frontier.push(node)
        r1 = frontier.reserve()
        r2 = frontier.reserve()
        assert (r1.key, r2.key) == ("2", "1")
        frontier.release(r2)
        frontier.release(r1)
        assert [frontier.pop().key for _ in range(3)] == ["2", "1", "0"]

    def test_breadth_first_reserve_release_round_trip(self):
        frontier = make_frontier("breadth-first")
        for node in self._nodes():
            frontier.push(node)
        r1 = frontier.reserve()
        r2 = frontier.reserve()
        assert (r1.key, r2.key) == ("0", "1")
        frontier.release(r2)
        frontier.release(r1)
        assert [frontier.pop().key for _ in range(3)] == ["0", "1", "2"]

    def test_len_tracks_pushes_pops_and_reservations(self):
        # Covers the deque-backed BFS pop fix alongside the others.
        for kind in ("best-first", "depth-first", "breadth-first"):
            frontier = make_frontier(kind)
            nodes = self._nodes(scores=tuple(-float(i) for i in range(6)))
            for node in nodes:
                frontier.push(node)
            assert len(frontier) == 6
            frontier.pop()
            assert len(frontier) == 5
            reserved = frontier.reserve()
            assert len(frontier) == 4
            frontier.release(reserved)
            assert len(frontier) == 5
            popped = [frontier.pop() for _ in range(5)]
            assert all(p is not None for p in popped)
            assert len(frontier) == 0
            assert frontier.pop() is None

    def test_breadth_first_fifo_order_at_scale(self):
        frontier = make_frontier("breadth-first")
        nodes = self._nodes(scores=tuple(-float(i) for i in range(50)))
        for node in nodes:
            frontier.push(node)
        assert [frontier.pop().key for _ in range(50)] == [
            str(i) for i in range(50)
        ]

    def _node(self, key, goals=1, parent=None, log_prob=0.0):
        return Node(
            state=_Goals(goals),
            key=key,
            cum_log_prob=log_prob,
            depth=0 if parent is None else parent.depth + 1,
            parent=parent,
            log_prob=log_prob,
        )

    def _expand(self, frontier, node, children):
        # The loop's commit of an expansion.
        frontier.commit(node)
        return frontier.grow(node, [], _FixedExpander(children))

    def test_mcts_one_node_at_a_time(self):
        frontier = make_frontier("mcts")
        root = self._node("root")
        frontier.push(root)
        assert frontier.reserve() is root
        assert frontier.reserve() is None  # root still in flight
        frontier.release(root)
        assert frontier.reserve() is root
        assert len(frontier) == 0
        a, b = self._node("a", parent=root), self._node("b", parent=root)
        assert self._expand(frontier, root, [a, b]) is None
        assert len(frontier) == 2
        assert frontier.reserve() is not None
        assert frontier.reserve() is None
        assert len(frontier) == 1

    def test_mcts_counts_unexpanded_nodes_to_exhaustion(self):
        frontier = make_frontier("mcts")
        root = self._node("root")
        frontier.push(root)
        frontier.reserve()
        a = self._node("a", parent=root, log_prob=-0.1)
        b = self._node("b", parent=root, goals=3, log_prob=-10.0)
        assert self._expand(frontier, root, [a, b]) is None
        first = frontier.reserve()
        assert first is a  # the likelier, fewer-goal child
        assert self._expand(frontier, first, []) is None  # b is open
        # b's prior is so low that UCT walks into the dead leaf a
        # first; each such walk backs a up with value 0 and starts
        # again from the root, until b's exploration term wins.
        second = frontier.reserve()
        assert second is b
        assert self._expand(frontier, second, []) == (Status.STUCK, None)
        assert len(frontier) == 0
        assert frontier.reserve() is None

    def test_mcts_nothing_pushed_reserves_nothing(self):
        assert make_frontier("mcts").reserve() is None

    def test_linear_one_node_at_a_time(self):
        frontier = make_frontier("linear")
        root = self._node("root")
        frontier.push(root)
        assert frontier.reserve() is root
        assert frontier.reserve() is None
        frontier.release(root)
        assert len(frontier) == 1
        assert frontier.reserve() is root
        a, b = self._node("a", parent=root), self._node("b", parent=root)
        assert self._expand(frontier, root, [a, b]) is None
        assert len(frontier) == 1
        assert frontier.reserve() is a  # only the first valid child

    def test_linear_dead_end_with_empty_trail_is_stuck(self):
        frontier = make_frontier("linear")
        root = self._node("root")
        frontier.push(root)
        frontier.reserve()
        assert self._expand(frontier, root, []) == (Status.STUCK, None)
        assert len(frontier) == 0


class TestPrefixSeeding:
    def test_first_expansion_is_deepest_prefix_node(self, project):
        # Regression: the old -(n-d)*1e-6 seed scoring gave the deepest
        # prefix node exactly 0.0 — tying the root, which was pushed
        # first and therefore won the FIFO tie-break, so every repair
        # round re-expanded the root instead of the failure frontier.
        model = _ScriptedModel([["lia"]])
        search, theorem, builder, _ = _search_for(project, "le_trans", model)
        prefixes_seen = []

        def spy_prompt(state, prefix):
            prefixes_seen.append(list(prefix))
            return builder.build(state, prefix)

        result = search.prove(
            theorem.name,
            theorem.statement,
            spy_prompt,
            initial_tactics=["intros"],
        )
        assert result.status is Status.PROVED
        assert prefixes_seen[0] == ["intros"], (
            "the seeded prefix node, not the root, must be expanded first"
        )

    def test_deepest_of_longer_prefix_wins(self, project):
        model = _ScriptedModel([["nonsense tactic"]])
        search, theorem, builder, _ = _search_for(
            project, "rev_involutive", model, fuel=1
        )
        prefixes_seen = []

        def spy_prompt(state, prefix):
            prefixes_seen.append(list(prefix))
            return builder.build(state, prefix)

        search.prove(
            theorem.name,
            theorem.statement,
            spy_prompt,
            initial_tactics=["induction l", "simpl"],
        )
        assert prefixes_seen[0] == ["induction l", "simpl"]

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("linear", [["induction l", "simpl"]]),
            ("mcts", [[], ["induction l"], ["induction l", "simpl"]]),
        ],
    )
    def test_policies_take_a_seeded_prefix(self, project, kind, expected):
        # linear resumes from the deepest prefix node; mcts adds the
        # prefix to its tree and walks down to it from the root.
        model = _ScriptedModel([["nonsense tactic"]])
        search, theorem, builder, _ = _search_for(
            project, "rev_involutive", model, frontier=kind
        )
        prefixes_seen = []

        def spy_prompt(state, prefix):
            prefixes_seen.append(list(prefix))
            return builder.build(state, prefix)

        result = search.prove(
            theorem.name,
            theorem.statement,
            spy_prompt,
            initial_tactics=["induction l", "simpl"],
        )
        assert result.status is Status.STUCK
        assert prefixes_seen == expected

    def test_seeded_frontier_scores_increase_with_depth(self, project):
        theorem = project.theorem("rev_involutive")
        env = project.env_for(theorem)
        checker = ProofChecker(env)
        frontier = BestFirstFrontier()
        state = checker.start(theorem.statement)
        root = Node(
            state=state, key=checker.state_key(state), cum_log_prob=0.0,
            depth=0,
        )
        frontier.push(root)
        # Mirror prove()'s seeding arithmetic directly.
        for offset in range(3):
            frontier.push(
                Node(
                    state=state,
                    key=f"seed{offset}",
                    cum_log_prob=(offset + 1) * 1e-6,
                    depth=offset + 1,
                )
            )
        order = [frontier.pop().depth for _ in range(4)]
        assert order == [3, 2, 1, 0]


class TestZeroCandidateExpansions:
    def test_empty_candidate_list_records_sentinel_failure(self, project):
        from repro.core.search import NO_CANDIDATES_TACTIC

        model = _ScriptedModel([[]])
        search, theorem, builder, _ = _search_for(project, "plus_0_l", model)
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.STUCK
        assert result.failure is not None, (
            "a zero-candidate STUCK search must stay repair-eligible"
        )
        assert result.failure.failed_tactic == NO_CANDIDATES_TACTIC
        assert result.failure.verdict == "rejected"

    def test_all_blank_tactics_record_sentinel_failure(self, project):
        from repro.core.search import NO_CANDIDATES_TACTIC

        model = _ScriptedModel([["", "   "]])
        search, theorem, builder, _ = _search_for(project, "plus_0_l", model)
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.STUCK
        assert result.failure is not None
        assert result.failure.failed_tactic == NO_CANDIDATES_TACTIC

    def test_real_rejection_still_wins_over_sentinel(self, project):
        model = _ScriptedModel([["nonsense tactic", ""]])
        search, theorem, builder, _ = _search_for(project, "plus_0_l", model)
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.failure is not None
        assert result.failure.failed_tactic == "nonsense tactic"


class TestPipelinedSearch:
    def _result_fields(self, result):
        return (
            result.status,
            result.tactics,
            result.stats.queries,
            result.stats.candidates,
            result.stats.nodes_created,
            result.stats.nodes_expanded,
            result.stats.rejected,
            result.stats.duplicates,
            result.failure,
        )

    def _prove(self, project, name, depth, fuel=16, **kwargs):
        model = get_model("gpt-4o")
        tracer = Tracer()
        search, theorem, builder, _ = _search_for(
            project,
            name,
            model,
            metrics=Metrics(tracer),
            fuel=fuel,
            pipeline_depth=depth,
            **kwargs,
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        return result, _expansions(tracer.export())

    def _serial_loop(self, project, name, fuel=16):
        """The paper's loop written out — pop, prompt, generate, expand —
        as the reference the pipelined executor replays at depth 1."""
        model = get_model("gpt-4o")
        theorem = project.theorem(name)
        tracer = Tracer()
        metrics = Metrics(tracer)
        checker = ProofChecker(project.env_for(theorem), metrics=metrics)
        builder = PromptBuilder(project, theorem)
        config = SearchConfig(fuel=fuel)
        stats = SearchStats()
        expander = Expander(checker, stats, max_depth=config.max_depth)
        frontier = make_frontier(config.frontier)
        frontier.push(expander.root(checker.start(theorem.statement)))
        status, tactics = Status.FUELOUT, []
        while stats.queries < config.fuel:
            node = frontier.pop()
            if node is None:
                status = Status.STUCK
                break
            prompt = builder.build(node.state, node.tactics_from_root())
            stats.queries += 1
            candidates = model.generate(prompt, config.width)
            stats.nodes_expanded += 1
            with metrics.span(
                "expand",
                depth=node.depth,
                score=round(node.cum_log_prob, 6),
                goal=" ".join(node.state.render().split())[:160],
            ):
                expansion = expander.expand(node, candidates)
            if expansion.proof is not None:
                status = Status.PROVED
                tactics = expansion.proof.tactics_from_root()
                break
            for child in expansion.children:
                frontier.push(child)
        failure = None if status is Status.PROVED else expander.failure
        result = SearchResult(status, theorem.name, tactics, stats, failure)
        return result, _expansions(tracer.export())

    def test_depth1_matches_serial_exactly(self, project):
        for name in ("app_nil_l", "le_trans", "rev_involutive"):
            serial, serial_t = self._serial_loop(project, name)
            piped, piped_t = self._prove(project, name, depth=1)
            assert self._result_fields(piped) == self._result_fields(serial)
            assert serial_t and piped_t == serial_t

    def test_depth4_same_coverage(self, project):
        for name in ("app_nil_l", "le_trans", "plus_0_l"):
            serial, _ = self._prove(project, name, depth=1)
            piped, _ = self._prove(project, name, depth=4)
            assert piped.status is serial.status
            if serial.status is Status.PROVED:
                assert piped.tactics  # a valid proof, possibly different

    def test_depth4_run_to_run_deterministic(self, project):
        r1, t1 = self._prove(project, "rev_involutive", depth=4)
        r2, t2 = self._prove(project, "rev_involutive", depth=4)
        assert self._result_fields(r1) == self._result_fields(r2)
        assert t1 == t2

    def test_depth4_calls_the_model_on_the_search_thread(self, project):
        # No pool and no dispatcher: a deeper pipeline costs an
        # in-process model nothing beyond the batching itself.
        model = get_model("gpt-4o")
        callers = []

        class Spy:
            name = model.name
            context_window = model.context_window
            provides_log_probs = True

            def generate(self, prompt, k):
                callers.append(threading.current_thread())
                return model.generate(prompt, k)

            def generate_batch(self, requests):
                callers.append(threading.current_thread())
                return model.generate_batch(requests)

        threads = threading.active_count()
        search, theorem, builder, _ = _search_for(
            project, "rev_involutive", Spy(), fuel=16, pipeline_depth=4
        )
        search.prove(theorem.name, theorem.statement, builder.build)
        assert set(callers) == {threading.current_thread()}
        assert threading.active_count() == threads

    def test_depth1_fuelout_and_stuck_match_serial(self, project):
        model_rounds = [["assert (0 = 0)"]]
        for depth in (1, 3):
            model = _ScriptedModel(model_rounds)
            search, theorem, builder, _ = _search_for(
                project, "plus_comm", model, fuel=5, pipeline_depth=depth
            )
            result = search.prove(
                theorem.name, theorem.statement, builder.build
            )
            assert result.status is Status.FUELOUT
            assert result.stats.queries == 5

    def test_pipelined_timeout_releases_frontier(self, project):
        # A fake clock that expires the deadline after the first round:
        # the pipelined loop must exit TIMEOUT cleanly (released
        # reservations, closed pipeline) rather than hanging.
        ticks = [0.0]

        def fake_clock():
            ticks[0] += 0.4
            return ticks[0]

        model = _ScriptedModel([["assert (0 = 0)"]])
        theorem = project.theorem("plus_comm")
        checker = ProofChecker(project.env_for(theorem))
        builder = PromptBuilder(project, theorem)
        search = BestFirstSearch(
            checker,
            model,
            SearchConfig(fuel=50, pipeline_depth=3, theorem_deadline=2.0),
            clock=fake_clock,
        )
        result = search.prove(theorem.name, theorem.statement, builder.build)
        assert result.status is Status.TIMEOUT
