"""Integration tests for the merchandise query workflow (Figure 4.2)."""

import pytest

from repro import build_platform
from repro.agents.lifecycle import AgletState
from repro.errors import SessionError
from repro.experiments.figures import QUERY_WORKFLOW_STEPS


@pytest.fixture
def query_run(platform):
    """Login, run one query, return (platform, session, results, events)."""
    session = platform.login("alice")
    start = len(platform.event_log)
    results = session.query("books")
    events = platform.event_log.events[start:]
    return platform, session, results, events


class TestQueryWorkflow:
    def test_query_returns_merchandise_from_marketplaces(self, query_run):
        _, _, results, _ = query_run
        assert results
        assert all(result.item.category == "books" or
                   result.item.matches_keyword("books") for result in results)
        assert {result.marketplace for result in results} <= {"marketplace-1", "marketplace-2"}

    def test_all_figure_42_steps_present_in_order(self, query_run):
        _, _, _, events = query_run
        workflow = [e.category for e in events if e.category.startswith("workflow.")]
        positions = []
        for step in QUERY_WORKFLOW_STEPS:
            assert step in workflow, f"missing workflow step {step}"
            positions.append(workflow.index(step))
        assert positions == sorted(positions), "workflow steps out of order"

    def test_bra_deactivated_while_mba_away_then_reactivated(self, query_run):
        _, _, _, events = query_run
        categories = [e.category for e in events if e.category.startswith("workflow.")]
        deactivated = categories.index("workflow.bra-deactivated")
        queried = categories.index("workflow.marketplace-queried")
        activated = categories.index("workflow.bra-activated")
        assert deactivated < queried < activated

    def test_mba_visits_every_marketplace(self, query_run):
        _, _, _, events = query_run
        visited = [
            e.target for e in events if e.category == "workflow.marketplace-queried"
        ]
        assert visited == ["marketplace-1", "marketplace-2"]

    def test_mba_authenticated_and_recorded_in_bsmdb(self, query_run):
        platform, _, _, _ = query_run
        history = platform.buyer_server.bsmdb.mba_history()
        assert len(history) == 1
        record = history[0]
        assert record.task == "query"
        assert record.returned_at is not None
        assert record.authenticated
        assert platform.buyer_server.context.auth.verified_count >= 1

    def test_mba_disposed_after_return(self, query_run):
        platform, _, _, _ = query_run
        assert platform.buyer_server.context.active_count("MBA") == 0

    def test_bra_is_active_again_after_the_query(self, query_run):
        platform, session, _, _ = query_run
        bra = platform.buyer_server.context.get_local(session.bra_id)
        assert bra.state is AgletState.ACTIVE

    def test_query_behaviour_updates_profile_and_ratings(self, query_run):
        platform, _, results, _ = query_run
        user_db = platform.buyer_server.user_db
        profile = user_db.profile("alice")
        assert profile.feedback_events > 0
        assert profile.has_category("books")
        assert user_db.ratings.has_user("alice")

    def test_recommendations_accompany_the_results(self, query_run):
        _, session, _, _ = query_run
        assert session.last_recommendations is not None

    def test_query_latency_reflects_marketplace_hops(self, query_run):
        platform, _, _, events = query_run
        workflow = [e for e in events if e.category.startswith("workflow.")]
        start = workflow[0].timestamp
        end = workflow[-1].timestamp
        # Two marketplaces, ~5ms per hop, at least 3 hops of travel.
        assert end - start >= 10.0

    def test_query_restricted_to_one_marketplace(self, platform):
        session = platform.login("bob")
        results = session.query("books", marketplaces=["marketplace-2"])
        assert all(result.marketplace == "marketplace-2" for result in results)
        session.logout()

    def test_query_requires_login(self, platform):
        from repro.ecommerce.session import ConsumerSession

        session = ConsumerSession(platform.buyer_server, "stranger")
        with pytest.raises(SessionError):
            session.query("books")

    def test_second_query_reuses_the_same_bra(self, query_run):
        platform, session, _, _ = query_run
        bra_before = session.bra_id
        session.query("electronics")
        assert session.bra_id == bra_before
        assert platform.buyer_server.context.active_count("BRA") == 1


class TestQueryNeighbourSearch:
    """A query request runs one neighbour search, shared with its discoveries."""

    @pytest.fixture
    def community(self):
        """A 1-server platform where a few consumers have bought and rated."""
        platform = build_platform(seed=0)
        gateway = platform.gateway()
        books = sorted(
            (item for item in platform.catalog_view() if item.category == "books"),
            key=lambda item: item.item_id,
        )
        for index in range(8):
            user = f"neighbour-{index}"
            gateway.login(user)
            for item in books[index % 3:index % 3 + 4]:
                assert gateway.rate(user, item, 3.0 + index % 3).ok
            gateway.logout(user)
        gateway.login("alice")
        assert gateway.rate("alice", books[0], 5.0).ok
        # A keyword that hits a few books, leaving the rest to be discovered.
        return platform, gateway, books[0].terms[0][0]

    def test_query_runs_exactly_one_neighbour_search(self, community):
        platform, gateway, keyword = community
        index = platform.buyer_server.recommendations.neighbor_index
        before = index.queries
        response = gateway.query("alice", keyword)
        assert response.ok and response.result.hits
        assert index.queries - before == 1

    def test_discoveries_equal_a_standalone_recommend(self, community):
        platform, gateway, keyword = community
        response = gateway.query("alice", keyword)
        hits = response.result.hits
        recommendations = list(response.result.recommendations)
        ranked = [rec for rec in recommendations if rec.reason == "ranked query result"]
        discoveries = recommendations[len(ranked):]
        assert discoveries, "the community must yield similar-consumer discoveries"
        categories = {hit.item.category for hit in hits}
        category = next(iter(categories)) if len(categories) == 1 else None
        already = {rec.item_id for rec in ranked} | {hit.item.item_id for hit in hits}
        hybrid = platform.buyer_server.recommendations.hybrid
        standalone = hybrid.recommend("alice", k=5, category=category, exclude=already)
        assert discoveries == standalone
