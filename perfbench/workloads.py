"""The benchmark's three workloads, each a seeded day of gateway sessions.

A workload has two halves.  ``setup(tick)`` builds the platform and the
consumer population, and fills whatever community the day needs; its wall
time is ``setup_s``.  A set-up that takes seconds calls ``tick()`` every so
often, so that the benchmark can sample the host's speed while it runs.
``drive(world, seed)`` submits the day's sessions through
``PlatformGateway.submit`` and drains them with the gateway's
``SessionScheduler``; only that drain is timed.

The data set (catalogue, population, rated community) is fixed by
``DATA_SEED``; the traffic (which consumers come, when, what they search
for and trade) is drawn from the day's seed, so one seed always yields the
same envelope stream.  Fixing the data keeps a run's figures about the
code: on a seeded data set the cost of a neighbour search alone moves by
~15% from one catalogue to the next.

Why these three (the layer shares come from a traced run on a 2-core host):

- ``browse`` is ROADMAP's yardstick day (800 sessions, 1,500 consumers,
  4 servers, rf=1, 2 queries per session, 25% ask for recommendations,
  admission off).  Its load is mixed: neighbour search and the agents each
  take about a third of request time.
- ``similar`` is a read-only fleet fan-out over a community rated during
  set-up (3,000 consumers, ~750 per shard).  Sessions are login →
  find_similar → logout, half of them asking for recommendations before
  logout, so neighbour search dominates and no aglet migrates: a
  scoring-kernel change shows here, an agent-path change must not.  With
  every session asking, login and logout would be exactly half of the
  requests and the median would sit in the gap between cheap and expensive
  calls, jumping from run to run.
- ``trade`` writes on a small community at rf=2: every session is query →
  buy, negotiate or auction, so agents, recommendation assembly, learning
  and replication all carry load, and a cache keyed by profile version pays
  its miss path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict

from repro.api.envelope import ApiStatus
from repro.api.requests import (
    AuctionRequest,
    BuyRequest,
    LoginRequest,
    LogoutRequest,
    NegotiateRequest,
    QueryRequest,
    RateRequest,
)
from repro.ecommerce.platform_builder import build_platform
from repro.workload import ConcurrentDriver, ConsumerPopulation
from repro.workload.arrivals import PoissonArrivals, ThinkTime


#: Seed of every workload's platform, catalogue and population.
DATA_SEED = 0


@dataclass
class World:
    """What ``setup`` built: the platform and the population it serves."""

    platform: object
    population: ConsumerPopulation


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Callable[[], None]], World]
    drive: Callable[[World, int], None]
    #: Wall seconds one day's drain takes on a 2-core host; a run of
    #: ``--seconds`` drives ``max(1, round(seconds / (2 * day_seconds)))``
    #: days, each drained twice.
    day_seconds: float


# -- browse -------------------------------------------------------------------


def _browse_setup(tick) -> World:
    platform = build_platform(seed=DATA_SEED, num_buyer_servers=4, replication_factor=1)
    return World(platform, ConsumerPopulation(1500, seed=DATA_SEED))


def _browse_drive(world: World, seed: int) -> None:
    ConcurrentDriver(world.platform, world.population, seed=seed).run(
        sessions=800,
        queries_per_session=2,
        recommendation_probability=0.25,
    )


# -- similar ------------------------------------------------------------------

#: Consumers rated during set-up, and ratings each gives.
SIMILAR_COMMUNITY = 3000
SIMILAR_RATINGS = 3


def _similar_setup(tick) -> World:
    platform = build_platform(seed=DATA_SEED, num_buyer_servers=4, replication_factor=1)
    population = ConsumerPopulation(SIMILAR_COMMUNITY, seed=DATA_SEED)
    gateway = platform.gateway()
    items = sorted(platform.catalog_view(), key=lambda item: item.item_id)
    rng = random.Random(DATA_SEED)
    for position, consumer in enumerate(population.consumers()):
        if position % 100 == 0:
            tick()
        liked = sorted(items, key=lambda item: -consumer.utility(item))[:12]
        user_id = consumer.user_id
        _require_ok(gateway.execute(LoginRequest(user_id)))
        for item in rng.sample(liked, SIMILAR_RATINGS):
            rating = round(min(5.0, 5.0 * consumer.utility(item)), 2)
            _require_ok(gateway.execute(RateRequest(user_id, item, rating)))
        _require_ok(gateway.execute(LogoutRequest(user_id)))
    # Index the rated community now, as a long-running server would have,
    # so the timed day does not pay a one-off rebuild of every profile.
    for server in platform.buyer_servers:
        server.recommendations.neighbor_index.sync()
    return World(platform, population)


def _similar_drive(world: World, seed: int) -> None:
    ConcurrentDriver(world.platform, world.population, seed=seed).run(
        sessions=300,
        queries_per_session=0,
        recommendation_probability=0.5,
        find_similar_probability=1.0,
    )


def _require_ok(response) -> None:
    if response.status != ApiStatus.OK:
        raise RuntimeError(
            f"set-up request {response.operation} resolved {response.status}: "
            f"{response.error}"
        )


# -- trade --------------------------------------------------------------------

TRADE_CONSUMERS = 240
TRADE_SESSIONS_EACH = 4


class _TradeSession:
    """One consumer's back-to-back sessions: login → query → trade → logout.

    The trade goes to the query hit the consumer values most: half are
    direct buys, a quarter negotiations, a quarter auctions.  A query
    without hits goes straight to logout.
    """

    def __init__(self, gateway, consumer, sessions, rng, think) -> None:
        self.gateway = gateway
        self.consumer = consumer
        self.sessions_left = sessions
        self.rng = rng
        self.think = think

    def _submit(self, request, at_ms, callback) -> None:
        future = self.gateway.submit(request, at_ms=at_ms, session_id=self.consumer.user_id)
        future.add_done_callback(callback)

    def _next_at(self, future) -> float:
        return future.finished_at_ms + self.think.next_ms()

    def start(self, at_ms: float) -> None:
        self._submit(LoginRequest(self.consumer.user_id), at_ms, self._query)

    def _query(self, future) -> None:
        keyword = self.consumer.preferred_keyword(self.rng)
        request = QueryRequest(self.consumer.user_id, keyword)
        self._submit(request, self._next_at(future), self._trade)

    def _trade(self, future) -> None:
        hits = () if future.response.failed else future.response.result.hits
        if not hits:
            self._logout(future)
            return
        consumer = self.consumer
        best = min(hits, key=lambda hit: (-consumer.utility(hit.item), hit.item_id))
        user_id, item, market = consumer.user_id, best.item, best.marketplace
        roll = self.rng.random()
        if roll < 0.5:
            request = BuyRequest(user_id, item, marketplace=market)
        elif roll < 0.75:
            request = NegotiateRequest(
                user_id, item, max_price=best.price * 0.95, marketplace=market
            )
        else:
            request = AuctionRequest(
                user_id, item, max_price=best.price * 1.2, marketplace=market
            )
        self._submit(request, self._next_at(future), self._logout)

    def _logout(self, future) -> None:
        request = LogoutRequest(self.consumer.user_id)
        self._submit(request, self._next_at(future), self._again)

    def _again(self, future) -> None:
        self.sessions_left -= 1
        if self.sessions_left > 0:
            self.start(self._next_at(future))


def _trade_setup(tick) -> World:
    platform = build_platform(seed=DATA_SEED, num_buyer_servers=4, replication_factor=2)
    return World(platform, ConsumerPopulation(TRADE_CONSUMERS, seed=DATA_SEED))


def _trade_drive(world: World, seed: int) -> None:
    gateway = world.platform.gateway()
    rng = random.Random(seed)
    think = ThinkTime(250.0, seed=seed + 1)
    consumers = world.population.consumers()
    offsets = PoissonArrivals(0.005, seed=seed + 2).offsets_ms(len(consumers))
    scheduler = gateway.sessions
    base = scheduler.horizon
    for consumer, offset in zip(consumers, offsets):
        session = _TradeSession(gateway, consumer, TRADE_SESSIONS_EACH, rng, think)
        session.start(base + offset)
    scheduler.run_until_idle()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("browse", _browse_setup, _browse_drive, day_seconds=7.5),
        Workload("similar", _similar_setup, _similar_drive, day_seconds=7.0),
        Workload("trade", _trade_setup, _trade_drive, day_seconds=5.5),
    )
}
