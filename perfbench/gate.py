"""Correctness gate and determinism digest for one benchmark run.

The gate turns a wrong answer into a failed run instead of a number:

- every envelope status must come from the closed taxonomy
  (``ApiStatus.ALL``);
- every submitted future must be resolved, and the scheduler drained;
- ``requests == completed + shed``, where ``requests`` is the scheduler's
  own submission count, ``completed`` the resolved non-rejected futures and
  ``shed`` the admission middleware's rejection counter;
- a seeded sample of ``find_similar`` answers, re-issued untimed after the
  measured phase, must equal brute-force
  :func:`repro.core.similarity.find_similar_users` over the live fleet's
  profiles.  :func:`neighbor_self_test` plants a wrong neighbour list first
  and fails the run if the comparison does not catch it.

The digest hashes the simulated envelope stream (operation, status,
simulated arrival and finish, result ids), so two runs with one seed can be
compared byte for byte.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from repro.api.envelope import ApiStatus
from repro.api.requests import FindSimilarRequest
from repro.core.similarity import find_similar_users

#: Statuses that count as an error in ``success_pct`` and ``failed``.
ERROR_STATUSES = frozenset({ApiStatus.FAILED, ApiStatus.UNAVAILABLE, ApiStatus.REJECTED})

#: Consumers whose ``find_similar`` answer is re-checked after each day.
NEIGHBOR_SAMPLE = 12


def result_ids(result) -> tuple:
    """The identifiers a result payload carries, for the digest."""
    if result is None:
        return ()
    if hasattr(result, "hits"):
        return (
            tuple((hit.item_id, hit.marketplace) for hit in result.hits),
            tuple(rec.item_id for rec in result.recommendations),
        )
    if hasattr(result, "succeeded"):
        transaction = result.transaction
        return (result.succeeded, transaction.transaction_id if transaction else None)
    if hasattr(result, "neighbors"):
        return tuple(user_id for user_id, _score in result.neighbors)
    if hasattr(result, "recommendations"):
        return tuple(rec.item_id for rec in result.recommendations)
    if hasattr(result, "bra_id"):
        return (result.bra_id, result.server)
    return (getattr(result, "user_id", None),)


def digest_update(hasher, futures: Iterable) -> None:
    """Fold one day's envelope stream, in submission order, into ``hasher``."""
    for future in futures:
        response = future.response
        record = (
            response.operation,
            response.status,
            repr(future.submitted_at_ms),
            repr(future.finished_at_ms),
            result_ids(response.result),
        )
        hasher.update(repr(record).encode("utf-8"))


def check_day(futures: Sequence, scheduler, submitted: int, shed: int) -> List[str]:
    """Problems with one drained day; empty when the day is correct.

    ``submitted`` and ``shed`` are the scheduler's submission count and the
    admission rejection counter over the day.
    """
    problems: List[str] = []
    if scheduler.pending:
        problems.append(f"{scheduler.pending} requests still queued after the drain")
    unresolved = sum(1 for future in futures if not future.done)
    if unresolved:
        problems.append(f"{unresolved} futures unresolved")
        return problems
    strays = sorted({f.response.status for f in futures} - set(ApiStatus.ALL))
    if strays:
        problems.append(f"statuses outside the taxonomy: {strays}")
    completed = sum(1 for f in futures if f.response.status != ApiStatus.REJECTED)
    if len(futures) != submitted:
        problems.append(f"{len(futures)} futures seen but {submitted} submitted")
    if submitted != completed + shed:
        problems.append(
            f"requests {submitted} != completed {completed} + shed {shed}"
        )
    return problems


def _brute_force(platform, user_id: str) -> List[Tuple[str, float]]:
    fleet = platform.fleet
    owner = fleet.server_for(user_id)
    candidates = [
        profile
        for server in fleet.servers
        if fleet.shard_map.shards_of(server.name)
        for profile in server.user_db.profiles()
    ]
    return find_similar_users(
        owner.user_db.profile(user_id),
        candidates,
        config=owner.recommendations.similarity_config,
    )


def neighbor_mismatch(answer, expected) -> str:
    """Why ``answer`` differs from ``expected`` ('' when they are equal)."""
    answer, expected = list(answer), list(expected)
    if answer == expected:
        return ""
    for rank, (got, want) in enumerate(zip(answer, expected)):
        if got != want:
            return f"rank {rank}: got {got}, expected {want}"
    return f"got {len(answer)} neighbours, expected {len(expected)}"


def neighbor_self_test(answer, expected) -> List[str]:
    """Plant a wrong neighbour list and check that the comparison catches it."""
    planted = list(answer) or [("planted-consumer", 1.0)]
    planted[-1] = ("planted-" + planted[-1][0], planted[-1][1])
    if neighbor_mismatch(planted, expected):
        return []
    return ["a planted wrong neighbour list was not caught"]


def check_neighbors(platform, seed: int) -> List[str]:
    """Re-issue a seeded sample of find_similar calls and compare each to
    brute force; the first answer also feeds the planted-list self-test."""
    fleet = platform.fleet
    registered = sorted(
        user_id for server in fleet.servers for user_id in server.user_db.user_ids
    )
    if not registered:
        return ["no registered consumers to check find_similar on"]
    sample = random.Random(seed).sample(registered, min(NEIGHBOR_SAMPLE, len(registered)))
    gateway = platform.gateway()
    problems: List[str] = []
    for position, user_id in enumerate(sample):
        response = gateway.execute(FindSimilarRequest(user_id))
        if response.status != ApiStatus.OK:
            problems.append(f"find_similar({user_id}) resolved {response.status}")
            continue
        answer = response.result.neighbors
        expected = _brute_force(platform, user_id)
        if position == 0:
            problems.extend(neighbor_self_test(answer, expected))
        why = neighbor_mismatch(answer, expected)
        if why:
            problems.append(f"find_similar({user_id}) differs from brute force: {why}")
    return problems
