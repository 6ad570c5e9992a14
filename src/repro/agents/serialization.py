"""State capture and restore for migrating or deactivated aglets.

When an aglet is dispatched to another host or deactivated to storage, the
runtime captures its instance state (everything except its binding to the
local context) and later restores it — the Python analogue of Aglets moving
"program code as well as the states of all the objects it is carrying".

A capture walks the state once.  That walk makes the only copy, with one
deepcopy memo for the whole state so aliasing survives, and sizes the blob by
:func:`_estimate`'s rules as it goes, so the network model can charge
migration payloads realistically without a second pass.  Immutable records —
frozen dataclasses whose attributes are all immutable, such as ``Item`` —
are shared rather than rebuilt; a type the walk does not know falls back to
:func:`copy.deepcopy`.  :func:`restore_state` takes ownership of the snapshot
it is given instead of copying it again: the runtime hands each freshly
captured snapshot to exactly one restore, so an agent in transit or in
storage still cannot be mutated behind the runtime's back.
"""

from __future__ import annotations

import copy
import sys
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SerializationError

__all__ = ["capture_state", "restore_state", "estimate_payload_bytes", "StateSnapshot"]

#: Instance attributes owned by the runtime rather than the agent; they are
#: never part of a migration payload and are re-bound on arrival.
RUNTIME_ATTRIBUTES = ("_context", "_proxy", "_info")

#: Deepest level :func:`_estimate` looks into; anything below counts 64 bytes.
MAX_DEPTH = 8


class StateSnapshot(dict):
    """A captured agent state: a plain dict and the payload size it was built with."""

    __slots__ = ("payload_bytes",)

    def __init__(self, state: Dict[str, Any], payload_bytes: int) -> None:
        super().__init__(state)
        self.payload_bytes = payload_bytes


def _estimate(value: Any, depth: int = 0) -> int:
    """Rough, deterministic size estimate of a Python value in bytes."""
    if depth > MAX_DEPTH:
        return 64
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, (int, float)):
        return 16
    if isinstance(value, str):
        return 48 + len(value)
    if isinstance(value, bytes):
        return 48 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 56 + sum(_estimate(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            _estimate(key, depth + 1) + _estimate(item, depth + 1)
            for key, item in value.items()
        )
    if hasattr(value, "__dict__"):
        return 64 + _estimate(vars(value), depth + 1)
    return int(sys.getsizeof(value)) if hasattr(sys, "getsizeof") else 64


def estimate_payload_bytes(state: Dict[str, Any]) -> int:
    """Estimate how many bytes a captured state occupies on the wire."""
    return _estimate(state)


#: :func:`_estimate` of each scalar type the capture walk returns as is.
_SCALAR_BYTES = {type(None): 8, bool: 8, int: 16, float: 16}


def _shared_size(value: Any, depth: int) -> Optional[int]:
    """``_estimate(value, depth)`` if nothing reachable from ``value`` can change.

    Such a value may be shared between the agent and its snapshot.  The check
    covers scalars, text, enum members, tuples and frozensets of immutable
    values, and frozen dataclasses whose attributes are all immutable; any
    other value returns ``None`` and must be copied.  Immutability is checked
    all the way down, even below the depth the size estimate looks at.
    """
    cls = type(value)
    size = _SCALAR_BYTES.get(cls)
    if size is not None:
        return size if depth <= MAX_DEPTH else 64
    if cls is str or cls is bytes:
        return 48 + len(value) if depth <= MAX_DEPTH else 64
    if cls is tuple or cls is frozenset:
        size = 56
        for item in value:
            item_size = _shared_size(item, depth + 1)
            if item_size is None:
                return None
            size += item_size
        return size if depth <= MAX_DEPTH else 64
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        attributes = getattr(value, "__dict__", None)
        if attributes is None:
            return None
        # 64 for the object plus 64 for its attribute dict, one level down.
        size = 128
        for key, item in attributes.items():
            item_size = _shared_size(item, depth + 2)
            if item_size is None:
                return None
            size += _shared_size(key, depth + 2) + item_size
        if depth > MAX_DEPTH:
            return 64
        return size if depth < MAX_DEPTH else 128
    if isinstance(value, Enum):
        # copy.deepcopy returns enum members themselves.
        return _estimate(value, depth)
    return None


_MISSING = object()


def _copy_and_size(state: Dict[str, Any], owner: str) -> Tuple[Dict[str, Any], int]:
    """Deep-copy ``state`` and return ``(copy, _estimate(copy))`` in one walk.

    The walk shares one deepcopy memo with any :func:`copy.deepcopy` fallback.
    A value met again through the memo, and a value the fallback copied, are
    sized once the whole copy exists: that copy may still be under
    construction when the walk meets it (a cycle back into the state).
    """
    memo: Dict[int, Any] = {}
    late: List[Tuple[Any, int]] = []
    total = 64

    def walk(value: Any, depth: int) -> Any:
        nonlocal total
        if depth > MAX_DEPTH:
            total += 64
            return copy.deepcopy(value, memo)
        cls = type(value)
        size = _SCALAR_BYTES.get(cls)
        if size is not None:
            total += size
            return value
        if cls is str or cls is bytes:
            total += 48 + len(value)
            return value
        copied = memo.get(id(value), _MISSING)
        if copied is not _MISSING:
            late.append((copied, depth))
            return copied
        if cls is dict:
            copied = memo[id(value)] = {}
            total += 64
            for key, item in value.items():
                copied[walk(key, depth + 1)] = walk(item, depth + 1)
            return copied
        if cls is list:
            copied = memo[id(value)] = []
            total += 56
            append = copied.append
            for item in value:
                append(walk(item, depth + 1))
            return copied
        size = _shared_size(value, depth)
        if size is not None:
            total += size
            memo[id(value)] = value
            return value
        if cls is tuple:
            total += 56
            items = [walk(item, depth + 1) for item in value]
            # A cycle through the tuple may have copied it already.
            copied = memo.get(id(value), _MISSING)
            if copied is not _MISSING:
                return copied
            if all(new is old for new, old in zip(items, value)):
                return value
            copied = memo[id(value)] = tuple(items)
            return copied
        copied = copy.deepcopy(value, memo)
        late.append((copied, depth))
        return copied

    snapshot: Dict[str, Any] = {}
    for key, value in state.items():
        try:
            snapshot[walk(key, 1)] = walk(value, 1)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializationError(
                f"attribute {key!r} of {owner} cannot be serialized: {exc}"
            ) from exc
    total += sum(_estimate(copied, depth) for copied, depth in late)
    return snapshot, total


def capture_state(agent: Any) -> StateSnapshot:
    """Capture the migratable state of ``agent``.

    Runtime bindings (context, proxy, info record) are excluded; everything
    else is copied in one walk that also sizes the payload.  Objects that
    cannot be deep-copied make the agent non-migratable, which surfaces as
    :class:`SerializationError`.
    """
    state = {
        key: value for key, value in vars(agent).items() if key not in RUNTIME_ATTRIBUTES
    }
    snapshot, payload_bytes = _copy_and_size(state, type(agent).__name__)
    return StateSnapshot(snapshot, payload_bytes)


def restore_state(agent: Any, snapshot: Dict[str, Any]) -> None:
    """Restore a captured state onto ``agent``, taking ownership of ``snapshot``.

    The snapshot's values become the agent's attributes as they are, so a
    snapshot must be restored at most once and not used afterwards.
    """
    if not isinstance(snapshot, dict):
        raise SerializationError(
            f"state snapshot must be a dict, got {type(snapshot).__name__}"
        )
    for key, value in snapshot.items():
        if key in RUNTIME_ATTRIBUTES:
            continue
        setattr(agent, key, value)
