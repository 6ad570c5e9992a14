"""Differential tests: single-pass state capture vs deepcopy + ``_estimate``.

``capture_state`` copies an aglet's state and sizes it in one walk.  It must
give what the two-pass reference gives — ``copy.deepcopy`` of the state, and
``_estimate`` of that copy — on any state: nested containers of scalars,
states deeper than the estimate looks, aliased and self-referencing parts,
frozen dataclasses with and without mutable fields, and objects of types the
walk does not know.
"""

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.agents.serialization import _estimate, capture_state


@dataclass(frozen=True)
class Record:
    """A frozen dataclass with only immutable fields: shared, not copied."""

    name: str
    price: float
    terms: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Holder:
    """A frozen dataclass holding a mutable list: must be copied."""

    items: List[Any]


class Bag:
    """A type the capture walk does not know: an object with ``__dict__``."""

    def __init__(self, **attributes: Any) -> None:
        self.__dict__.update(attributes)


class Agent:
    """Stand-in agent; ``_context`` is a runtime binding, never captured."""

    def __init__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._context = object()


MUTABLE = (list, dict, Bag, Holder)

names = st.from_regex(r"[a-z]{1,6}", fullmatch=True)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10 ** 6), 10 ** 6)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
records = st.builds(
    Record, st.text(max_size=6), finite, st.lists(st.tuples(names, finite), max_size=3).map(tuple)
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(names | st.integers(0, 9), children, max_size=4)
        | st.lists(children, max_size=3).map(Holder)
        | st.dictionaries(names, children, max_size=3).map(lambda attrs: Bag(**attrs))
    )


values = st.recursive(scalars | records, _containers, max_leaves=20)


@st.composite
def states(draw):
    state = draw(st.dictionaries(names, values, max_size=5))
    # One mutable part reachable from three places.
    shared = draw(st.lists(values, max_size=3) | st.dictionaries(names, values, max_size=3))
    state["alias_a"] = shared
    state["alias_b"] = [shared, {"again": shared}, (shared,)]
    # Deeper than the estimate looks (it counts 64 bytes below depth 8).
    deep = draw(values)
    for level in range(draw(st.integers(9, 12))):
        deep = [deep] if level % 2 else {"level": deep}
    state["deep"] = deep
    # A record in a tuple right at the depth limit, where sizes stop growing.
    edge = (draw(records),)
    for _ in range(draw(st.integers(3, 9))):
        edge = [edge]
    state["edge"] = edge
    if draw(st.booleans()):
        loop = [draw(scalars)]
        loop.append(loop)
        state["loop"] = loop
    state["record"] = draw(records)
    state["holder"] = Holder(draw(st.lists(values, max_size=3)))
    return state


def canonical(value, seen=None):
    """A comparable form of ``value``: its values plus its aliasing pattern.

    Each container or object is numbered on first sight and written as a
    back-reference when met again, so two structures have equal canonical
    forms exactly when they hold equal values with the same sharing.
    """
    seen = {} if seen is None else seen
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return (type(value).__name__, value)
    if id(value) in seen:
        return ("ref", seen[id(value)])
    seen[id(value)] = len(seen)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(item, seen) for item in value))
    if isinstance(value, dict):
        return (
            type(value).__name__,
            tuple((canonical(key, seen), canonical(item, seen)) for key, item in value.items()),
        )
    return (type(value).__name__, canonical(vars(value), seen))


def reachable(value, found=None):
    """``id -> object`` for every container and object reachable from ``value``.

    A ``Record`` is listed but not entered: it is shared whole, so its own
    attribute dict is shared with it.
    """
    found = {} if found is None else found
    if isinstance(value, (type(None), bool, int, float, str, bytes)) or id(value) in found:
        return found
    found[id(value)] = value
    if isinstance(value, Record):
        return found
    if isinstance(value, dict):
        for key, item in value.items():
            reachable(key, found)
            reachable(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            reachable(item, found)
    else:
        reachable(vars(value), found)
    return found


def mutate(value, seen=None):
    """Change every mutable part reachable from ``value`` in place."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, list):
        for item in list(value):
            mutate(item, seen)
        value.append("mutated")
    elif isinstance(value, dict):
        for item in list(value.values()):
            mutate(item, seen)
        value["mutated"] = True
    elif isinstance(value, tuple):
        for item in value:
            mutate(item, seen)
    elif isinstance(value, Holder):
        mutate(value.items, seen)
    elif isinstance(value, Bag):
        mutate(vars(value), seen)


class TestStateCapture:
    @settings(max_examples=100, deadline=None)
    @given(states())
    def test_capture_matches_deepcopy_and_estimate(self, state):
        reference = copy.deepcopy(state)
        snapshot = capture_state(Agent(state))
        assert "_context" not in snapshot
        assert canonical(dict(snapshot)) == canonical(reference)
        assert snapshot.payload_bytes == _estimate(reference)

    @settings(max_examples=100, deadline=None)
    @given(states())
    def test_capture_preserves_aliasing(self, state):
        snapshot = capture_state(Agent(state))
        assert canonical(dict(snapshot)) == canonical(state)
        assert snapshot["alias_b"][0] is snapshot["alias_a"]
        assert snapshot["alias_b"][1]["again"] is snapshot["alias_a"]
        assert snapshot["alias_b"][2][0] is snapshot["alias_a"]
        if "loop" in state:
            assert snapshot["loop"][1] is snapshot["loop"]

    @settings(max_examples=100, deadline=None)
    @given(states())
    def test_mutating_the_original_never_reaches_the_snapshot(self, state):
        snapshot = capture_state(Agent(state))
        captured = canonical(dict(snapshot))
        originals = reachable(state)
        for part in reachable(dict(snapshot)).values():
            if isinstance(part, MUTABLE):
                assert id(part) not in originals
        mutate(state)
        assert canonical(dict(snapshot)) == captured

    @settings(max_examples=30, deadline=None)
    @given(states())
    def test_immutable_records_shared_and_mutable_ones_copied(self, state):
        snapshot = capture_state(Agent(state))
        assert snapshot["record"] is state["record"]
        assert snapshot["holder"] is not state["holder"]
        assert snapshot["holder"].items is not state["holder"].items
        assert canonical(snapshot["holder"]) == canonical(copy.deepcopy(state["holder"]))
