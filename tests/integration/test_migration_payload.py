"""Golden migration payload: the simulated bytes charged for aglet dispatch.

Every ``agent-dispatch`` transfer charges the network model the payload size
of the migrating MBA's captured state, and that size feeds the simulated clock
and every benchmark artifact built on it.  This test runs seeded Figure 4.2
query and Figure 4.3 buy workflows and pins the count and the sum of those
payloads, so a change to state capture that alters a single charged byte
fails here first.
"""

from repro import build_platform

#: Measured with the earlier capture, which deep-copied the state and then
#: sized the copy in a second walk.
GOLDEN_DISPATCH_COUNT = 48
GOLDEN_DISPATCH_BYTES = 232_562


def _record_dispatch_payloads(platform, monkeypatch):
    payloads = []
    deliver = platform.transport.deliver

    def recording(source, destination, kind, payload_bytes=256, retries=0):
        if kind == "agent-dispatch":
            payloads.append(payload_bytes)
        return deliver(source, destination, kind, payload_bytes, retries)

    monkeypatch.setattr(platform.transport, "deliver", recording)
    return payloads


def _run_workflows(platform):
    """Six consumers: log in, query two keywords, buy the top hit, log out."""
    gateway = platform.gateway()
    items = sorted(platform.catalog_view(), key=lambda item: item.item_id)
    keywords = [item.terms[0][0] for item in items[::7]]
    for index in range(6):
        user = f"golden-{index}"
        assert gateway.login(user).ok
        bought = False
        for keyword in (keywords[index % len(keywords)], keywords[(index + 3) % len(keywords)]):
            response = gateway.query(user, keyword)
            assert response.ok, response.error
            if response.result.hits and not bought:
                hit = response.result.hits[0]
                assert gateway.buy(user, hit.item, marketplace=hit.marketplace).ok
                bought = True
        assert gateway.logout(user).ok


def test_dispatch_payloads_match_golden(monkeypatch):
    platform = build_platform(seed=0)
    payloads = _record_dispatch_payloads(platform, monkeypatch)
    _run_workflows(platform)
    assert len(payloads) == GOLDEN_DISPATCH_COUNT
    assert sum(payloads) == GOLDEN_DISPATCH_BYTES


def test_dispatch_payloads_repeat_across_platforms(monkeypatch):
    first = build_platform(seed=0)
    second = build_platform(seed=0)
    recorded = []
    for platform in (first, second):
        recorded.append(_record_dispatch_payloads(platform, monkeypatch))
        _run_workflows(platform)
    assert recorded[0] == recorded[1]
    assert recorded[0]
    assert min(recorded[0]) >= 512
    assert first.now == second.now
