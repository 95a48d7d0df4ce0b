"""ServiceSession lifecycle coverage.

``tests/test_concurrent_service.py`` exercises sessions under load;
this file pins down the lifecycle contract itself: slot accounting at
the ``max_sessions`` boundary, release-on-close (including release via
``with`` and on exception), and every entry point raising once a
session — or its parent service — is closed.
"""

from __future__ import annotations

import pytest

from repro.api import GCConfig, GraphCacheService, ServiceSession
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph

#: GC110 / GC111 hold over every test here (tests/lockdep.py).
pytestmark = pytest.mark.usefixtures("lock_discipline")


def path(labels: str) -> LabeledGraph:
    return LabeledGraph.from_edges(
        list(labels), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def make_service(**overrides) -> GraphCacheService:
    config = dict(model="CON", lock_mode="rw", max_sessions=2)
    config.update(overrides)
    store = GraphStore.from_graphs([path("CCO"), path("CCC"), path("CNO")])
    return GraphCacheService(store, GCConfig(**config))


class TestSlotAccounting:
    def test_exhaustion_raises_and_names_the_limit(self):
        with make_service(max_sessions=2) as service:
            a = service.session()
            b = service.session()
            assert service.open_sessions == 2
            with pytest.raises(RuntimeError, match="max_sessions=2"):
                service.session()
            a.close()
            b.close()

    def test_close_releases_slot_immediately(self):
        with make_service(max_sessions=1) as service:
            first = service.session()
            first.close()
            # The freed slot is reusable without any grace period.
            with service.session() as second:
                assert second.session_id != first.session_id
            assert service.open_sessions == 0

    def test_with_block_releases_slot_on_exception(self):
        with make_service(max_sessions=1) as service:
            with pytest.raises(ValueError, match="boom"):
                with service.session():
                    raise ValueError("boom")
            # The exception path still freed the slot.
            with service.session() as session:
                assert sorted(session.execute(path("CO")).answer_ids) == [0]

    def test_double_close_is_idempotent(self):
        with make_service() as service:
            session = service.session()
            session.close()
            session.close()
            assert session.closed
            assert service.open_sessions == 0


    def test_opening_n_sessions_is_linear(self, monkeypatch):
        """Opening a session never walks the open ones: no open
        session's ``closed`` is read while N of them are opened (a scan
        per open made ``CacheServer.start`` quadratic in
        ``max_sessions``), and closing any one frees its slot."""
        reads = 0
        closed = ServiceSession.closed

        def counted(session):
            nonlocal reads
            reads += 1
            return closed.fget(session)

        monkeypatch.setattr(ServiceSession, "closed", property(counted))
        n = 200
        with make_service(max_sessions=n) as service:
            sessions = [service.session() for _ in range(n)]
            assert reads == 0
            assert service.open_sessions == n
            sessions[n // 2].close()
            assert service.open_sessions == n - 1
            service.session()
            with pytest.raises(RuntimeError, match=f"max_sessions={n}"):
                service.session()


class TestReuseAfterClose:
    @pytest.fixture
    def closed_session(self):
        with make_service() as service:
            session = service.session()
            session.execute(path("CO"))
            session.close()
            yield session

    @pytest.mark.parametrize("call", [
        lambda s: s.execute(path("CO")),
        lambda s: s.execute_many([path("CO")]),
        lambda s: s.__enter__(),
    ])
    def test_every_entry_point_raises(self, closed_session, call):
        with pytest.raises(RuntimeError, match="closed"):
            call(closed_session)

    def test_introspection_survives_close(self, closed_session):
        # Inspecting a finished session is legitimate — only *work*
        # through it is refused.
        assert "closed" in repr(closed_session)


class TestParentLifecycle:
    def test_service_close_closes_sessions(self):
        service = make_service()
        session = service.session()
        service.close()
        assert session.closed
        with pytest.raises(RuntimeError):
            session.execute(path("CO"))

    def test_closed_service_refuses_new_sessions(self):
        service = make_service()
        service.close()
        with pytest.raises(RuntimeError):
            service.session()

    def test_session_sees_parent_state(self):
        with make_service() as service:
            with service.session() as session:
                assert session.service is service
                assert not session.closed

    def test_a_session_only_executes(self):
        """Plans, mutations and persistence have one door: the service."""
        with make_service() as service, service.session() as session:
            for name in ("explain", "apply", "add_graph", "delete_graph",
                         "add_edge", "remove_edge", "save", "load"):
                assert not hasattr(session, name), name
