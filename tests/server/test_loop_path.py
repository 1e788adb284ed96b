"""The hit path: repeated bodies answered on the event loop.

A ``/rewrite`` or ``/explain`` body the server decoded before, whose
configuration has a live session holding its answer, is answered on
the event loop without a worker.  These tests pin that it is the same
answer, counted the same way, as a memo hit a worker serves, and that
nothing else -- above all no search -- runs on the loop.

A body seen for the first time always goes to a worker, so a *worker
hit* is made here by re-encoding the same request with different JSON
spacing: the bytes are new, the request and its memo entry are not.
"""

import http.client
import json
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.rewriting.constraints import PAPER_DTD
from repro.rewriting.session import RewriteSession
from repro.server import ServerConfig, app, running_server, schemas
from repro.server.schemas import CONFIG_CACHE_SIZE, RewriteRequest
from repro.tsl import print_query
from repro.workloads import query_q3, query_q5, view_v1

#: The event-loop thread of :class:`repro.server.testing.ServerThread`.
LOOP_THREAD = "repro-serve-loop"


def rewrite_body(**extra) -> dict:
    body = {"query": print_query(query_q3()),
            "views": {"V1": print_query(view_v1())},
            "dtd": PAPER_DTD}
    body.update(extra)
    return body


def encode(body: dict, spacing: int = 0) -> bytes:
    """*body* as JSON bytes; each *spacing* gives different bytes for
    the same request."""
    return json.dumps(body, indent=spacing or None).encode("utf-8")


def post_raw(srv, path: str, raw: bytes, request_id: str):
    """One POST of exact bytes; returns (status, raw response body)."""
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        conn.request("POST", path, body=raw, headers={
            "Content-Type": "application/json",
            "X-Repro-Request-Id": request_id})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def answered_on_loop(srv, request_id: str) -> bool:
    """True when the request's record has no ``queued`` phase: it never
    waited for a worker."""
    record = srv.server.recorder.get(request_id)
    assert record is not None, request_id
    return "queued" not in record.phases


@pytest.fixture()
def lookups(monkeypatch):
    """Every result-memo lookup as (thread name, hit?).  A miss is the
    start of a search."""
    seen: list[tuple[str, bool]] = []
    lock = threading.Lock()
    original = RewriteSession.lookup_result

    def lookup_result(self, *args, **kwargs):
        found = original(self, *args, **kwargs)
        with lock:
            seen.append((threading.current_thread().name,
                         found is not None))
        return found

    monkeypatch.setattr(RewriteSession, "lookup_result", lookup_result)
    return seen


@pytest.fixture()
def srv():
    with running_server(ServerConfig(port=0, workers=2),
                        metrics=MetricsRegistry()) as thread:
        yield thread


class TestSameAnswer:
    @pytest.mark.parametrize("path,extra", [
        ("/rewrite", {}),
        ("/rewrite", {"explain": True}),
        ("/explain", {}),
    ], ids=["rewrite", "rewrite-explain", "explain"])
    def test_loop_hit_is_byte_identical_to_worker_hit(self, srv, path,
                                                      extra):
        body = rewrite_body(**extra)
        status, cold = post_raw(srv, path, encode(body), "cold")
        assert status == 200
        assert json.loads(cold)["memo"] == "miss"
        status, on_loop = post_raw(srv, path, encode(body), "loop")
        assert status == 200
        status, on_worker = post_raw(srv, path, encode(body, 1), "worker")
        assert status == 200
        assert answered_on_loop(srv, "loop")
        assert not answered_on_loop(srv, "worker")
        assert json.loads(on_loop)["memo"] == "hit"
        assert on_loop == on_worker
        if "explanation" in json.loads(cold):
            # The replayed EXPLAIN is the cold one, on either path.
            assert json.loads(on_loop)["explanation"] \
                == json.loads(cold)["explanation"]
            assert srv.server.recorder.get("loop").explain \
                == json.loads(cold)["explanation"]


class TestSameAccounting:
    COUNTERS = ("server.sessions.reused", "server.sessions.created",
                "cache.rewrite.hits", "cache.rewrite.misses")

    def run(self, tmp_path, name: str, same_bytes: bool) -> dict:
        log = tmp_path / f"{name}.log"
        config = ServerConfig(port=0, workers=2, access_log=str(log))
        with running_server(config, metrics=MetricsRegistry()) as srv:
            for index in range(3):
                raw = encode(rewrite_body(explain=True),
                             0 if same_bytes else index)
                status, _ = post_raw(srv, "/rewrite", raw, f"{name}{index}")
                assert status == 200
            on_loop = [answered_on_loop(srv, f"{name}{index}")
                       for index in range(3)]
            counters = srv.registry.snapshot()["counters"]
            recorded = [(r.status, r.memo, r.config_key, r.query_key,
                         r.truncated, r.stop_reason, r.counters)
                        for r in srv.server.recorder.snapshot()]
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        return {
            "on_loop": on_loop,
            "requests": {key: value for key, value in counters.items()
                         if key.startswith("server.requests")},
            "counters": {key: counters.get(key) for key in self.COUNTERS},
            "recorded": sorted(recorded, key=repr),
            "log": [(entry["method"], entry["path"], entry["status"],
                     entry["memo"], entry["stop_reason"])
                    for entry in lines],
        }

    def test_counters_recorder_and_log_match_the_worker_path(self,
                                                             tmp_path):
        loop = self.run(tmp_path, "loop", same_bytes=True)
        worker = self.run(tmp_path, "worker", same_bytes=False)
        assert loop["on_loop"] == [False, True, True]
        assert worker["on_loop"] == [False, False, False]
        assert loop["counters"]["server.sessions.reused"] == 2
        assert loop["counters"]["cache.rewrite.hits"] == 2
        for field in ("requests", "counters", "recorded", "log"):
            assert loop[field] == worker[field], field

    @pytest.mark.parametrize("same_bytes", [True, False],
                             ids=["loop", "worker"])
    def test_expired_in_queue_counts_no_reuse(self, same_bytes):
        # A known body whose memo misses goes to the pool; when its
        # deadline expires in the queue it is answered 408 without using
        # the session, so neither path counts a reuse.
        body = rewrite_body(max_steps=1, budget_ms=100)
        config = ServerConfig(port=0, workers=1)
        with running_server(config, metrics=MetricsRegistry()) as srv:
            pool = srv.server.pool
            # Truncated, so the session exists and its memo stays empty.
            assert post_raw(srv, "/rewrite", encode(body), "first")[0] \
                == 408
            # Hold the one worker until the request has waited out its
            # deadline in the queue.
            gate = threading.Event()
            pool._executor.submit(gate.wait, 30)
            answer = []
            client = threading.Thread(target=lambda: answer.append(
                post_raw(srv, "/rewrite",
                         encode(body, 0 if same_bytes else 1), "late")))
            try:
                client.start()
                deadline = time.monotonic() + 30
                while pool.stats()["pending"] == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                time.sleep(0.3)
            finally:
                gate.set()
            client.join(timeout=30)
            assert not client.is_alive()
            [(status, raw)] = answer
            assert (status, json.loads(raw)["stop_reason"]) \
                == (408, "deadline")
            assert not answered_on_loop(srv, "late")
            assert pool.stats()["reused"] == 0
            assert "server.sessions.reused" not in \
                srv.registry.snapshot()["counters"]


class TestMemoProbes:
    def test_a_loop_hit_probes_the_result_memo_twice(self, srv,
                                                     monkeypatch):
        # The loop's peek decides the path and is handed on, so the
        # only other probe is the counted lookup of session.rewrite().
        peeks: list[str] = []
        original = RewriteSession.peek_result

        def peek_result(self, *args, **kwargs):
            peeks.append(threading.current_thread().name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(RewriteSession, "peek_result", peek_result)
        raw = encode(rewrite_body(explain=True))
        assert post_raw(srv, "/rewrite", raw, "cold")[0] == 200
        for index in range(3):
            peeks.clear()
            status, body = post_raw(srv, "/rewrite", raw, f"hit{index}")
            assert (status, json.loads(body)["memo"]) == (200, "hit")
            assert answered_on_loop(srv, f"hit{index}")
            assert peeks == [LOOP_THREAD, LOOP_THREAD]


class TestRouting:
    def test_evicted_session_goes_to_the_pool_and_searches(self, lookups):
        config = ServerConfig(port=0, workers=1, max_sessions=1)
        with running_server(config, metrics=MetricsRegistry()) as srv:
            first = encode(rewrite_body())
            assert post_raw(srv, "/rewrite", first, "a1")[0] == 200
            other = encode(rewrite_body(views={"W": print_query(
                view_v1())}, dtd=None))
            assert post_raw(srv, "/rewrite", other, "b1")[0] == 200
            # The first configuration's session is gone: the body is
            # known, but the loop has no session to answer from.
            status, raw = post_raw(srv, "/rewrite", first, "a2")
            assert status == 200
            assert json.loads(raw)["memo"] == "miss"
            assert not answered_on_loop(srv, "a2")
            assert srv.server.pool.stats()["evicted"] == 2
        assert [hit for _, hit in lookups] == [False, False, False]
        assert all(thread != LOOP_THREAD for thread, _ in lookups)

    def test_no_search_ever_runs_on_the_loop(self, lookups):
        config = ServerConfig(port=0, workers=2, max_sessions=2)
        q5 = rewrite_body(query=print_query(query_q5()))
        with running_server(config, metrics=MetricsRegistry()) as srv:
            bodies = [("/rewrite", encode(rewrite_body())),
                      ("/rewrite", encode(rewrite_body(explain=True))),
                      ("/explain", encode(rewrite_body())),
                      ("/rewrite", encode(q5)),
                      ("/rewrite", encode(rewrite_body(max_steps=1))),
                      ("/rewrite", encode(rewrite_body(views={}))),
                      ("/rewrite", encode(rewrite_body(dtd=None)))]
            for round_ in range(3):
                for index, (path, raw) in enumerate(bodies):
                    status, _ = post_raw(srv, path, raw,
                                         f"r{round_}-{index}")
                    assert status in (200, 408), (path, raw)
        searches = [thread for thread, hit in lookups if not hit]
        hits_on_loop = [thread for thread, hit in lookups
                        if hit and thread == LOOP_THREAD]
        assert searches and LOOP_THREAD not in searches
        assert hits_on_loop

    def test_bad_bodies_are_never_kept(self, srv):
        broken = encode(rewrite_body(query="<ans(X) a {}> :- <X b"))
        for index in range(2):
            status, raw = post_raw(srv, "/rewrite", broken, f"bad{index}")
            assert status == 400
            assert json.loads(raw)["error"]["diagnostics"][0]["code"] \
                == "TSL000"
        assert post_raw(srv, "/rewrite", b"{not json", "bad-json")[0] \
            == 400
        assert srv.server._decoded == {}

    def test_cyclic_view_is_refused_every_time(self, srv):
        cyclic = encode({"query": "<f(X) r Y> :- <X e Y>@db",
                         "views": {"VC": "<g(X) r Y> :- <X e {<X e Y>}>@db"}})
        cached = schemas._cached_config.cache_info().currsize
        for index in range(2):
            status, raw = post_raw(srv, "/rewrite", cyclic, f"cyc{index}")
            assert status == 400
            [diagnostic] = json.loads(raw)["error"]["diagnostics"]
            assert diagnostic["code"] == "TSL003"
            assert diagnostic["file"] == "view:VC"
        assert schemas._cached_config.cache_info().currsize == cached
        assert srv.server._decoded == {}


class TestBounds:
    def test_decoded_map_keeps_the_newest_bodies(self, srv, monkeypatch):
        monkeypatch.setattr(app, "DECODED_REQUESTS", 3)
        raws = [encode(rewrite_body(), spacing) for spacing in range(4)]
        for index, raw in enumerate(raws):
            assert post_raw(srv, "/rewrite", raw, f"n{index}")[0] == 200
        assert list(srv.server._decoded) == [("/rewrite", raw)
                                             for raw in raws[1:]]

    def test_large_bodies_are_decoded_every_time(self, srv, monkeypatch):
        monkeypatch.setattr(app, "DECODED_BODY_BYTES", 16)
        raw = encode(rewrite_body())
        for index in range(2):
            assert post_raw(srv, "/rewrite", raw, f"big{index}")[0] == 200
        assert not answered_on_loop(srv, "big1")
        assert srv.server._decoded == {}

    def test_config_cache_keeps_the_newest_configs(self):
        schemas._cached_config.cache_clear()
        for index in range(CONFIG_CACHE_SIZE + 1):
            RewriteRequest.from_json({
                "query": "<f(X) r Y> :- <X e Y>@db",
                "views": {f"V{index}": "<g(X) r Y> :- <X e Y>@db"}})
        info = schemas._cached_config.cache_info()
        assert info.maxsize == CONFIG_CACHE_SIZE
        assert info.currsize == CONFIG_CACHE_SIZE

    def test_known_config_skips_the_view_parse(self, monkeypatch):
        parsed: list[str] = []
        original = schemas.parse_query_text

        def parse_query_text(text, **kwargs):
            parsed.append(kwargs.get("file", "query"))
            return original(text, **kwargs)

        monkeypatch.setattr(schemas, "parse_query_text", parse_query_text)
        schemas._cached_config.cache_clear()
        body = rewrite_body(views={"V1": print_query(view_v1()),
                                   "Vx": "<g(X) r Y> :- <X e Y>@db"})
        first = RewriteRequest.from_json(body)
        second = RewriteRequest.from_json(
            dict(body, query=print_query(query_q5())))
        assert parsed == ["query", "view:V1", "view:Vx", "query"]
        assert second.config_key == first.config_key
        assert second.constraints is first.constraints
