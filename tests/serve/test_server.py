"""End-to-end daemon tests: real sockets, coalescing, batching, errors.

Every test talks to an in-process :class:`~repro.serve.embedded.
EmbeddedServer` through the synchronous client — the same path external
callers use — so the asyncio server, the line framing, the pipeline
lane and the warm fast path are all exercised for real.
"""

import io
import json
import socket as socketlib
import threading

import numpy as np
import pytest

from repro.mapping.initial import make_layout
from repro.mapping.reorder import reorder_ranks
from repro.serve import EmbeddedServer, ServeError, ServerConfig
from repro.topology.gpc import small_cluster

#: Batch window wide enough that every concurrently-fired request in a
#: test reliably lands inside one coalescing/batching window.
WIDE_WINDOW = 0.25

SPEC = {"kind": "small", "n_nodes": 4}


@pytest.fixture(scope="module")
def served():
    """Module-wide daemon with one registered topology."""
    with EmbeddedServer() as es:
        with es.client() as c:
            fingerprint = c.register_topology(SPEC)["fingerprint"]
        yield es, fingerprint


class TestOpsRoundTrip:
    def test_health(self, served):
        es, _ = served
        with es.client() as c:
            h = c.health()
        assert h["status"] == "ok"
        assert h["protocol"] == 1
        assert h["topologies"] >= 1

    def test_register_is_idempotent(self, served):
        es, fingerprint = served
        with es.client() as c:
            again = c.register_topology(SPEC)
        assert again["fingerprint"] == fingerprint
        assert again["evicted"] == []

    def test_reorder_named_layout(self, served):
        es, fingerprint = served
        with es.client() as c:
            res = c.reorder(fingerprint, "ring", "block-bunch", seed=7)
        assert sorted(res["mapping"]) == list(range(16))
        assert res["pattern"] == "ring"

    def test_reorder_explicit_layout(self, served):
        es, fingerprint = served
        layout = list(range(15, -1, -1))
        with es.client() as c:
            res = c.reorder(fingerprint, "recursive-doubling", layout, seed=1)
        assert sorted(res["mapping"]) == sorted(layout)

    def test_reorder_matches_solo_pipeline(self, served):
        es, fingerprint = served
        with es.client() as c:
            res = c.reorder(fingerprint, "bruck", "cyclic-bunch", seed=5)
        cluster = small_cluster(n_nodes=4)
        L = make_layout("cyclic-bunch", cluster, cluster.n_cores)
        solo = reorder_ranks(
            "bruck", L, cluster.implicit_distances(), kind="heuristic", rng=5
        )
        assert res["mapping"] == solo.mapping.tolist()

    def test_price_matches_solo_engine(self, served):
        es, fingerprint = served
        sizes = [1024, 65536]
        with es.client() as c:
            res = c.reorder(fingerprint, "ring", "block-scatter", seed=0)
            priced = c.price(fingerprint, "ring", sizes, mapping=res["mapping"])
        from repro.collectives.registry import make_algorithm
        from repro.simmpi.engine import TimingEngine

        cluster = small_cluster(n_nodes=4)
        engine = TimingEngine(cluster)
        schedule = make_algorithm("ring").schedule(16)
        batch = engine.evaluate_sizes(
            schedule, np.asarray(res["mapping"]), [float(s) for s in sizes]
        )
        assert priced["total_seconds"] == [float(t) for t in batch.total_seconds]

    def test_price_by_layout_name(self, served):
        es, fingerprint = served
        with es.client() as c:
            priced = c.price(fingerprint, "binomial-bcast", [4096], layout="block-bunch")
        assert priced["p"] == 16
        assert len(priced["total_seconds"]) == 1

    def test_stats_counters_present(self, served):
        es, _ = served
        with es.client() as c:
            st = c.stats()
        for key in (
            "requests",
            "errors",
            "coalesced",
            "batched",
            "warm_inline",
            "reorder_batches",
            "reorder_solo",
            "mapping_cache",
            "registry",
        ):
            assert key in st
        assert {"hits", "misses", "evictions"} <= set(st["mapping_cache"])
        for topo in st["registry"]["topologies"]:
            assert {"hits", "misses", "evictions"} <= set(topo["pricing"])


class TestWarmPath:
    def test_repeat_request_is_served_warm(self, served):
        es, fingerprint = served
        with es.client() as c:
            before = c.stats()["warm_inline"]
            first = c.reorder(fingerprint, "binomial-gather", "cyclic-scatter", seed=11)
            second = c.reorder(fingerprint, "binomial-gather", "cyclic-scatter", seed=11)
            after = c.stats()["warm_inline"]
        assert second["cached"] is True
        assert second["mapping"] == first["mapping"]
        assert after == before + 1


class TestErrorPaths:
    def test_unknown_fingerprint(self, served):
        es, _ = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder("ffffffffffffffff", "ring", "block-bunch")
        assert exc_info.value.code == "unknown-fingerprint"

    def test_unknown_pattern(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(fingerprint, "gossip", "block-bunch")
        assert exc_info.value.code == "bad-request"

    def test_bad_layout_rejected(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(fingerprint, "ring", [0, 0, 1])
        assert exc_info.value.code == "bad-request"

    def test_non_integer_layout_entries_are_bad_request(self, served):
        # Strings must not surface as internal-error, and float core ids
        # must be rejected rather than silently truncated.
        es, fingerprint = served
        with es.client() as c:
            for layout in (["zero", "one"], [0.5, 1.0], [0, True]):
                answer = json.loads(
                    c.send_raw(
                        json.dumps(
                            {
                                "v": 1,
                                "id": 1,
                                "op": "reorder",
                                "fingerprint": fingerprint,
                                "pattern": "ring",
                                "layout": layout,
                            }
                        ).encode("utf-8")
                        + b"\n"
                    )[0]
                )
                assert answer["ok"] is False, layout
                assert answer["error"]["code"] == "bad-request", layout

    def test_non_integer_price_mapping_is_bad_request(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.request(
                    "price",
                    fingerprint=fingerprint,
                    algorithm="ring",
                    sizes=[1024],
                    mapping=["a", "b"],
                )
        assert exc_info.value.code == "bad-request"

    def test_non_finite_price_numbers_are_bad_request(self, served):
        # Python's json accepts NaN/Infinity; answering them "ok" would
        # echo non-JSON totals back to the client.
        es, fingerprint = served
        raw = (
            '{{"v": 1, "id": 5, "op": "price", "fingerprint": "{fp}", '
            '"algorithm": "ring", "layout": "block-bunch", {field}}}\n'
        )
        with es.client() as c:
            for field in (
                '"sizes": [NaN]',
                '"sizes": [1024, Infinity]',
                '"sizes": [-Infinity]',
                '"sizes": [1024], "extra_copy_bytes": NaN',
                '"sizes": [1024], "extra_copy_bytes": Infinity',
            ):
                line = raw.format(fp=fingerprint, field=field).encode("utf-8")
                answer = json.loads(c.send_raw(line)[0])
                assert answer["ok"] is False, field
                assert answer["error"]["code"] == "bad-request", field

    def test_engine_option_is_not_client_visible(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(
                    fingerprint, "ring", "block-bunch", options={"engine": "naive"}
                )
        assert exc_info.value.code == "bad-request"

    def test_bad_topology_spec(self, served):
        es, _ = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.register_topology({"kind": "moebius", "n_nodes": 4})
        assert exc_info.value.code == "bad-request"

    def test_malformed_json_keeps_connection_alive(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(c.send_raw(b"{definitely not json\n")[0])
            assert answer["ok"] is False
            assert answer["error"]["code"] == "bad-json"
            # the same connection still answers real requests
            assert c.health()["status"] == "ok"

    def test_wrong_version_echoes_request_id(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(
                c.send_raw(b'{"v": 99, "id": 17, "op": "stats"}\n')[0]
            )
        assert answer["ok"] is False
        assert answer["id"] == 17
        assert answer["error"]["code"] == "bad-version"

    def test_unknown_op_is_structured_error(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(c.send_raw(b'{"v": 1, "id": 3, "op": "rm -rf"}\n')[0])
        assert answer["error"]["code"] == "unknown-op"
        assert answer["id"] == 3


class TestOversized:
    def test_oversized_line_survives_connection(self):
        config = ServerConfig(port=0, max_line_bytes=2048)
        with EmbeddedServer(config) as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
                huge = b'{"v": 1, "op": "reorder", "x": "' + b"a" * 4096 + b'"}\n'
                answer = json.loads(c.send_raw(huge)[0])
                assert answer["ok"] is False
                assert answer["error"]["code"] == "oversized"
                # connection and daemon both survive
                res = c.reorder(fingerprint, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))


class TestCoalescing:
    def test_identical_concurrent_requests_run_once(self):
        config = ServerConfig(port=0, batch_window=WIDE_WINDOW)
        with EmbeddedServer(config) as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
            n = 6
            results = [None] * n
            barrier = threading.Barrier(n)

            def fire(i):
                with es.client() as cc:
                    barrier.wait()
                    results[i] = cc.reorder(
                        fingerprint, "recursive-doubling", "block-bunch", seed=99
                    )

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with es.client() as c:
                st = c.stats()
        # one execution, n identical answers
        assert st["patterns_computed"] == 1
        assert st["coalesced"] == n - 1
        assert all(r == results[0] for r in results)


class TestBatching:
    def test_distinct_patterns_fold_into_one_pass(self):
        config = ServerConfig(port=0, batch_window=WIDE_WINDOW)
        with EmbeddedServer(config) as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
            patterns = ["recursive-doubling", "ring", "binomial-bcast", "bruck"]
            results = {}
            barrier = threading.Barrier(len(patterns))

            def fire(pattern):
                with es.client() as cc:
                    barrier.wait()
                    results[pattern] = cc.reorder(
                        fingerprint, pattern, "cyclic-scatter", seed=2
                    )

            threads = [
                threading.Thread(target=fire, args=(p,)) for p in patterns
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with es.client() as c:
                st = c.stats()
        # every request after the first folded into the opener's batch,
        # and the whole batch ran as ONE reorder_all pass
        assert st["reorder_batches"] == 1
        assert st["batched"] == len(patterns) - 1
        assert st["reorder_solo"] == 0

        # batched answers are bit-identical to solo reorder_ranks
        cluster = small_cluster(n_nodes=4)
        L = make_layout("cyclic-scatter", cluster, cluster.n_cores)
        D = cluster.implicit_distances()
        for pattern in patterns:
            solo = reorder_ranks(pattern, L, D, kind="heuristic", rng=2)
            assert results[pattern]["mapping"] == solo.mapping.tolist(), pattern


class TestRegistryEviction:
    def test_lru_eviction_under_cap(self):
        config = ServerConfig(port=0, topology_cap=2)
        with EmbeddedServer(config) as es:
            with es.client() as c:
                fp1 = c.register_topology({"kind": "small", "n_nodes": 2})["fingerprint"]
                fp2 = c.register_topology({"kind": "small", "n_nodes": 4})["fingerprint"]
                third = c.register_topology({"kind": "single-node", "n_sockets": 2})
                assert third["evicted"] == [fp1]
                st = c.stats()
                assert st["registry"]["evictions"] == 1
                assert st["registry"]["resident"] == 2
                # evicted topology now answers unknown-fingerprint
                with pytest.raises(ServeError) as exc_info:
                    c.reorder(fp1, "ring", "block-bunch")
                assert exc_info.value.code == "unknown-fingerprint"
                # survivors still serve
                res = c.reorder(fp2, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))


class TestUnixSocket:
    def test_serve_over_unix_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        config = ServerConfig(socket_path=socket_path)
        es = EmbeddedServer(config)
        es.start()
        try:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
                res = c.reorder(fingerprint, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))
        finally:
            es.stop()
        # graceful drain unlinks the socket
        assert not (tmp_path / "repro.sock").exists()


class TestUnterminatedFinalLine:
    def test_half_closed_request_without_newline_answers_once(self, served):
        # A request missing its trailing newline, followed by a write-side
        # close, must be answered exactly once — not replayed forever off
        # the line reader's EOF buffer.
        es, _ = served
        sock = socketlib.create_connection(
            ("127.0.0.1", es.server.port), timeout=10
        )
        try:
            sock.sendall(b'{"v": 1, "id": 5, "op": "health"}')  # no \n
            sock.shutdown(socketlib.SHUT_WR)
            stream = sock.makefile("rb")
            answer = json.loads(stream.readline())
            assert answer["ok"] is True
            assert answer["id"] == 5
            # one answer, then the server closes: EOF, no response spam
            assert stream.read() == b""
        finally:
            sock.close()


class TestSocketTakeover:
    def test_second_daemon_refuses_live_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        first = EmbeddedServer(ServerConfig(socket_path=socket_path)).start()
        try:
            with pytest.raises(RuntimeError) as exc_info:
                EmbeddedServer(ServerConfig(socket_path=socket_path)).start()
            assert "already listening" in str(exc_info.value.__cause__)
            # the live daemon kept its socket and still answers
            with first.client() as c:
                assert c.health()["status"] == "ok"
        finally:
            first.stop()

    def test_stale_socket_is_cleared(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        # Leave a dead socket file behind (no listener).
        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(socket_path)
        stale.close()
        with EmbeddedServer(ServerConfig(socket_path=socket_path)) as es:
            with es.client() as c:
                assert c.health()["status"] == "ok"


class TestClientReadLine:
    """ServeClient must never hand back a partial response line."""

    @staticmethod
    def _bare_client(data: bytes):
        from repro.serve.client import ServeClient

        client = object.__new__(ServeClient)
        client._file = io.BytesIO(data)
        return client

    def test_long_response_accumulates_until_newline(self):
        line = b"x" * (3 * (1 << 20)) + b"\n"
        assert self._bare_client(line)._read_line() == line

    def test_truncated_response_raises_instead_of_desyncing(self):
        with pytest.raises(ConnectionError):
            self._bare_client(b"partial without newline")._read_line()

    def test_eof_returns_empty(self):
        assert self._bare_client(b"")._read_line() == b""


class TestGracefulStop:
    def test_stop_is_clean_and_repeatable(self):
        es = EmbeddedServer().start()
        with es.client() as c:
            assert c.health()["status"] == "ok"
        es.stop()
        es.stop()  # idempotent
