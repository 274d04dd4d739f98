"""Remote-worker fabric: wire protocol, handshake, loopback, churn."""

import json
import socket
import struct

import pytest

from repro.errors import ParallelError
from repro.parallel import SerialRunner, Task, spawn_task_seeds
from repro.parallel.fabric import get_runner
from repro.parallel.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    handshake_mismatch,
    hello_message,
    recv_frame,
    send_frame,
)
from repro.parallel.remote import RemoteRunner, WorkerServer
from repro.store import ResultStore
from tests.parallel.fabric_tasks import cube, flaky, seeded_draw, slow_mul


def _tasks(count=8, sweep_seed=7):
    return [
        Task(fn=slow_mul, args=(i, i + 1), seed=seed, label=f"mul#{i}")
        for i, seed in enumerate(spawn_task_seeds(sweep_seed, count))
    ]


class TestFrames:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "x", "nested": {"values": [1, 2.5, "z", None]}}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_connection_closed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">Q", 100) + b'{"type"')
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_is_refused_without_allocating(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="refusing to allocate"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">Q", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="'type' field"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_matching_hello_is_accepted(self):
        assert handshake_mismatch(hello_message()) is None

    def test_source_digest_mismatch_is_refused(self):
        hello = hello_message(source_digest="0" * 64)
        reason = handshake_mismatch(hello)
        assert reason is not None and "digest" in reason

    def test_protocol_version_mismatch_is_refused(self):
        hello = hello_message()
        hello["protocol"] = PROTOCOL_VERSION + 1
        reason = handshake_mismatch(hello)
        assert reason is not None and "protocol" in reason

    def test_env_mismatch_is_refused(self):
        hello = hello_message()
        hello["env"] = dict(hello["env"], numpy_version="0.0.1")
        reason = handshake_mismatch(hello)
        assert reason is not None and "numpy_version" in reason

    def test_token_gates_the_handshake(self):
        refused = handshake_mismatch(hello_message(), token="s3cret")
        assert refused is not None and "token" in refused
        assert "s3cret" not in refused  # never echo the secret
        wrong = handshake_mismatch(
            hello_message(token="wrong"), token="s3cret"
        )
        assert wrong is not None and "token" in wrong
        assert handshake_mismatch(
            hello_message(token="s3cret"), token="s3cret"
        ) is None

    def test_env_token_applies_to_both_sides(self, monkeypatch):
        monkeypatch.setenv("PAROLE_FABRIC_TOKEN", "envtok")
        assert handshake_mismatch(hello_message()) is None
        monkeypatch.delenv("PAROLE_FABRIC_TOKEN")
        assert handshake_mismatch(hello_message(token="envtok")) is None

    def test_server_with_token_refuses_tokenless_client(self):
        with WorkerServer(token="s3cret") as server:
            with pytest.raises(ProtocolError, match="refused the handshake"):
                RemoteRunner(
                    [(server.host, server.port)], connect_timeout=2.0
                ).map(_tasks(2))

    def test_matching_token_runs_end_to_end(self):
        tasks = _tasks(4)
        with WorkerServer(token="s3cret") as server:
            with RemoteRunner(
                [(server.host, server.port)], token="s3cret"
            ) as runner:
                assert runner.map(tasks) == SerialRunner().map(tasks)

    def test_server_sends_reject_frame_on_stale_code(self):
        with WorkerServer() as server:
            sock = socket.create_connection((server.host, server.port), 5.0)
            try:
                send_frame(sock, hello_message(source_digest="f" * 64))
                reply = recv_frame(sock)
            finally:
                sock.close()
        assert reply["type"] == "reject"
        assert "digest" in reply["reason"]

    def test_runner_raises_loudly_on_refusal(self, monkeypatch):
        import repro.parallel.protocol as protocol_module

        with WorkerServer() as server:
            monkeypatch.setattr(
                protocol_module,
                "hello_message",
                lambda source_digest=None: dict(
                    hello_message(), source_digest="a" * 64
                ),
            )
            # remote.py binds hello_message at import; patch there too.
            import repro.parallel.remote as remote_module

            monkeypatch.setattr(
                remote_module,
                "hello_message",
                protocol_module.hello_message,
            )
            with pytest.raises(ProtocolError, match="refused the handshake"):
                RemoteRunner([(server.host, server.port)]).map(_tasks(2))


class TestLoopback:
    def test_matches_serial(self):
        tasks = _tasks()
        expected = SerialRunner().map(tasks)
        with WorkerServer() as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                assert runner.map(tasks) == expected

    def test_multi_slot_server_matches_serial(self):
        tasks = _tasks(10)
        expected = SerialRunner().map(tasks)
        with WorkerServer(jobs=2) as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                assert runner.map(tasks) == expected

    def test_exact_float_round_trip(self):
        tasks = [
            Task(fn=seeded_draw, args=(6,), seed=seed, label=f"draw#{i}")
            for i, seed in enumerate(spawn_task_seeds(11, 6))
        ]
        expected = SerialRunner().map(tasks)
        with WorkerServer() as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                got = runner.map(tasks)
        assert got == expected  # exact equality, not approx

    def test_get_runner_workers_selects_remote(self):
        with WorkerServer() as server:
            runner = get_runner(workers=[f"{server.host}:{server.port}"])
            assert isinstance(runner, RemoteRunner)
            with runner:
                assert runner.map(_tasks(4)) == SerialRunner().map(_tasks(4))

    @pytest.mark.parametrize("spec", ["8080", ":8080", "host:"])
    def test_malformed_address_rejected(self, spec):
        with pytest.raises(ValueError, match="worker address"):
            RemoteRunner([spec])

    def test_task_errors_come_back_with_tracebacks(self):
        tasks = [Task(fn=flaky, args=(i,), label=f"f{i}") for i in range(8)]
        with WorkerServer() as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                results = runner.run(tasks)
        assert results[5].error is not None
        assert results[5].error.exc_type == "ValueError"
        assert "flaky task rejected" in results[5].error.traceback
        assert results[6].value == 7

    def test_unshippable_function_fails_fast_client_side(self):
        with WorkerServer() as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                with pytest.raises(ProtocolError, match="non-module-level"):
                    runner.map([Task(fn=lambda: 1)])

    def test_disallowed_module_fails_as_task_error_not_retry_loop(self):
        # json:dumps ships fine but the server's import allow-list
        # refuses it — the failure must come back as a TaskError, not
        # as an endless bury/respawn cycle.
        tasks = [Task(fn=json.dumps, args=([1],), label="forbidden")]
        with WorkerServer() as server:
            with RemoteRunner([(server.host, server.port)]) as runner:
                with pytest.raises(ParallelError, match="ProtocolError"):
                    runner.map(tasks)
        assert server.connections_served <= 1


class TestSharedStore:
    def test_store_dedupes_across_cold_and_warm_runs(self, tmp_path):
        tasks = _tasks()
        with WorkerServer() as server:
            address = (server.host, server.port)
            with RemoteRunner([address], store=ResultStore(tmp_path)) as r:
                cold = r.map(tasks)
            chunks_cold = server.chunks_served
            warm_store = ResultStore(tmp_path)
            with RemoteRunner([address], store=warm_store) as r:
                warm = r.map(tasks)
            assert warm == cold
            assert warm_store.stats.hits == len(tasks)
            # Fully warm: nothing was dispatched to the worker at all.
            assert server.chunks_served == chunks_cold

    def test_single_winner_persistence_under_churn(self, tmp_path):
        store = ResultStore(tmp_path)
        puts = []
        original_put = store.put_object

        def counting_put(key, value):
            puts.append(key)
            return original_put(key, value)

        store.put_object = counting_put
        tasks = _tasks(6)
        with WorkerServer(max_chunks_per_connection=1) as server:
            with RemoteRunner(
                [(server.host, server.port)], store=store, tick_seconds=0.2
            ) as runner:
                got = runner.map(tasks)
        assert got == SerialRunner().map(tasks)
        assert len(puts) == len(set(puts)) == len(tasks)


class TestChurn:
    def test_dropped_connections_reassign_without_loss(self):
        tasks = _tasks(8)
        expected = SerialRunner().map(tasks)
        with WorkerServer(max_chunks_per_connection=1) as server:
            with RemoteRunner(
                [(server.host, server.port)], tick_seconds=0.2
            ) as runner:
                assert runner.map(tasks) == expected
            assert server.connections_served > 1

    def test_two_servers_share_the_batch(self):
        tasks = _tasks(10)
        expected = SerialRunner().map(tasks)
        with WorkerServer() as one, WorkerServer() as two:
            with RemoteRunner(
                [(one.host, one.port), (two.host, two.port)]
            ) as runner:
                assert runner.map(tasks) == expected
            assert one.chunks_served > 0
            assert two.chunks_served > 0

    def test_unreachable_worker_degrades_to_survivors(self):
        tasks = _tasks(6)
        expected = SerialRunner().map(tasks)
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with WorkerServer() as server:
            with RemoteRunner(
                [("127.0.0.1", dead_port), (server.host, server.port)],
                connect_timeout=2.0,
            ) as runner:
                assert runner.map(tasks) == expected

    def test_runner_reuse_survives_a_worker_lost_between_batches(self):
        # Regression: endpoints are reused across _run_batch calls; one
        # whose respawn failed earlier is left with a closed socket and
        # used to crash the next batch with AttributeError.
        tasks = _tasks(6)
        expected = SerialRunner().map(tasks)
        one = WorkerServer()
        two = WorkerServer()
        one.start()
        two.start()
        runner = RemoteRunner(
            [(one.host, one.port), (two.host, two.port)],
            tick_seconds=0.2,
            reconnect_attempts=1,
            connect_timeout=2.0,
        )
        try:
            assert runner.map(tasks) == expected  # both workers live
            two_port = two.port
            two.stop()
            # Simulate the aftermath of a failed mid-batch respawn: the
            # endpoint for `two` is left closed but stays in the list.
            for endpoint in runner._endpoints:
                if endpoint.address == (two.host, two_port):
                    endpoint.close()
            assert runner.map(tasks) == expected  # degrades to survivor
            # A worker coming back on the same address is picked up by
            # the next batch's reconnect pass.
            revived = WorkerServer(host=two.host, port=two_port)
            revived.start()
            try:
                assert runner.map(tasks) == expected
            finally:
                revived.stop()
        finally:
            runner.close()
            one.stop()

    def test_all_workers_unreachable_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ParallelError, match="no remote workers"):
            RemoteRunner(
                [("127.0.0.1", dead_port)], connect_timeout=1.0
            ).map(_tasks(2))
