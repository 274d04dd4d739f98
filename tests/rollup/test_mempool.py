"""Tests for Bedrock's private mempool."""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MempoolError, MempoolStalledError
from repro.rollup import BedrockMempool, NFTTransaction, TxKind


def make_tx(sender, priority=0.0, nonce=0):
    return NFTTransaction(
        kind=TxKind.MINT, sender=sender, priority_fee=priority, nonce=nonce
    )


@pytest.fixture
def pool():
    return BedrockMempool()


class TestSubmission:
    def test_submit_returns_hash(self, pool):
        tx_hash = pool.submit(make_tx("a"))
        assert tx_hash in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self, pool):
        tx = make_tx("a", priority=0.3)
        stamped_hash = pool.submit(tx)
        # The same pre-stamped transaction cannot enter twice.
        stamped = pool.drop(stamped_hash)
        pool.submit(stamped)
        with pytest.raises(MempoolError):
            pool.submit(stamped)

    def test_arrival_stamped(self, pool):
        pool.submit(make_tx("a"))
        pool.submit(make_tx("b"))
        pending = pool.pending()
        assert {tx.submitted_at for tx in pending} == {1, 2}

    def test_submit_all_preserves_count(self, pool):
        pool.submit_all([make_tx("a"), make_tx("b", nonce=1)])
        assert len(pool) == 2

    def test_prestamped_submission_is_restamped(self, pool):
        # Regression: submit() used to keep a caller-supplied
        # ``submitted_at``, so pre-stamped transactions bypassed the
        # pool's own arrival counter entirely.
        tx = NFTTransaction(kind=TxKind.MINT, sender="a", submitted_at=99)
        pool.submit(tx)
        assert pool.pending()[0].submitted_at == 1

    def test_fee_ties_fcfs_despite_prestamped_arrival(self, pool):
        # Regression: a submitter could jump the FCFS queue within a fee
        # level by pre-stamping a low submitted_at; admission order must
        # win regardless of the stamp the transaction arrived with.
        pool.submit(make_tx("first"))
        pool.submit(make_tx("second", nonce=1))
        jumper = NFTTransaction(
            kind=TxKind.MINT, sender="jumper", nonce=2, submitted_at=1
        )
        pool.submit(jumper)
        order = [tx.sender for tx in pool.collect(3)]
        assert order == ["first", "second", "jumper"]

    def test_duplicate_detected_across_stamps(self, pool):
        # The same logical transaction is a duplicate no matter how the
        # resubmitted copy was stamped.
        pool.submit(make_tx("a"))
        with pytest.raises(MempoolError):
            pool.submit(
                NFTTransaction(kind=TxKind.MINT, sender="a", submitted_at=77)
            )


class TestCollection:
    def test_collect_highest_fee_first(self, pool):
        pool.submit(make_tx("low", priority=0.1))
        pool.submit(make_tx("high", priority=0.9))
        collected = pool.collect(1)
        assert collected[0].sender == "high"

    def test_collect_removes_from_pool(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        pool.collect(1)
        assert len(pool) == 0

    def test_collect_fee_ties_fcfs(self, pool):
        pool.submit(make_tx("first"))
        pool.submit(make_tx("second", nonce=1))
        assert pool.collect(2)[0].sender == "first"

    def test_collect_more_than_pending(self, pool):
        pool.submit(make_tx("a"))
        assert len(pool.collect(10)) == 1

    def test_collect_nonpositive_raises(self, pool):
        with pytest.raises(MempoolError):
            pool.collect(0)

    def test_peek_does_not_remove(self, pool):
        pool.submit(make_tx("a"))
        pool.peek(1)
        assert len(pool) == 1

    def test_peek_matches_collect_prefix(self, pool):
        for index, priority in enumerate([0.3, 0.9, 0.1, 0.9, 0.5]):
            pool.submit(make_tx(f"s{index}", priority=priority, nonce=index))
        preview = pool.peek(3)
        assert pool.collect(3) == preview

    def test_drop_leaves_priority_order_intact(self, pool):
        top = pool.submit(make_tx("gone", priority=0.9))
        pool.submit(make_tx("kept", priority=0.1, nonce=1))
        pool.drop(top)
        assert [tx.sender for tx in pool.collect(2)] == ["kept"]


class TestStall:
    def test_collect_while_stalled_raises(self, pool):
        # Regression: a stalled pool used to answer collect() with an
        # empty tuple, indistinguishable from a drained pool.
        pool.submit(make_tx("a"))
        pool.stall()
        with pytest.raises(MempoolStalledError):
            pool.collect(1)
        pool.resume()
        assert len(pool.collect(1)) == 1

    def test_stalled_error_is_a_mempool_error(self, pool):
        pool.stall()
        with pytest.raises(MempoolError):
            pool.collect(1)

    def test_stalled_pool_still_accepts_submissions(self, pool):
        pool.stall()
        pool.submit(make_tx("a"))
        assert len(pool) == 1


class TestRequeue:
    def test_requeue_restores(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        collected = pool.collect(1)
        pool.requeue(collected)
        assert len(pool) == 1

    def test_requeue_duplicate_rejected(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        pending = pool.pending()
        with pytest.raises(MempoolError):
            pool.requeue(pending)

    def test_requeue_then_collect_restores_fcfs_position(self, pool):
        # A requeued transaction keeps its original arrival stamp, so it
        # re-enters fee-tie order ahead of anything submitted since.
        pool.submit(make_tx("early"))
        pool.submit(make_tx("later", nonce=1))
        collected = pool.collect(2)
        pool.submit(make_tx("newest", nonce=2))
        pool.requeue(collected)
        order = [tx.sender for tx in pool.collect(3)]
        assert order == ["early", "later", "newest"]

    def test_requeue_ties_broken_by_original_arrival(self, pool):
        # Requeue order must not matter: ties re-resolve by the stamps
        # the transactions were first admitted with.
        pool.submit(make_tx("a"))
        pool.submit(make_tx("b", nonce=1))
        first, second = pool.collect(2)
        pool.requeue([second])
        pool.requeue([first])
        assert [tx.sender for tx in pool.collect(2)] == ["a", "b"]

    def test_requeue_then_collect_deterministic(self, pool):
        # Same submissions + same requeues => same drain order, run to run.
        def run():
            p = BedrockMempool()
            p.submit_all(
                [make_tx(f"u{i}", priority=0.5, nonce=i) for i in range(6)]
            )
            taken = p.collect(3)
            p.submit(make_tx("late", priority=0.5, nonce=6))
            p.requeue(taken)
            return [tx.sender for tx in p.collect(7)]

        assert run() == run()
        assert run()[:3] == ["u0", "u1", "u2"]

    def test_drop_unknown_raises(self, pool):
        with pytest.raises(MempoolError):
            pool.drop("0xdeadbeef")

    def test_pending_in_priority_order(self, pool):
        pool.submit(make_tx("low", priority=0.1))
        pool.submit(make_tx("high", priority=0.8))
        pool.submit(make_tx("mid", priority=0.4))
        assert [tx.sender for tx in pool.pending()] == ["high", "mid", "low"]


#: Few distinct fees, senders, nonces and stamps, so that fee ties and
#: full ``(fee, stamp, nonce)`` ties both happen.
_FEES = st.sampled_from([0.0, 0.1, 0.25])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2), _FEES, st.integers(0, 1)),
        st.tuples(
            st.just("admit_stamped"), st.integers(0, 2), _FEES,
            st.integers(0, 1), st.integers(1, 2),
        ),
        st.tuples(st.just("collect"), st.integers(1, 4)),
        st.tuples(st.just("drop"), st.integers(0, 63)),
        st.tuples(st.just("requeue"), st.integers(0, 63)),
        st.tuples(st.just("stall")),
        st.tuples(st.just("resume")),
    ),
    max_size=40,
)


class TestPeekAgainstFullScan:
    """``peek`` walks the lazy-deletion heap; the reference is the full
    ``heapq.nsmallest`` scan of every pending transaction it replaced."""

    @staticmethod
    def _reference(pending, count):
        # pending: tx_hash -> (tx, admission order)
        return [
            tx.tx_hash
            for tx, _ in heapq.nsmallest(
                count,
                pending.values(),
                key=lambda entry: (
                    -entry[0].total_fee, entry[0].submitted_at,
                    entry[0].nonce, entry[1],
                ),
            )
        ]

    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_peek_equals_nsmallest_over_pending(self, ops):
        pool = BedrockMempool()
        pending = {}
        collected = []
        admitted = arrival = 0
        stalled = False
        for op, *args in ops:
            # A transaction entering the pool, as the pool will hold it.
            entering = None
            if op == "submit":
                sender, fee, nonce = args
                tx = make_tx(f"u{sender}", priority=fee, nonce=nonce)
                entering = dataclasses.replace(tx, submitted_at=arrival + 1)
                enter = pool.submit
            elif op == "admit_stamped":
                sender, fee, nonce, stamp = args
                tx = entering = NFTTransaction(
                    kind=TxKind.MINT, sender=f"u{sender}", priority_fee=fee,
                    nonce=nonce, submitted_at=stamp, label="stamped",
                )
                enter = pool.admit_stamped
            elif op == "requeue" and collected:
                tx = entering = collected.pop(args[0] % len(collected))
                enter = lambda tx: pool.requeue([tx])
            elif op == "collect":
                (count,) = args
                if stalled:
                    with pytest.raises(MempoolStalledError):
                        pool.collect(count)
                else:
                    taken = pool.collect(count)
                    assert [tx.tx_hash for tx in taken] == self._reference(
                        pending, count
                    )
                    for tx in taken:
                        del pending[tx.tx_hash]
                    collected.extend(taken)
            elif op == "drop" and pending:
                tx_hash = sorted(pending)[args[0] % len(pending)]
                assert pool.drop(tx_hash).tx_hash == tx_hash
                del pending[tx_hash]
            elif op in ("stall", "resume"):
                stalled = op == "stall"
                getattr(pool, op)()

            if entering is not None:
                held = {tx.arrival_identity for tx, _ in pending.values()}
                if entering.arrival_identity in held:
                    with pytest.raises(MempoolError):
                        enter(tx)
                else:
                    enter(tx)
                    arrival += op == "submit"
                    admitted += 1
                    pending[entering.tx_hash] = (entering, admitted)
                    assert entering.tx_hash in pool

            assert len(pool) == len(pending)
            for count in (1, 2, 3, len(pending), len(pending) + 2):
                assert (
                    [tx.tx_hash for tx in pool.peek(count)]
                    == self._reference(pending, count)
                )
