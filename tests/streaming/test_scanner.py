"""BatchScanner: budget policy, degradation, memoization, determinism."""

import pytest

from repro.errors import ReproError
from repro.store import ResultStore
from repro.streaming import BatchScanner, ScannerConfig
from repro.streaming import StreamTrafficConfig, TrafficGenerator

FAST = ScannerConfig(max_swaps=6, train_episodes=1, train_steps=10)


def _generator(seed=0):
    return TrafficGenerator(
        StreamTrafficConfig(num_users=40, max_supply=256), seed=seed
    )


def _batch(generator, count=10):
    return generator.pre_state.copy(), generator.next_batch(count)


class TestPolicy:
    def test_single_tx_is_skipped(self):
        generator = _generator()
        state, txs = _batch(generator, 1)
        scanner = BatchScanner(generator.ifus, config=FAST)
        ordered, outcome = scanner.scan(state, txs)
        assert ordered == txs
        assert outcome.action == "skipped"
        assert outcome.evaluations == 0

    def test_oversize_batch_degrades_to_identity(self):
        generator = _generator()
        config = ScannerConfig(
            max_batch_size=4, max_swaps=6, train_episodes=1, train_steps=10
        )
        state, txs = _batch(generator, 8)
        scanner = BatchScanner(generator.ifus, config=config)
        ordered, outcome = scanner.scan(state, txs)
        assert ordered == txs
        assert outcome.action == "degraded"
        assert "max_batch_size" in outcome.reason

    def test_blown_eval_budget_degrades_to_identity(self):
        generator = _generator()
        # The greedy rollout scores max_swaps orders: 101 > 100.
        config = ScannerConfig(
            eval_budget_per_batch=100, max_swaps=101,
            train_episodes=1, train_steps=10,
        )
        state, txs = _batch(generator, 10)
        scanner = BatchScanner(generator.ifus, config=config)
        ordered, outcome = scanner.scan(state, txs)
        assert ordered == txs
        assert outcome.action == "degraded"
        assert "budget" in outcome.reason

    def test_no_opportunity_is_skipped_without_solving(self):
        generator = _generator()
        state, txs = _batch(generator, 8)
        scanner = BatchScanner(["nobody"], config=FAST)
        ordered, outcome = scanner.scan(state, txs)
        assert ordered == txs
        assert outcome.action == "skipped"
        assert outcome.evaluations == 0

    def test_served_batch_is_a_permutation(self):
        generator = _generator(seed=2)
        state, txs = _batch(generator, 10)
        scanner = BatchScanner(generator.ifus, config=FAST)
        ordered, outcome = scanner.scan(state, txs)
        assert sorted(tx.tx_hash for tx in ordered) == sorted(
            tx.tx_hash for tx in txs
        )
        assert outcome.action in ("reordered", "identity")
        assert outcome.evaluations > 0

    def test_as_strategy_is_permute_only(self, case_workload):
        from repro.strategies import MempoolView

        scanner = BatchScanner(
            case_workload.ifus,
            config=ScannerConfig(train_episodes=1, train_steps=5),
        )
        action = scanner.as_strategy().observe(
            case_workload.pre_state,
            MempoolView(transactions=tuple(case_workload.transactions)),
        )
        assert action.kinds == ("permute",)
        assert sorted(tx.tx_hash for tx in action.sequence) == sorted(
            tx.tx_hash for tx in case_workload.transactions
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ReproError):
            ScannerConfig(max_batch_size=1)
        with pytest.raises(ReproError):
            ScannerConfig(max_swaps=0)


class TestDeterminism:
    def test_same_batch_same_decision(self):
        first_gen = _generator(seed=5)
        second_gen = _generator(seed=5)
        first = BatchScanner(first_gen.ifus, config=FAST)
        second = BatchScanner(second_gen.ifus, config=FAST)
        for _ in range(4):
            ordered_a, outcome_a = first.scan(*_batch(first_gen, 8))
            ordered_b, outcome_b = second.scan(*_batch(second_gen, 8))
            assert [t.tx_hash for t in ordered_a] == [
                t.tx_hash for t in ordered_b
            ]
            assert (
                outcome_a.deterministic_payload()
                == outcome_b.deterministic_payload()
            )

    def test_deterministic_payload_excludes_wall_clock(self):
        generator = _generator()
        scanner = BatchScanner(generator.ifus, config=FAST)
        _, outcome = scanner.scan(*_batch(generator, 6))
        assert "elapsed_ms" not in outcome.deterministic_payload()


class TestMemoization:
    def test_cache_serves_identical_order_and_counts(self, tmp_path):
        store = ResultStore(tmp_path).namespaced("stream")
        generator = _generator(seed=7)
        state, txs = _batch(generator, 8)

        cold = BatchScanner(generator.ifus, config=FAST, store=store)
        cold_order, cold_outcome = cold.scan(state.copy(), txs)
        assert not cold_outcome.cached

        warm = BatchScanner(generator.ifus, config=FAST, store=store)
        warm_order, warm_outcome = warm.scan(state.copy(), txs)
        assert warm_outcome.cached
        assert [t.tx_hash for t in warm_order] == [
            t.tx_hash for t in cold_order
        ]
        # The cached payload preserves evaluations, so warm and cold
        # deterministic views are byte-identical.
        assert (
            warm_outcome.deterministic_payload()
            == cold_outcome.deterministic_payload()
        )

    def test_no_store_hashes_no_state_root(self, monkeypatch):
        import repro.streaming.scanner as scanner_module

        calls = []
        real = scanner_module.state_root

        def counting(state):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(scanner_module, "state_root", counting)
        generator = _generator(seed=2)
        state, txs = _batch(generator, 10)
        _, outcome = BatchScanner(generator.ifus, config=FAST).scan(state, txs)
        assert outcome.evaluations > 0  # reached the solver, past the key
        assert calls == []

    def test_different_config_misses_the_cache(self, tmp_path):
        store = ResultStore(tmp_path).namespaced("stream")
        generator = _generator(seed=7)
        state, txs = _batch(generator, 8)
        BatchScanner(generator.ifus, config=FAST, store=store).scan(
            state.copy(), txs
        )
        other = ScannerConfig(max_swaps=5, train_episodes=1, train_steps=10)
        _, outcome = BatchScanner(
            generator.ifus, config=other, store=store
        ).scan(state.copy(), txs)
        assert not outcome.cached


class TestAccounting:
    def test_action_counts_and_hit_rate(self):
        generator = _generator(seed=3)
        scanner = BatchScanner(generator.ifus, config=FAST)
        scanner.scan(*_batch(generator, 1))  # skipped
        for _ in range(3):
            scanner.scan(*_batch(generator, 8))
        counts = scanner.action_counts()
        assert sum(counts.values()) == 4
        assert counts.get("skipped", 0) >= 1
        assert 0.0 <= scanner.hit_rate <= 1.0
