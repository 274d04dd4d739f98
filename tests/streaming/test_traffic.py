"""Traffic generator: determinism, feasibility, population shape."""

import bisect

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.rollup.state import ExecutionMode
from repro.rollup.transaction import TxKind
from repro.streaming import StreamTrafficConfig, TrafficGenerator
from repro.streaming.traffic import _draw_cdf

SMALL = StreamTrafficConfig(num_users=50, max_supply=256)


def _zipf(num_users, exponent=1.1):
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def _kind_weights(kinds, mix=(0.35, 0.50, 0.15)):
    table = dict(zip((TxKind.MINT, TxKind.TRANSFER, TxKind.BURN), mix))
    weights = np.array([table[kind] for kind in kinds])
    if weights.sum() == 0:
        weights = np.ones(len(kinds))
    return weights / weights.sum()


#: Every kind tuple ``_feasible_kinds`` can return.
FEASIBLE_KINDS = (
    (TxKind.MINT,),
    (TxKind.MINT, TxKind.TRANSFER, TxKind.BURN),
    (TxKind.TRANSFER, TxKind.BURN),
)


class ChoiceTrafficGenerator(TrafficGenerator):
    """The reference: every draw through ``Generator.choice(p=...)``,
    which rebuilds its CDF on each call, as the generator once did."""

    def _pick_user(self):
        return self.users[
            int(self._rng.choice(self.config.num_users, p=self._weights))
        ]

    def _pick_kind(self, kinds):
        weights = _kind_weights(kinds, self.config.tx_type_mix)
        return kinds[int(self._rng.choice(len(kinds), p=weights))]


class TestDeterminism:
    def test_same_seed_identical_stream(self):
        first = TrafficGenerator(SMALL, seed=9).next_batch(60)
        second = TrafficGenerator(SMALL, seed=9).next_batch(60)
        assert [tx.tx_hash for tx in first] == [tx.tx_hash for tx in second]

    def test_batch_boundaries_do_not_matter(self):
        whole = TrafficGenerator(SMALL, seed=4).next_batch(40)
        chunked = TrafficGenerator(SMALL, seed=4)
        pieces = chunked.next_batch(15) + chunked.next_batch(25)
        assert [tx.tx_hash for tx in whole] == [tx.tx_hash for tx in pieces]

    def test_different_seed_changes_stream(self):
        first = TrafficGenerator(SMALL, seed=1).next_batch(40)
        second = TrafficGenerator(SMALL, seed=2).next_batch(40)
        assert [tx.tx_hash for tx in first] != [tx.tx_hash for tx in second]

    def test_config_seed_is_default(self):
        cfg = StreamTrafficConfig(num_users=50, max_supply=256, seed=7)
        assert TrafficGenerator(cfg).seed == 7


class TestDrawMatchesNumpyChoice:
    """A bisect over the precomputed CDF draws what ``choice`` drew."""

    @pytest.mark.parametrize(
        "weights",
        [_zipf(400), _zipf(48)]
        + [_kind_weights(kinds) for kinds in FEASIBLE_KINDS]
        + [_kind_weights(FEASIBLE_KINDS[2], mix=(1.0, 0.0, 0.0))],
        ids=["zipf-400", "zipf-48", "mint", "mint-transfer-burn",
             "transfer-burn", "all-zero-weights"],
    )
    def test_same_indices_and_generator_state(self, weights):
        cdf = _draw_cdf(weights)
        for seed in range(5):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            drawn = [bisect.bisect_right(cdf, ours.random()) for _ in range(4000)]
            expected = [
                int(reference.choice(len(weights), p=weights))
                for _ in range(4000)
            ]
            assert drawn == expected
            assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("num_users", [400, 48])
    def test_stream_matches_choice_draws(self, num_users):
        config = StreamTrafficConfig(num_users=num_users, max_supply=1024)
        ours = TrafficGenerator(config, seed=3)
        reference = ChoiceTrafficGenerator(config, seed=3)
        assert (
            [tx.tx_hash for tx in ours.next_batch(1500)]
            == [tx.tx_hash for tx in reference.next_batch(1500)]
        )
        assert (
            ours._rng.bit_generator.state
            == reference._rng.bit_generator.state
        )


class TestFeasibility:
    def test_stream_is_strictly_feasible_in_generation_order(self):
        generator = TrafficGenerator(SMALL, seed=3)
        state = generator.pre_state.copy()
        state.mode = ExecutionMode.STRICT
        for tx in generator.next_batch(150):
            assert state.apply(tx).executed, tx.describe()

    def test_nonces_and_labels_are_sequential(self):
        generator = TrafficGenerator(SMALL, seed=0)
        batch = generator.next_batch(25)
        assert [tx.nonce for tx in batch] == list(range(25))
        assert [tx.label for tx in batch] == [f"stream-{i}" for i in range(25)]
        assert generator.generated == 25

    def test_fees_are_positive(self):
        batch = TrafficGenerator(SMALL, seed=5).next_batch(50)
        assert all(tx.priority_fee > 0 for tx in batch)


class TestPopulation:
    def test_every_ifu_seeded_with_a_token(self):
        cfg = StreamTrafficConfig(
            num_users=40, num_ifus=3, max_supply=64, premint_fraction=0.0
        )
        generator = TrafficGenerator(cfg, seed=0)
        for ifu in generator.ifus:
            assert generator.pre_state.holdings(ifu) >= 1

    def test_zipf_concentrates_volume_on_hot_ranks(self):
        generator = TrafficGenerator(SMALL, seed=11)
        batch = generator.next_batch(400)
        hot = sum(1 for tx in batch if tx.involves(generator.users[0]))
        cold = sum(1 for tx in batch if tx.involves(generator.users[-1]))
        assert hot > cold

    def test_involvement_counts_cover_every_ifu(self):
        cfg = StreamTrafficConfig(num_users=50, num_ifus=2, max_supply=256)
        generator = TrafficGenerator(cfg, seed=1)
        counts = generator.involvement(generator.next_batch(200))
        assert set(counts) == set(generator.ifus)
        assert sum(counts.values()) > 0


class TestValidation:
    def test_rejects_bad_mix(self):
        with pytest.raises(ReproError):
            StreamTrafficConfig(tx_type_mix=(0.5, 0.5, 0.5))

    def test_rejects_negative_mix_entry_that_sums_to_one(self):
        # Summing to 1 is not enough: numpy's choice used to reject the
        # negative weight only at the first draw.
        with pytest.raises(ConfigError, match="non-negative"):
            StreamTrafficConfig(tx_type_mix=(1.2, -0.1, -0.1))

    def test_rejects_more_ifus_than_users(self):
        with pytest.raises(ReproError):
            StreamTrafficConfig(num_users=3, num_ifus=4)

    def test_rejects_supply_below_ifus(self):
        with pytest.raises(ReproError):
            StreamTrafficConfig(num_users=10, num_ifus=4, max_supply=3)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ReproError):
            TrafficGenerator(SMALL, seed=0).next_batch(0)
