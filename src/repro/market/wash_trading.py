"""Wash-trading detection over marketplace sale records.

The paper's related work (Section III) leans on the NFT wash-trading
literature — artificial volume from tokens cycling among colluding
wallets.  Since our marketplace produces full sale logs, we include the
standard graph-based detector as an extension: build the directed trade
graph per token, flag (a) tokens that return to a previous owner within
a window (closed cycles) and (b) tight wallet clusters whose internal
volume dwarfs their external trade.

Built on ``networkx`` (an allowed dependency), imported on first use
by :meth:`WashTradeDetector.trade_graph` and
:meth:`WashTradeDetector.suspicious_clusters`; used by tests and the
``parole``-adjacent market tooling, not by the attack itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from ..errors import MarketError
from .opensea import SaleRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True)
class WashCycle:
    """A token that returned to a previous owner."""

    token_id: int
    wallets: Tuple[str, ...]
    sale_blocks: Tuple[int, ...]
    volume_eth: float

    @property
    def length(self) -> int:
        """Number of sales in the cycle."""
        return len(self.sale_blocks)


@dataclass(frozen=True)
class WashReport:
    """Full detector output."""

    cycles: Tuple[WashCycle, ...]
    suspicious_wallets: Tuple[str, ...]
    artificial_volume_eth: float
    total_volume_eth: float

    @property
    def artificial_fraction(self) -> float:
        """Share of volume attributed to wash cycles."""
        if self.total_volume_eth == 0.0:
            return 0.0
        return self.artificial_volume_eth / self.total_volume_eth


class WashTradeDetector:
    """Cycle- and cluster-based wash-trade flagging."""

    def __init__(
        self,
        max_cycle_blocks: int = 1000,
        min_cluster_internal_fraction: float = 0.75,
    ) -> None:
        if max_cycle_blocks <= 0:
            raise MarketError("max_cycle_blocks must be positive")
        self.max_cycle_blocks = max_cycle_blocks
        self.min_cluster_internal_fraction = min_cluster_internal_fraction

    # ------------------------------------------------------------------ #

    def trade_graph(self, sales: Sequence[SaleRecord]) -> nx.MultiDiGraph:
        """Directed multigraph: one edge per sale, seller -> buyer."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for sale in sales:
            graph.add_edge(
                sale.seller,
                sale.buyer,
                token_id=sale.token_id,
                price=sale.price_eth,
                block=sale.block_number,
            )
        return graph

    def find_cycles(self, sales: Sequence[SaleRecord]) -> List[WashCycle]:
        """Tokens that re-enter a previous owner within the block window."""
        per_token: Dict[int, List[SaleRecord]] = {}
        for sale in sorted(sales, key=lambda s: s.block_number):
            per_token.setdefault(sale.token_id, []).append(sale)
        cycles: List[WashCycle] = []
        for token_id, history in per_token.items():
            owners_seen: Dict[str, int] = {}
            path: List[SaleRecord] = []
            for sale in history:
                path.append(sale)
                owners_seen.setdefault(sale.seller, sale.block_number)
                if sale.buyer in owners_seen:
                    window = sale.block_number - owners_seen[sale.buyer]
                    if window <= self.max_cycle_blocks:
                        cycle_sales = [
                            s for s in path
                            if s.block_number >= owners_seen[sale.buyer]
                        ]
                        cycles.append(
                            WashCycle(
                                token_id=token_id,
                                wallets=tuple(
                                    dict.fromkeys(
                                        [s.seller for s in cycle_sales]
                                        + [cycle_sales[-1].buyer]
                                    )
                                ),
                                sale_blocks=tuple(
                                    s.block_number for s in cycle_sales
                                ),
                                volume_eth=sum(
                                    s.price_eth for s in cycle_sales
                                ),
                            )
                        )
                    # Reset tracking after a flagged return.
                    owners_seen = {sale.buyer: sale.block_number}
                    path = []
        return cycles

    def suspicious_clusters(
        self, sales: Sequence[SaleRecord]
    ) -> List[Set[str]]:
        """Wallet groups whose trade volume is overwhelmingly internal."""
        import networkx as nx

        graph = self.trade_graph(sales)
        if graph.number_of_nodes() == 0:
            return []
        undirected = graph.to_undirected()
        clusters: List[Set[str]] = []
        for component in nx.connected_components(undirected):
            if len(component) < 2:
                continue
            internal = external = 0.0
            for seller, buyer, data in graph.edges(data=True):
                if seller in component and buyer in component:
                    internal += data["price"]
                elif seller in component or buyer in component:
                    external += data["price"]
            total = internal + external
            if total > 0 and internal / total >= self.min_cluster_internal_fraction:
                # Only flag components that actually cycle, not simple
                # chains of one-way sales.
                subgraph = graph.subgraph(component)
                if any(True for _ in nx.simple_cycles(nx.DiGraph(subgraph))):
                    clusters.append(set(component))
        return clusters

    def inspect(self, sales: Sequence[SaleRecord]) -> WashReport:
        """Full report over a sale log."""
        cycles = self.find_cycles(sales)
        clusters = self.suspicious_clusters(sales)
        suspicious: Set[str] = set()
        for cycle in cycles:
            suspicious.update(cycle.wallets)
        for cluster in clusters:
            suspicious.update(cluster)
        artificial = sum(cycle.volume_eth for cycle in cycles)
        total = sum(sale.price_eth for sale in sales)
        return WashReport(
            cycles=tuple(cycles),
            suspicious_wallets=tuple(sorted(suspicious)),
            artificial_volume_eth=artificial,
            total_volume_eth=total,
        )
