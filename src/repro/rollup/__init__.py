"""Layer-2 optimistic rollup substrate.

Everything between the user's submitted NFT transaction and the finalized
L1 batch: the Bedrock-style private mempool, aggregators (honest and
adversarial), the optimistic virtual machine that replays transaction
sequences, batch construction with Merkle roots, fraud proofs, and the
verifier challenge game (paper Sections II-A, IV, V-A).
"""

from .transaction import NFTTransaction, TxKind
from .state import L2State, StepResult, ExecutionMode
from .ovm import OVM, ReplayTrace
from .replay_engine import (
    BatchReplayEngine,
    EvalSummary,
    IncrementalOVM,
    PermutationCache,
    ReplayEngineStats,
)
from .mempool import BedrockMempool
from .aggregator import Aggregator, AdversarialAggregator
from .batch import Batch, build_batch
from .fraud_proof import FraudProof, state_root
from .verifier import Verifier, VerificationReport
from .node import RollupNode, RoundReport
from .fee_market import FeeMarket
from .bisection import (
    BisectionGame,
    BisectionResult,
    CorruptExecutor,
    ExecutionCommitment,
    honest_commitment,
)

__all__ = [
    "NFTTransaction",
    "TxKind",
    "L2State",
    "StepResult",
    "ExecutionMode",
    "OVM",
    "ReplayTrace",
    "EvalSummary",
    "IncrementalOVM",
    "BatchReplayEngine",
    "PermutationCache",
    "ReplayEngineStats",
    "BedrockMempool",
    "Aggregator",
    "AdversarialAggregator",
    "Batch",
    "build_batch",
    "FraudProof",
    "state_root",
    "Verifier",
    "VerificationReport",
    "RollupNode",
    "RoundReport",
    "FeeMarket",
    "BisectionGame",
    "BisectionResult",
    "CorruptExecutor",
    "ExecutionCommitment",
    "honest_commitment",
]
