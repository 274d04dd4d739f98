"""Exception hierarchy for the PAROLE reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystem-specific failures get
their own subclass to make intent explicit at raise sites and precise at
catch sites.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class CryptoError(ReproError):
    """A cryptographic-substrate operation failed (e.g. bad Merkle proof)."""


class ChainError(ReproError):
    """Base class for L1 chain failures."""


class InsufficientBalanceError(ChainError):
    """An account tried to spend more than it holds."""

    def __init__(self, account: str, needed: int, available: int) -> None:
        super().__init__(
            f"account {account!r} needs {needed} wei but only holds {available} wei"
        )
        self.account = account
        self.needed = needed
        self.available = available


class UnknownAccountError(ChainError):
    """An operation referenced an address that was never created."""


class BondError(ChainError):
    """A bond deposit/slash operation was invalid."""


class TokenError(ReproError):
    """Base class for ERC-20/ERC-721 token failures."""


class SupplyExhaustedError(TokenError):
    """A mint was attempted with zero remaining supply (violates Eq. 1)."""


class NotOwnerError(TokenError):
    """A transfer/burn referenced a token the sender does not own."""


class UnknownTokenError(TokenError):
    """A token id was referenced that has never been minted."""


class RollupError(ReproError):
    """Base class for L2 rollup failures."""


class MempoolError(RollupError):
    """Invalid mempool operation (duplicate tx, unknown tx, ...)."""


class MempoolStalledError(MempoolError):
    """``collect`` was called while the pool is stalled.

    Distinct from an empty result: the pool may hold pending
    transactions, but collection is unavailable until ``resume()``.
    Callers must check ``stalled`` (or catch this) instead of treating
    the round as drained.
    """


class InvalidTransactionError(RollupError):
    """A transaction failed its execution constraint (Eq. 1, 3 or 5)."""


class BatchError(RollupError):
    """A batch was malformed or committed out of order."""


class ChallengeError(RollupError):
    """A fraud-proof challenge was invalid or raised outside its window."""


class KernelUnavailableError(RollupError):
    """The compiled batch replay kernel could not be built or loaded."""


class DRLError(ReproError):
    """Base class for deep-RL substrate failures."""


class NetworkShapeError(DRLError):
    """Tensor shapes fed to the neural network do not line up."""


class SolverError(ReproError):
    """A baseline reordering solver failed or hit its budget."""


class MarketError(ReproError):
    """NFT market / snapshot subsystem failure."""


class DefenseError(ReproError):
    """Defense-module failure."""


class FaultError(ReproError):
    """A fault plan was malformed or targeted an unknown component."""


class InvariantViolationError(ReproError):
    """A chaos-harness safety invariant failed after a round."""


class ParallelError(ReproError):
    """A task shipped to the execution fabric failed in a worker."""
