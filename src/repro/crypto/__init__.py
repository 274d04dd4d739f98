"""Cryptographic substrate: hashing, Merkle trees and key derivation.

This package provides the minimal primitives the rollup needs to compute
state roots and fraud proofs: deterministic SHA-256 hashing of structured
values, a binary Merkle tree with inclusion proofs, and deterministic
address derivation for simulated accounts.
"""

from .hashing import hash_bytes, hash_hex, hash_value, hash_pair
from .merkle import MerkleTree, MerkleProof, verify_proof
from .keys import KeyPair, derive_address, generate_keypair

__all__ = [
    "hash_bytes",
    "hash_hex",
    "hash_value",
    "hash_pair",
    "MerkleTree",
    "MerkleProof",
    "verify_proof",
    "KeyPair",
    "derive_address",
    "generate_keypair",
]
