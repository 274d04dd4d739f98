"""Binary Merkle tree with inclusion proofs.

The rollup's state root and the fraud proof both rest on this tree.  The
tree duplicates the final leaf at odd levels (Bitcoin-style) so any number
of leaves produces a well-defined root.

Successive state roots share most of their content, so a tree built from
precomputed leaf digests takes its interior nodes from a
:class:`DigestMemo` keyed by the two child digests: a node whose children
were hashed before is never hashed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

from ..errors import CryptoError
from .hashing import hash_pair, hash_value

#: Root of an empty tree, a fixed domain-separated digest.
EMPTY_ROOT = hash_value("repro.merkle.empty")

#: A memo's newer generation retires once it holds more than this many
#: times the leaves of the tree just built.
MEMO_MULTIPLE = 4


class DigestMemo:
    """Digests keyed by exact content, in a newer and an older generation.

    A lookup that misses the newer generation falls back to the older one
    and promotes what it finds.  :meth:`rotate` drops the older generation
    once the newer one outgrows :data:`MEMO_MULTIPLE` times the tree just
    built, so the memo stays within a constant multiple of the largest
    tree however many trees it serves.  An entry is a pure function of its
    key, so every party that builds roots -- aggregator and verifier alike
    -- may share one memo without trusting the others, and threads need no
    lock: a lost race can only store or drop a correct entry.
    """

    __slots__ = ("newer", "older")

    def __init__(self) -> None:
        self.newer: Dict[Hashable, str] = {}
        self.older: Dict[Hashable, str] = {}

    def __len__(self) -> int:
        return len(self.newer) + len(self.older)

    def digests(
        self, keys: Iterable[Hashable], compute: Callable[[Any], str]
    ) -> Iterator[str]:
        """Yield the digest of each key: the one stored under it, or
        ``compute(key)``."""
        newer, older = self.newer, self.older
        for key in keys:
            digest = newer.get(key)
            if digest is None:
                digest = older.get(key)
                if digest is None:
                    digest = compute(key)
                newer[key] = digest
            yield digest

    def rotate(self, tree_size: int) -> None:
        """Retire the older generation if the newer one has outgrown
        :data:`MEMO_MULTIPLE` times ``tree_size``."""
        if len(self.newer) > MEMO_MULTIPLE * tree_size:
            self.older = self.newer
            self.newer = {}


#: Interior nodes of the trees built from leaf digests, keyed by their
#: ``(left, right)`` children.
_NODE_MEMO = DigestMemo()


def _hash_node(children: Tuple[str, str]) -> str:
    return hash_pair(*children)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for a single leaf.

    ``path`` holds ``(sibling_digest, sibling_is_right)`` pairs from leaf
    level to root.
    """

    leaf: str
    index: int
    path: Tuple[Tuple[str, bool], ...]


class MerkleTree:
    """Binary Merkle tree over canonical hashes of arbitrary values.

    Pass ``leaves`` to hash each value with :func:`hash_value`, or
    ``leaf_digests`` to supply those digests directly; the second form
    memoizes interior nodes, for trees rebuilt over mostly unchanged
    content such as successive state roots.
    """

    def __init__(
        self,
        leaves: Sequence[Any] = (),
        *,
        leaf_digests: Optional[Iterable[str]] = None,
    ) -> None:
        if leaf_digests is None:
            self._leaf_digests: List[str] = [hash_value(leaf) for leaf in leaves]
            self._levels: List[List[str]] = self._build_levels(
                self._leaf_digests
            )
        else:
            self._leaf_digests = list(leaf_digests)
            self._levels = self._build_levels(self._leaf_digests, _NODE_MEMO)
            _NODE_MEMO.rotate(len(self._leaf_digests))

    @staticmethod
    def _build_levels(
        leaf_digests: Sequence[str], memo: Optional[DigestMemo] = None
    ) -> List[List[str]]:
        if not leaf_digests:
            return [[EMPTY_ROOT]]
        levels = [list(leaf_digests)]
        current = list(leaf_digests)
        while len(current) > 1:
            if len(current) % 2 == 1:
                current = current + [current[-1]]
                levels[-1] = current
            children = zip(current[::2], current[1::2])
            if memo is None:
                parent = [hash_pair(left, right) for left, right in children]
            else:
                parent = list(memo.digests(children, _hash_node))
            levels.append(parent)
            current = parent
        return levels

    def __len__(self) -> int:
        return len(self._leaf_digests)

    @property
    def root(self) -> str:
        """Hex digest of the tree root."""
        return self._levels[-1][0]

    @property
    def leaf_digests(self) -> Tuple[str, ...]:
        """Digests of the original leaves (without padding duplicates)."""
        return tuple(self._leaf_digests)

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaf_digests):
            raise CryptoError(
                f"leaf index {index} out of range [0, {len(self._leaf_digests)})"
            )
        path: List[Tuple[str, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                sibling_is_right = True
            else:
                sibling_index = position - 1
                sibling_is_right = False
            sibling = level[sibling_index] if sibling_index < len(level) else level[position]
            path.append((sibling, sibling_is_right))
            position //= 2
        return MerkleProof(
            leaf=self._leaf_digests[index], index=index, path=tuple(path)
        )


def verify_proof(root: str, proof: MerkleProof) -> bool:
    """Check a :class:`MerkleProof` against an expected root digest."""
    digest = proof.leaf
    for sibling, sibling_is_right in proof.path:
        if sibling_is_right:
            digest = hash_pair(digest, sibling)
        else:
            digest = hash_pair(sibling, digest)
    return digest == root
