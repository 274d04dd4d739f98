"""Binary Merkle tree with inclusion proofs.

The rollup's state root and the fraud proof both rest on this tree.  The
tree duplicates the final leaf at odd levels (Bitcoin-style) so any number
of leaves produces a well-defined root.

Successive state roots share most of their content, so a tree built from
precomputed leaf digests takes its interior nodes from a
:class:`DigestMemo` keyed by the two child digests: a node whose children
were hashed before is never hashed again.  A tree can also be built as an
earlier tree with a few leaves replaced: only the ancestors of those
leaves are recomputed, through the same memo, and the earlier tree is
left as it was.
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
    content such as successive state roots.  Pass ``base`` and
    ``changes``, an iterable of ``(leaf index, digest)`` pairs, for
    ``base`` with those leaves replaced: only their ancestors are
    rehashed, through the same memo, and ``base`` is not modified.
    """

    def __init__(
        self,
        leaves: Sequence[Any] = (),
        *,
        leaf_digests: Optional[Iterable[str]] = None,
        base: Optional["MerkleTree"] = None,
        changes: Iterable[Tuple[int, str]] = (),
    ) -> None:
        if base is not None:
            self._size: int = base._size
            self._levels: List[List[str]] = base._rehashed(changes)
            _NODE_MEMO.rotate(self._size)
        elif leaf_digests is None:
            digests = [hash_value(leaf) for leaf in leaves]
            self._size = len(digests)
            self._levels = self._build_levels(digests)
        else:
            digests = list(leaf_digests)
            self._size = len(digests)
            self._levels = self._build_levels(digests, _NODE_MEMO)
            _NODE_MEMO.rotate(self._size)

    @staticmethod
    def _build_levels(
        leaf_digests: List[str], memo: Optional[DigestMemo] = None
    ) -> List[List[str]]:
        if not leaf_digests:
            return [[EMPTY_ROOT]]
        levels = [leaf_digests]
        current = leaf_digests
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

    def _rehashed(self, changes: Iterable[Tuple[int, str]]) -> List[List[str]]:
        """Copies of this tree's levels with ``changes`` applied to the
        leaves and every ancestor of a changed leaf recomputed."""
        levels = [list(level) for level in self._levels]
        leaves = levels[0]
        dirty: List[int] = []
        for index, digest in changes:
            if not 0 <= index < self._size:
                raise CryptoError(
                    f"leaf index {index} out of range [0, {self._size})"
                )
            if leaves[index] != digest:
                leaves[index] = digest
                dirty.append(index)
        dirty.sort()
        width = self._size
        for level, above in zip(levels, levels[1:]):
            if not dirty:
                break
            if width % 2 and dirty[-1] == width - 1:
                level[width] = level[width - 1]  # an odd level's duplicate
            dirty = list(dict.fromkeys(index // 2 for index in dirty))
            children = ((level[2 * p], level[2 * p + 1]) for p in dirty)
            for parent, digest in zip(
                dirty, _NODE_MEMO.digests(children, _hash_node)
            ):
                above[parent] = digest
            width = (width + 1) // 2
        return levels

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> str:
        """Hex digest of the tree root."""
        return self._levels[-1][0]

    @property
    def leaf_digests(self) -> Tuple[str, ...]:
        """Digests of the original leaves (without padding duplicates)."""
        return tuple(self._levels[0][:self._size])

    def proof(self, index: int) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``index``."""
        if not 0 <= index < self._size:
            raise CryptoError(
                f"leaf index {index} out of range [0, {self._size})"
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
            leaf=self._levels[0][index], index=index, path=tuple(path)
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
