"""The plug-in registry: named factories the matrix and API resolve.

One :class:`Registry` class holds both plug-in kinds: the adversary
strategies (:data:`repro.strategies.STRATEGIES`) and the sequencing
defenses (:data:`repro.matrix.DEFENSES`).  Entries are *factories*, not
instances, so every matrix cell builds fresh plug-ins and no state leaks
between cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

from .errors import ReproError


@dataclass(frozen=True)
class RegistryEntry:
    """One registry entry: name, description, factory."""

    name: str
    description: str
    factory: Callable[..., Any]


class Registry:
    """Insertion-ordered name -> factory mapping of one plug-in kind."""

    def __init__(self, kind: str, *default_args: Any) -> None:
        #: What the entries are ("strategy", "defense"), for messages.
        self.kind = kind
        #: What :meth:`create` passes the factory when given no arguments.
        self._default_args = default_args
        self._entries: Dict[str, RegistryEntry] = {}

    def register(
        self, name: str, description: str, factory: Callable[..., Any]
    ) -> None:
        """Add (or replace) a named factory."""
        if not name:
            raise ReproError(f"{self.kind} name cannot be empty")
        self._entries[name] = RegistryEntry(
            name=name, description=description, factory=factory
        )

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def list(self) -> List[RegistryEntry]:
        """Every entry, in registration order."""
        return list(self._entries.values())

    def info(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self._entries)
            raise ReproError(
                f"unknown {self.kind} {name!r} (known: {known})"
            ) from None

    def create(self, name: str, *args: Any) -> Any:
        """Build a fresh instance of the named plug-in."""
        return self.info(name).factory(*(args or self._default_args))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
