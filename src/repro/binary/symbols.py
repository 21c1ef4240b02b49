"""Function and object symbols of a binary image."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass
class Symbol:
    """A named address range inside a binary image.

    Attributes:
        name: symbol name.
        address: start address.
        size: extent in bytes (0 when unknown).
        kind: ``"func"`` for code, ``"object"`` for data.
    """

    name: str
    address: int
    size: int = 0
    kind: str = "func"

    @property
    def end(self) -> int:
        """One past the last address covered by the symbol."""
        return self.address + self.size


class SymbolTable:
    """Name- and address-indexed collection of :class:`Symbol` entries."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Symbol] = {}

    def add(self, symbol: Symbol) -> Symbol:
        """Insert or replace a symbol and return it."""
        self._by_name[symbol.name] = symbol
        return symbol

    def get(self, name: str) -> Symbol:
        """Return the symbol called ``name``.

        Raises:
            KeyError: if no such symbol exists.
        """
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def functions(self) -> List[Symbol]:
        """All function symbols, sorted by address."""
        return sorted(
            (s for s in self._by_name.values() if s.kind == "func"),
            key=lambda s: s.address,
        )
