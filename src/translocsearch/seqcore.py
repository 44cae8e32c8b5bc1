"""Alphabets and int-coded sequences, kept for the benchmark, which hands
the engines int codes; the engines read any symbols, so no search needs
them.
"""
from __future__ import annotations

from .dp import symbol_masks


class Alphabet(tuple):
    """Ordered collection of distinct symbols; a symbol's code is its index."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...]) -> Alphabet:
        self = super().__new__(cls, symbols)
        if len(set(self)) != len(self):
            raise ValueError("alphabet symbols must be distinct")
        return self

    @property
    def symbols(self) -> tuple[str, ...]:
        return self

    @property
    def size(self) -> int:
        return len(self)

    @property
    def sentinel(self) -> int:
        """Code reserved for symbols outside the alphabet: equal to the
        alphabet size, so it never equals any pattern symbol's code."""
        return len(self)


class Sequence(tuple):
    """Immutable array of symbol codes."""

    __slots__ = ()

    @property
    def codes(self) -> tuple[int, ...]:
        return self

    @property
    def length(self) -> int:
        return len(self)

    def symbol_masks(self) -> dict[int, int]:
        """The mask {i : x[i] = c} per code c, as :func:`dp.symbol_masks`."""
        return symbol_masks(self)


def infer_alphabet(raw: str) -> Alphabet:
    """Alphabet of the distinct characters of ``raw`` in order of first appearance."""
    return Alphabet(tuple(dict.fromkeys(raw)))


def encode(raw: str, alphabet: Alphabet) -> Sequence:
    """Map characters to codes; characters missing from the alphabet get the
    sentinel code so they can never match a pattern symbol."""
    lookup = {s: c for c, s in enumerate(alphabet.symbols)}
    sentinel = alphabet.sentinel
    return Sequence(lookup.get(ch, sentinel) for ch in raw)
