"""Alphabets and coded sequences shared by every engine.

All positions reported to callers are 1-based: a pattern of length m
occupies x[1..m] and a match ending at text position j means the window
y[j-m+1..j] is involved.  Internal storage is 0-based and never leaks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct symbols; a symbol's code is its index."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def sentinel(self) -> int:
        """Code reserved for symbols outside the alphabet.

        Equal to the alphabet size, so it never collides with a real code
        and never equals any pattern symbol: unknown text characters are
        automatic mismatches in every engine.
        """
        return len(self.symbols)


@dataclass(frozen=True)
class Sequence:
    """Immutable array of symbol codes."""

    codes: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def symbol_masks(self) -> dict[int, int]:
        """Bitmask per code with bit i set iff the symbol at 1-based
        position i carries that code.  Bit 0 is never set."""
        masks: dict[int, int] = {}
        for idx, code in enumerate(self.codes):
            masks[code] = masks.get(code, 0) | (1 << (idx + 1))
        return masks


def infer_alphabet(raw: str) -> Alphabet:
    """Alphabet of the distinct characters of ``raw`` in order of first appearance."""
    return Alphabet(tuple(dict.fromkeys(raw)))


def encode(raw: str, alphabet: Alphabet) -> Sequence:
    """Map characters to codes; characters missing from the alphabet get the
    sentinel code so they can never match a pattern symbol."""
    lookup = {s: c for c, s in enumerate(alphabet.symbols)}
    sentinel = alphabet.sentinel
    return Sequence(tuple(lookup.get(ch, sentinel) for ch in raw))

