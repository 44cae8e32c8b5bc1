"""Int codes for symbols, kept only for the benchmark in ``perfbench``: the
engines read symbols as they come, so no search encodes.  A code is a
symbol's index in its alphabet, or the alphabet's size outside it."""
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
    def size(self) -> int:
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
    """Map characters to codes; a character missing from the alphabet gets
    ``len(alphabet)``, which no pattern symbol's code equals."""
    lookup = {s: c for c, s in enumerate(alphabet)}
    foreign = len(alphabet)
    return Sequence(lookup.get(ch, foreign) for ch in raw)
