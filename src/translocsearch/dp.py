"""Column-by-column dynamic programming engine.

Two tables drive the search, both indexed by pattern position i (rows)
and text position j (columns), filled one text column at a time:

* F[i,j]  length of the longest common suffix of x[1..i] and y[1..j];
* P[i,j]  true iff x[1..i] matches a suffix of y[1..j] after some set of
          non-overlapping swaps of adjacent factor pairs.

P[i,j] holds iff either

  (a) x[i] = y[j] and P[i-1,j-1] (or i = 1), or
  (b) for some factor lengths h, k >= 1 with h+k <= i the pattern prefix
      splits as u|z|w with |z| = h, |w| = k, where z matches the text
      ending at j (F[i-k,j] >= h), w matches the text ending at j-h
      (F[i,j-h] >= k), and u matches recursively (P[i-h-k,j-h-k], or
      i = h+k).

Only the last m+1 columns are ever consulted (condition (b) reaches back
at most h+k <= m positions), so columns live in ring buffers and the
whole search takes O(m^2) memory.

Columns are stored as bitmasks: the P column packs its booleans into one
integer (bit 0 is the always-true empty-prefix sentinel) and the F column
is kept as the nested family of threshold sets {i : F[i,j] >= k} for
k = 1..max(F[.,j]), one bitmask per k.  The two encodings are equivalent
(F[i,j] is the largest k whose set contains i) and make condition (b) a
handful of word operations per (h,k) pair.  Symbols are any hashable
values, such as a ``str``'s characters; one absent from the pattern has
an empty mask, so it simply never matches.
"""
from __future__ import annotations

from typing import Hashable, Iterable, Sequence


class DpColumns:
    """Ring buffer of the last m+1 F and P columns."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("empty pattern")
        self.m = m
        self.cap = m + 1
        self.full = (1 << (m + 1)) - 1
        self.pos = 0
        # column 0: empty text; F has no level >= 1, P holds only the sentinel
        self._f: list[list[int]] = [[self.full]] + [[] for _ in range(m)]
        self._p: list[int] = [1] + [0] * m

    def push(self, eq_mask: int) -> bool:
        """Fill column pos+1 given the mask {i : x[i] = y[pos+1]}.

        Builds the column's F-chain from column pos's, then closes the
        column with :meth:`_close`.  Returns whether the full pattern
        matches at the new column.
        """
        # F thresholds: {i : F[i,j] >= k} = {i : x[i]=y[j]} & shifted level
        # k-1 of the previous column.  Levels are nested, so the chain stops
        # at the first empty one; its length minus one is max(F[.,j]).
        chain = [self.full]
        for level in self._f[self.pos % self.cap]:
            t = (level << 1) & eq_mask
            if not t:
                break
            chain.append(t)
        return self._close(chain)

    def _close(self, chain: list[int]) -> bool:
        """Store column pos+1 given its F-chain: derive its P set by
        conditions (a) and (b), put both in the ring and return whether the
        full pattern matches there.

        Both engines end every column here; they differ only in where
        ``chain`` comes from.
        """
        j = self.pos + 1
        cap = self.cap
        m = self.m
        fcols = self._f
        plist = self._p

        # condition (a): extend every prefix matched at j-1 by one symbol;
        # level 1 of the chain is {i : x[i] = y[j]}, absent when it is empty
        p = 1
        if len(chain) > 1:
            p |= (plist[(j - 1) % cap] << 1) & chain[1]

        # condition (b): a bit of P[j-h-k] at i0 lands at i = i0+h+k when
        # position i0+h carries a length-h suffix of y_j and position
        # i0+h+k a length-k suffix of y_{j-h}.  Pairs with h+k > m cannot
        # produce i <= m and would reach outside the ring; skip them.
        for h in range(1, len(chain)):
            fh = chain[h]
            jh = j - h
            fcol = fcols[jh % cap]
            kend = m - h + 1  # k <= l_{j-h} and h+k <= m; min() costs a call per h
            if len(fcol) < kend:
                kend = len(fcol)
            for k in range(1, kend):
                add = (((plist[(jh - k) % cap] << h) & fh) << k) & fcol[k]
                if add:
                    p |= add

        fcols[j % cap] = chain
        plist[j % cap] = p
        self.pos = j
        return (p >> m) & 1 == 1


def symbol_masks(pattern: Iterable[Hashable]) -> dict[Hashable, int]:
    """The mask {i : x[i] = c} per pattern symbol c, i 1-based: bit 0 is
    never set."""
    masks: dict[Hashable, int] = {}
    for i, symbol in enumerate(pattern, start=1):
        masks[symbol] = masks.get(symbol, 0) | (1 << i)
    return masks


def dp_search(pattern: Sequence[Hashable], text: Iterable[Hashable]) -> list[int]:
    """All 1-based end positions where the pattern matches a text window
    after non-overlapping swaps of adjacent factor pairs.  ``text`` is any
    iterable of symbols (streams are consumed incrementally)."""
    masks = symbol_masks(pattern)
    cols = DpColumns(len(pattern))
    hits = []
    for j, symbol in enumerate(text, start=1):
        if cols.push(masks.get(symbol, 0)):
            hits.append(j)
    return hits
