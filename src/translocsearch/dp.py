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
handful of word operations per (h,k) pair.
"""
from __future__ import annotations

from .seqcore import MatchReport, Sequence


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

    def _slot(self, j: int) -> int:
        if not self.pos - self.m <= j <= self.pos:
            raise IndexError(f"column {j} is outside the live window")
        return j % self.cap

    def push(self, eq_mask: int) -> bool:
        """Fill column pos+1 given the mask {i : x[i] = y[pos+1]}.

        Returns whether the full pattern matches at the new column.
        """
        j = self.pos + 1
        cap = self.cap
        m = self.m
        fprev = self._f[(j - 1) % cap]
        plist = self._p

        # F thresholds: {i : F[i,j] >= k} = {i : x[i]=y[j]} & shifted level
        # k-1 of the previous column.  Levels are nested, so the chain stops
        # at the first empty one; its length minus one is max(F[.,j]).
        chain = [self.full]
        prev_levels = len(fprev)
        k = 1
        while k <= prev_levels:
            t = (fprev[k - 1] << 1) & eq_mask
            if not t:
                break
            chain.append(t)
            k += 1

        # condition (a): extend every prefix matched at j-1 by one symbol
        p = 1 | ((plist[(j - 1) % cap] << 1) & eq_mask)

        # condition (b): a bit of P[j-h-k] at i0 lands at i = i0+h+k when
        # position i0+h carries a length-h suffix of y_j and position
        # i0+h+k a length-k suffix of y_{j-h}.  Pairs with h+k > m cannot
        # produce i <= m and would reach outside the ring; skip them.
        lj = len(chain) - 1
        for h in range(1, lj + 1):
            fh = chain[h]
            jh = j - h
            fcol = self._f[jh % cap]
            kmax = min(len(fcol) - 1, m - h)
            for kk in range(1, kmax + 1):
                add = (((plist[(jh - kk) % cap] << h) & fh) << kk) & fcol[kk]
                if add:
                    p |= add

        self._f[j % cap] = chain
        self._p[j % cap] = p
        self.pos = j
        return (p >> m) & 1 == 1

    # -- inspection (tests, golden checks); j is an absolute column index --

    def p_value(self, i: int, j: int) -> bool:
        """P[i,j]; columns before the text start read as all-false."""
        if j < 0:
            return False
        return (self._p[self._slot(j)] >> i) & 1 == 1

    def f_value(self, i: int, j: int) -> int:
        """F[i,j] recovered as the deepest threshold level containing i."""
        if j < 0:
            return 0
        levels = self._f[self._slot(j)]
        k = 0
        while k + 1 < len(levels) and (levels[k + 1] >> i) & 1:
            k += 1
        return k

    def f_set(self, j: int, k: int) -> int:
        """Bitmask {i : F[i,j] >= k}; empty when k exceeds every F[i,j]."""
        if k < 1:
            raise ValueError("threshold must be at least 1")
        if j < 0:
            return 0
        levels = self._f[self._slot(j)]
        return levels[k] if k < len(levels) else 0


def dp_search(pattern: Sequence, text: Sequence) -> MatchReport:
    """All 1-based end positions where the pattern matches a text window
    after non-overlapping swaps of adjacent factor pairs."""
    m, n = pattern.length, text.length
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return MatchReport(())
    masks = pattern.symbol_masks()
    cols = DpColumns(m)
    hits = []
    for j, code in enumerate(text.codes, start=1):
        if cols.push(masks.get(code, 0)):
            hits.append(j)
    return MatchReport(tuple(hits))
