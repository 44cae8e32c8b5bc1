"""Streaming engine driven by the pattern's factor automaton.

The dynamic-programming engine stores, for each of the last m+1 text
columns, the chain of sets {i : F[i,j] >= k} for k = 1..l_j, and builds
column j's chain from column j-1's.  This engine keeps the same ring of
chains (it is a :class:`translocsearch.dp.DpColumns`) but reads column
j's chain off the factor automaton instead: if the longest pattern factor
ending at text position j has length l_j and automaton state q_j, then
for k <= l_j the set equals the end-position mask of the suffix-path
ancestor of q_j covering length k, and it is empty for k > l_j.

Each column walks q_j's suffix path once, while h counts down from l_j,
one hop per length unit at most; the chain holds references to the
automaton's masks, so no new integers are made.  Conditions (a) and (b)
then run in :meth:`DpColumns._close`, the one translocation loop both
engines share, so the engines differ only in the chain.  Working memory is
O(m^2) regardless of text length, and the text is consumed strictly left
to right, one symbol at a time.  Symbols are any hashable values, such as
the characters of a ``str``; one absent from the pattern never matches.

The step counts nothing.  Work counters are derived per column, after
the step, from what the ring already holds (:meth:`SearchState.tally`):
:func:`automaton_search` pays for them, the search behind
:func:`translocsearch.match_ends` steps states without them.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Hashable, Iterable, Sequence

from .dawg import ROOT, Dawg, advance_with_hops, build_dawg
from .dp import DpColumns


class OpCounter(SimpleNamespace):
    """Work counters for one search stream, added once per column by
    :meth:`SearchState.tally`.

    delta_steps       improved-suffix-link hops while updating the scan
                      configuration
    suffix_hops       suffix-link hops taken while filling each column's
                      chain, one walk down q_j's suffix path: the levels
                      1..l_j-1 that differ from the next, at most l_j - 1
    inner_iterations  prefix-set members examined by the innermost loop,
                      i.e. iterations of the (h, k, i) triple loop
    endpos_queries    (h, k) pairs visited, one word-wide end-position test
                      each: sum over h of min(l_{j-h}, m-h), the pairs the
                      DP's condition (b) visits too
    insertions        prefix lengths matched at each column, the empty
                      prefix excepted: |P_j| - 1
    """

    def __init__(self, delta_steps=0, suffix_hops=0, inner_iterations=0,
                 endpos_queries=0, insertions=0) -> None:
        super().__init__(delta_steps=delta_steps, suffix_hops=suffix_hops,
                         inner_iterations=inner_iterations,
                         endpos_queries=endpos_queries, insertions=insertions)


class SearchState(DpColumns):
    """One search stream: the DP's ring of F-chains and P columns, filled
    from the factor automaton, plus the scan configuration: the state and
    length of the longest pattern factor ending at the last symbol."""

    def __init__(self, pattern: Sequence[Hashable], dawg: Dawg | None = None):
        super().__init__(len(pattern))
        self.dawg = dawg if dawg is not None else build_dawg(pattern)
        self.scan_state = ROOT
        self.scan_length = 0
        self.hops = 0  # improved-link hops of the last advance
        self._sums: list[int] | None = None  # tally's ring, made on first use

    def step(self, symbol: Hashable) -> bool:
        """Consume one text symbol; true iff the whole pattern matches at
        the new position.

        Advances the scan configuration to (q_j, l_j), then fills column
        j's chain for h = l_j down to 1, carrying u along q_j's suffix
        path: u is stepped to its suffix link exactly when h sinks to the
        link's length, so u always covers length h, and endpos[u] is level
        h.  :meth:`DpColumns._close` then runs the translocation loop.
        """
        d = self.dawg
        (u, lj), self.hops = advance_with_hops(
            d, self.scan_state, self.scan_length, symbol
        )
        self.scan_state, self.scan_length = u, lj
        endpos = d.endpos
        link_len = d.link_len
        suf = d.suf
        chain = [self.full] * (lj + 1)
        for h in range(lj, 0, -1):
            if link_len[u] == h:
                u = suf[u]
            chain[h] = endpos[u]
        return self._close(chain)

    def tally(self, counter: OpCounter) -> None:
        """Add the work of the last step to ``counter``, at O(l_j) cost.

        Reads the ring the step left behind, so it must follow every step
        from the first.  The step's (h, k, i) iterations come from R, a
        ring of m+2 running sums R[t] = |P_0| + ... + |P_t| (R[-1] = 0):
        for each h the k loop reads P[j-h-1] down to P[j-h-K_h], with
        K_h = min(l_{j-h}, m-h), which is R[j-h-1] - R[j-h-1-K_h] members.
        """
        j = self.pos
        cap = self.cap
        ring = cap + 1
        sums = self._sums
        if sums is None:
            if j != 1:
                raise RuntimeError("tally must follow every step from the first")
            sums = self._sums = [1] + [0] * cap  # P_0 holds the sentinel
        size = self._p[j % cap].bit_count()
        sums[j % ring] = sums[(j - 1) % ring] + size

        # the step's walk hops exactly where two adjacent levels of its chain
        # differ: DAWG states other than the root have distinct masks
        fcols = self._f
        chain = fcols[j % cap]
        hops = sum(chain[h] != chain[h + 1] for h in range(1, len(chain) - 1))

        m = self.m
        pairs = members = 0
        for h in range(1, len(chain)):
            jh = j - h
            kk = len(fcols[jh % cap]) - 1
            if kk > m - h:
                kk = m - h
            pairs += kk
            members += sums[(jh - 1) % ring] - sums[(jh - 1 - kk) % ring]

        counter.delta_steps += self.hops
        counter.suffix_hops += hops
        counter.inner_iterations += members
        counter.endpos_queries += pairs
        counter.insertions += size - 1

    def footprint(self) -> dict[str, int]:
        """Sizes of the live auxiliary structures.

        Every prefix set and end-position mask is bounded to m+1 bits by
        construction (positions 0..m), and each of the m+1 chains holds at
        most m+1 references to end-position masks, so the counts reported
        here are the whole working memory; nothing grows with the text.
        """
        bits = self.m + 1
        return {
            "chain_slots": len(self._f),
            "prefix_slots": len(self._p),
            "prefix_bits": len(self._p) * bits,
            "dawg_states": self.dawg.state_count,
            "endpos_bits": self.dawg.state_count * bits,
        }


def automaton_search(
    pattern: Sequence[Hashable],
    text: Iterable[Hashable],
    dawg: Dawg | None = None,
) -> tuple[list[int], OpCounter]:
    """The 1-based match end positions in ``text``, any iterable of
    symbols (streams are consumed incrementally), and the work counters."""
    state = SearchState(pattern, dawg)
    counter = OpCounter()
    hits = []
    step = state.step
    for j, symbol in enumerate(text, start=1):
        if step(symbol):
            hits.append(j)
        state.tally(counter)
    return hits, counter
