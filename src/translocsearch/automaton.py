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
automaton's masks, so no new integers are made.  Working memory is
O(m^2) regardless of text length, and the text is consumed strictly left
to right, one symbol at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dawg import START_CONFIG, Dawg, advance_with_hops, build_dawg
from .dp import DpColumns
from .seqcore import MatchReport, Sequence


@dataclass
class OpCounter:
    """Work counters for one search stream.

    delta_steps       improved-suffix-link hops while updating the scan
                      configuration
    suffix_hops       suffix-link hops taken while filling each column's
                      chain: one walk down q_j's suffix path per column,
                      at most l_j hops
    inner_iterations  prefix-set members examined by the innermost loop,
                      i.e. iterations of the (h, k, i) triple loop
    endpos_queries    end-position membership tests (the second test of a
                      pair runs only when the first passed)
    insertions        prefix-set insertions, extensions included
    """

    delta_steps: int = 0
    suffix_hops: int = 0
    inner_iterations: int = 0
    endpos_queries: int = 0
    insertions: int = 0


class SearchState(DpColumns):
    """One search stream: the DP's ring of F-chains and P columns, filled
    from the factor automaton, plus the scan configuration and the work
    counters."""

    def __init__(self, pattern: Sequence, dawg: Dawg | None = None):
        super().__init__(pattern.length)
        self.dawg = dawg if dawg is not None else build_dawg(pattern)
        self.ext_masks = pattern.symbol_masks()
        self.scan = START_CONFIG
        self.counter = OpCounter()

    def step(self, code: int) -> bool:
        """Consume one text symbol; true iff the whole pattern matches at
        the new position.

        The translocation loops run h from l_j down to 1, carrying u along
        q_j's suffix path: u is stepped to its suffix link exactly when h
        sinks to the link's length, so u always covers length h, and
        endpos[u] is level h of column j's chain.  The k loop reads column
        j-h's stored chain, bounded as in :meth:`DpColumns.push`.
        """
        d = self.dawg
        cnt = self.counter
        cap = self.cap
        fcols = self._f
        psets = self._p
        m = self.m
        endpos = d.endpos
        link_len = d.link_len
        suf = d.suf

        j = self.pos + 1
        prev = self.scan
        config, hops = advance_with_hops(d, prev.state, prev.length, code)
        cnt.delta_steps += hops

        ext = (psets[(j - 1) % cap] << 1) & self.ext_masks.get(code, 0)
        cnt.insertions += ext.bit_count()
        pj = 1 | ext

        chain = [self.full] * (config.length + 1)
        u = config.state
        for h in range(config.length, 0, -1):
            if link_len[u] == h:
                u = suf[u]
                cnt.suffix_hops += 1
            ep_u = chain[h] = endpos[u]
            jh = j - h
            fcol = fcols[jh % cap]
            kend = m - h + 1  # k <= l_{j-h} and h+k <= m; min() costs a call per h
            if len(fcol) < kend:
                kend = len(fcol)
            for k in range(1, kend):
                pold = psets[(jh - k) % cap]
                members = pold.bit_count()
                cnt.inner_iterations += members
                cnt.endpos_queries += members
                t = (pold << h) & ep_u
                cnt.endpos_queries += t.bit_count()
                add = (t << k) & fcol[k]
                if add:
                    cnt.insertions += add.bit_count()
                    pj |= add

        self.scan = config
        fcols[j % cap] = chain
        psets[j % cap] = pj
        self.pos = j
        return (pj >> m) & 1 == 1

    def footprint(self) -> dict[str, int]:
        """Sizes of the live auxiliary structures.

        Every prefix set and end-position mask is bounded to m+1 bits by
        construction (positions 0..m), and each of the m+1 chains holds at
        most m+1 references to end-position masks, so the counts reported
        here are the whole working memory; nothing grows with the text.
        """
        width = self.m + 1
        return {
            "chain_slots": len(self._f),
            "prefix_slots": len(self._p),
            "prefix_bits": len(self._p) * width,
            "dawg_states": self.dawg.state_count,
            "endpos_bits": self.dawg.state_count * width,
        }


def automaton_search(
    pattern: Sequence,
    text: Sequence | Iterable[int],
    dawg: Dawg | None = None,
) -> tuple[MatchReport, OpCounter]:
    """Run a full search over ``text``, which may be a coded Sequence or
    any iterable of symbol codes (streams are consumed incrementally)."""
    state = SearchState(pattern, dawg)
    hits = []
    step = state.step
    for j, code in enumerate(text, start=1):
        if step(code):
            hits.append(j)
    return MatchReport(tuple(hits)), state.counter
