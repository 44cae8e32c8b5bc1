"""Shared test utilities: example strings, brute-force oracles and
inspection helpers for the engines' internal structures.

The oracles here are deliberately naive (window scans, substring tests)
so they stay independent of the code paths they verify.
"""
from __future__ import annotations

import io
import random
from collections import Counter
from typing import Hashable, Iterable

from translocsearch import _is_image
from translocsearch.automaton import OpCounter
from translocsearch.dawg import ROOT, Dawg, advance_with_hops, build_dawg
from translocsearch.dp import DpColumns, symbol_masks

LETTERS = "abcdefghijklmnopqrst"

EX1_X = "agcagccag"
EX2_X, EX2_Y = "gtgaccgtccag", "ggatcccagcgt"
EX3_X, EX3_Y = "cattcatgatcat", "atcatgacttactgactta"
EX4_X, EX4_Y = "aggga", "aggagcatgggactaga"


def stdin_of(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` whose bytes are ``text`` in UTF-8."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def rand_str(rng: random.Random, sigma: int, length: int) -> str:
    return "".join(rng.choice(LETTERS[:sigma]) for _ in range(length))


def brute_longest_factor_suffix(x: str, scanned: str) -> int:
    """Length of the longest suffix of ``scanned`` that occurs in ``x``."""
    for length in range(min(len(x), len(scanned)), 0, -1):
        if scanned[len(scanned) - length :] in x:
            return length
    return 0


def brute_end_positions(x: str, w: str) -> set[int]:
    """1-based positions of ``x`` at which occurrences of ``w`` end."""
    return {
        i + len(w)
        for i in range(len(x) - len(w) + 1)
        if x[i : i + len(w)] == w
    }


def brute_factor_suffix_ends(x: str, scanned: str, k: int) -> set[int]:
    """1-based pattern positions where the length-k suffix of ``scanned``
    ends, empty when that suffix is not a factor of ``x``."""
    if k < 1 or k > len(scanned):
        return set()
    return brute_end_positions(x, scanned[len(scanned) - k :])


def brute_common_suffix(x: str, y: str, i: int, j: int) -> int:
    """Length of the longest common suffix of x[1..i] and y[1..j]."""
    length = 0
    while length < i and length < j and x[i - 1 - length] == y[j - 1 - length]:
        length += 1
    return length


def bits(mask: int) -> set[int]:
    out = set()
    pos = 0
    while mask:
        if mask & 1:
            out.add(pos)
        mask >>= 1
        pos += 1
    return out


def endpos_positions(dawg: Dawg, state: int) -> frozenset[int]:
    """End-position bitmask of a DAWG state expanded to a set."""
    mask = dawg.endpos[state]
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def walk(dawg: Dawg, symbols: Iterable[Hashable]) -> int | None:
    """State reached from the root reading ``symbols``; None if not a factor."""
    state = ROOT
    for symbol in symbols:
        nxt = dawg.trans[state].get(symbol)
        if nxt is None:
            return None
        state = nxt
    return state


def dump(dawg: Dawg) -> str:
    """Plain-text edge list plus suffix-link list, for golden-file tests.

    One ``src -> dst [symbol]`` line per transition, in symbol order, then
    one ``suf src -> dst`` line per non-root state.
    """
    lines = []
    for src, edges in enumerate(dawg.trans):
        for symbol in sorted(edges):
            lines.append(f"{src} -> {edges[symbol]} [{symbol}]")
    for q in range(1, dawg.state_count):
        lines.append(f"suf {q} -> {dawg.suf[q]}")
    return "\n".join(lines)


def _slot(cols: DpColumns, j: int) -> int:
    """Ring index of absolute column j, which must still be live."""
    if not cols.pos - cols.m <= j <= cols.pos:
        raise IndexError(f"column {j} is outside the live window")
    return j % cols.cap


def p_value(cols: DpColumns, i: int, j: int) -> bool:
    """P[i,j]; columns before the text start read as all-false."""
    if j < 0:
        return False
    return (cols._p[_slot(cols, j)] >> i) & 1 == 1


def f_value(cols: DpColumns, i: int, j: int) -> int:
    """F[i,j] recovered as the deepest threshold level containing i."""
    if j < 0:
        return 0
    levels = cols._f[_slot(cols, j)]
    k = 0
    while k + 1 < len(levels) and (levels[k + 1] >> i) & 1:
        k += 1
    return k


def f_set(cols: DpColumns, j: int, k: int) -> int:
    """Bitmask {i : F[i,j] >= k}; empty when k exceeds every F[i,j]."""
    if k < 1:
        raise ValueError("threshold must be at least 1")
    if j < 0:
        return 0
    levels = cols._f[_slot(cols, j)]
    return levels[k] if k < len(levels) else 0


def p_column(cols: DpColumns, j: int) -> set[int]:
    """Members of P column j: lengths of the pattern prefixes matched at j."""
    return {i for i in range(cols.m + 1) if p_value(cols, i, j)}


def suffix_state(dawg: Dawg, state: int, k: int) -> int:
    """State whose factor class contains the length-``k`` suffix of the
    longest factor of ``state``.

    Walks the suffix path until the class covering length ``k`` is found,
    i.e. the first state p with lens[suf[p]] < k <= lens[p].  Costs at most
    one hop per length unit since lengths strictly decrease along the path.
    """
    if not 1 <= k <= dawg.lens[state]:
        raise ValueError("invalid suffix length")
    link_len = dawg.link_len
    suf = dawg.suf
    while link_len[state] >= k:
        state = suf[state]
    return state


def reference_counts(pattern: str, text: Iterable[str]) -> OpCounter:
    """The automaton engine's work counters, recomputed without it: the
    F and P columns come from a plain DP run, l_j and |P_j| are read from
    them cell by cell, and the (h, k) pairs are enumerated one by one.

    For each h = 1..l_j the engine visits k = 1..min(l_{j-h}, m-h) and
    examines every member of P_{j-h-k}; its countdown walk visits each
    distinct state suffix_state(q_j, k), k = 1..l_j, once, hopping between
    them.
    """
    m = len(pattern)
    dawg = build_dawg(pattern)
    masks = symbol_masks(pattern)
    cols = DpColumns(m)
    counter = OpCounter()
    state, length = ROOT, 0
    lengths = [0]  # l_j, the deepest F level of column j
    sizes = [1]  # |P_j|; P_0 holds only the empty prefix
    for symbol in text:
        (state, length), hops = advance_with_hops(dawg, state, length, symbol)
        cols.push(masks.get(symbol, 0))
        j = cols.pos
        lengths.append(max(f_value(cols, i, j) for i in range(m + 1)))
        sizes.append(len(p_column(cols, j)))
        assert lengths[j] == length
        counter.delta_steps += hops
        states = {suffix_state(dawg, state, k) for k in range(1, lengths[j] + 1)}
        counter.suffix_hops += max(len(states) - 1, 0)
        for h in range(1, lengths[j] + 1):
            for k in range(1, min(lengths[j - h], m - h) + 1):
                counter.endpos_queries += 1
                counter.inner_iterations += sizes[j - h - k]
        counter.insertions += sizes[j] - 1
    return counter


def reference_pieces(pattern: str, text: str, budget: float) -> list[tuple[int | None, str | int]]:
    """What the scan `translocsearch._ends` checks and steps over in
    ``text`` under check budget ``budget``, recomputed from
    the whole text: the windows whose `Counter` equals the pattern's, in
    clusters of overlapping ones.  The r-th window of a cluster is checked
    on its own if every window before it was and their check work is below
    r * budget * m^2, and gives (None, k + m), its hit end, if it is an
    image.  Every other window is left to an engine and gives the symbols
    it adds to its run, the m symbols of a window that starts one, each run
    keyed by its first window's position."""
    m, counts = len(pattern), Counter(pattern)
    windows = [k for k in range(len(text) - m + 1) if Counter(text[k : k + m]) == counts]
    clusters = []
    for k in windows:
        if clusters and k < clusters[-1][-1] + m:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    out, run, end = [], -1, -1
    for cluster in clusters:
        spent, checked = 0, True
        for rank, k in enumerate(cluster, 1):
            checked = checked and spent < rank * budget * m * m
            if checked:
                image, work = _is_image(pattern, text[k : k + m])
                spent += work
                if image:
                    out.append((None, k + m))
                continue
            if k > end:  # the window starts a run
                run = end = k
            out.append((run, text[end : k + m]))
            end = k + m
    return out


def image_count_bound(upto: int) -> list[int]:
    """Table of the recursive upper bound on the number of distinct images
    of a string with pairwise-distinct characters, indices 0..upto.

    The recursion undercounts at length 3 (it gives 4 where enumeration
    finds 5 images); it is kept verbatim because its only role is inside
    a bound that also caps entry i+1 by 3**i, which enumeration respects.
    """
    if upto < 0:
        raise ValueError("upto must be non-negative")
    vals = [1]
    for k in range(upto):
        total = sum(vals[: k + 1])
        total += sum(vals[k - 2 * h - 1] for h in range(1, (k - 1) // 2 + 1))
        vals.append(total)
    return vals


def prefix_match_cell(cols: DpColumns, i: int, j: int, xi: str, yj: str) -> bool:
    """P cell recurrence evaluated literally from stored columns.

    Reference semantics for the column engine; quadratic per cell.
    """
    if i == 0:
        return True
    if xi == yj and (i == 1 or p_value(cols, i - 1, j - 1)):
        return True
    for k in range(1, i):
        hmax = min(f_value(cols, i - k, j), i - k)
        for h in range(1, hmax + 1):
            if j - h < 0 or f_value(cols, i, j - h) < k:
                continue
            if i == h + k or p_value(cols, i - h - k, j - h - k):
                return True
    return False
