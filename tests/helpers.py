"""Shared test utilities: string-level wrappers, brute-force oracles and
inspection helpers for the engines' internal structures.

The oracles here are deliberately naive (window scans, substring tests)
so they stay independent of the code paths they verify.
"""
from __future__ import annotations

import random

from translocsearch.dawg import ROOT, Dawg
from translocsearch.dp import DpColumns
from translocsearch.seqcore import Alphabet, Sequence, encode, infer_alphabet

LETTERS = "abcdefghijklmnopqrst"

EX1_X = "agcagccag"
EX2_X, EX2_Y = "gtgaccgtccag", "ggatcccagcgt"
EX3_X, EX3_Y = "cattcatgatcat", "atcatgacttactgactta"
EX4_X, EX4_Y = "aggga", "aggagcatgggactaga"


def encode_pair(pattern: str, text: str) -> tuple[Sequence, Sequence]:
    """Encode both strings against the pattern's alphabet; text characters
    the pattern lacks become the sentinel code."""
    alphabet = infer_alphabet(pattern)
    return encode(pattern, alphabet), encode(text, alphabet)


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
    return frozenset(i for i in range(dawg.m + 1) if (mask >> i) & 1)


def walk(dawg: Dawg, codes: tuple[int, ...] | list[int]) -> int | None:
    """State reached from the root reading ``codes``; None if not a factor."""
    state = ROOT
    for code in codes:
        nxt = dawg.trans[state].get(code)
        if nxt is None:
            return None
        state = nxt
    return state


def dump(dawg: Dawg, alphabet: Alphabet | None = None) -> str:
    """Plain-text edge list plus suffix-link list, for golden-file tests.

    One ``src -> dst [symbol]`` line per transition, then one
    ``suf src -> dst`` line per non-root state.
    """

    def sym(code: int) -> str:
        if alphabet is not None and code < alphabet.size:
            return alphabet.symbols[code]
        return str(code)

    lines = []
    for src, edges in enumerate(dawg.trans):
        for code in sorted(edges):
            lines.append(f"{src} -> {edges[code]} [{sym(code)}]")
    for q in range(1, dawg.state_count):
        lines.append(f"suf {q} -> {dawg.suf[q]}")
    return "\n".join(lines)


def p_column(cols: DpColumns, j: int) -> set[int]:
    """Members of P column j: lengths of the pattern prefixes matched at j."""
    return {i for i in range(cols.m + 1) if cols.p_value(i, j)}


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


def prefix_match_cell(cols: DpColumns, i: int, j: int, xi: int, yj: int) -> bool:
    """P cell recurrence evaluated literally from stored columns.

    Reference semantics for the column engine; quadratic per cell.
    """
    if i == 0:
        return True
    if xi == yj and (i == 1 or cols.p_value(i - 1, j - 1)):
        return True
    for k in range(1, i):
        hmax = min(cols.f_value(i - k, j), i - k)
        for h in range(1, hmax + 1):
            if j - h < 0 or cols.f_value(i, j - h) < k:
                continue
            if i == h + k or cols.p_value(i - h - k, j - h - k):
                return True
    return False
