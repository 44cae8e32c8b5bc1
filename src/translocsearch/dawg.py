"""Directed acyclic word graph (factor automaton) of the pattern.

The DAWG is the minimal deterministic automaton accepting exactly the set
of factors (substrings) of the pattern.  Each state stands for one class
of factors that end at the same set of pattern positions; the automaton
carries, per state:

* ``lens[q]``     length of the longest factor in the class,
* ``suf[q]``      suffix link: the state of the longest suffix of the
                  class value that lies in a different class (-1 at root),
* ``isuf[q]``     improved suffix link: nearest suffix-link ancestor whose
                  outgoing label set strictly contains this state's
                  (-1 when none exists),
* ``endpos[q]``   bitmask of the 1-based pattern positions at which the
                  class's factors end.

A pattern of length m produces at most 2m+1 states.
"""
from __future__ import annotations

from typing import NamedTuple

from .seqcore import Sequence

ROOT = 0


class Dawg(NamedTuple):
    """Factor automaton built by :func:`build_dawg`; immutable afterwards."""

    lens: list[int]
    suf: list[int]
    isuf: list[int]
    link_len: list[int]  # lens[suf[q]] with -1 for the root, for the hot loops
    trans: list[dict[int, int]]
    endpos: list[int]

    @property
    def state_count(self) -> int:
        return len(self.lens)


def build_dawg(pattern: Sequence) -> Dawg:
    """Online incremental construction, one pattern symbol at a time.

    Cloning keeps the automaton minimal and yields suffix links and state
    lengths as a by-product.  End-position bitmasks are filled afterwards
    by seeding each step's new state with its position and uniting the
    masks bottom-up over the suffix-link tree.
    """
    if pattern.length == 0:
        raise ValueError("empty pattern")

    lens = [0]
    suf = [-1]
    trans: list[dict[int, int]] = [{}]
    primary: list[int] = []  # state created at step i, i.e. the class of x[1..i]
    last = ROOT

    for code in pattern.codes:
        cur = len(lens)
        lens.append(lens[last] + 1)
        suf.append(-1)
        trans.append({})
        p = last
        while p != -1 and code not in trans[p]:
            trans[p][code] = cur
            p = suf[p]
        if p == -1:
            suf[cur] = ROOT
        else:
            q = trans[p][code]
            if lens[q] == lens[p] + 1:
                suf[cur] = q
            else:
                # q's class would gain members of unequal length; split it
                # by cloning q at length lens[p]+1.
                clone = len(lens)
                lens.append(lens[p] + 1)
                suf.append(suf[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(code) == q:
                    trans[p][code] = clone
                    p = suf[p]
                suf[q] = clone
                suf[cur] = clone
        primary.append(cur)
        last = cur

    n_states = len(lens)
    endpos = [0] * n_states
    for pos, state in enumerate(primary, start=1):
        endpos[state] |= 1 << pos
    # lens[suf[q]] < lens[q]: every state comes after its suffix link
    by_len = sorted(range(1, n_states), key=lens.__getitem__)
    for q in reversed(by_len):
        endpos[suf[q]] |= endpos[q]

    # Outgoing label sets only grow along a suffix path, so the improved
    # link is the first ancestor with strictly more transitions, and it can
    # be inherited from the plain link when the label sets coincide.
    isuf = [-1] * n_states
    for q in by_len:
        s = suf[q]
        isuf[q] = s if len(trans[s]) > len(trans[q]) else isuf[s]

    link_len = [lens[s] if s >= 0 else -1 for s in suf]
    return Dawg(lens, suf, isuf, link_len, trans, endpos)


def advance_with_hops(
    dawg: Dawg, state: int, length: int, code: int
) -> tuple[tuple[int, int], int]:
    """Scan configuration after appending one text symbol, and the number
    of improved-link hops taken, for the engine's work counters.

    A scan configuration is the state and length of the longest pattern
    factor that is a suffix of the text scanned so far; it starts at
    (ROOT, 0).  The length may be smaller than ``lens[state]``: the class
    may contain several factors and only the shorter ones end here.

    If ``state`` has a transition on ``code`` the tracked factor simply
    grows by one.  Otherwise walk improved suffix links until a state with
    such a transition appears; the new length is that state's length plus
    one, because its class value is the longest suffix of the tracked
    factor extensible by ``code``.  With no transition anywhere on the
    path, restart at the root.
    """
    trans = dawg.trans
    target = trans[state].get(code)
    if target is not None:
        return (target, length + 1), 0
    isuf = dawg.isuf
    hops = 1
    p = isuf[state]
    while p != -1 and code not in trans[p]:
        p = isuf[p]
        hops += 1
    if p == -1:
        return (ROOT, 0), hops
    return (trans[p][code], dawg.lens[p] + 1), hops
