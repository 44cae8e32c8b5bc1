import copy
import random

import pytest

from translocsearch.automaton import OpCounter, SearchState, automaton_search
from translocsearch.dawg import ROOT, Dawg, advance_with_hops, build_dawg
from translocsearch.dp import DpColumns, dp_search
from translocsearch.oracle import naive_search
from translocsearch.seqcore import encode, infer_alphabet

from helpers import (
    EX2_X,
    EX2_Y,
    EX3_X,
    EX3_Y,
    EX4_X,
    EX4_Y,
    bits,
    brute_factor_suffix_ends,
    encode_pair,
    f_set,
    p_column,
    rand_str,
    reference_counts,
    suffix_state,
)


def search_str(x: str, y: str):
    pat, txt = encode_pair(x, y)
    return automaton_search(pat, txt)


class TestSearch:
    def test_known_two_swap_match(self):
        ends, _ = search_str(EX2_X, EX2_Y)
        assert ends == [12]

    def test_interior_exact_occurrence(self):
        ends, _ = search_str("abc", "xabcx")
        assert ends == [4]

    def test_unequal_length_swap(self):
        ends, _ = search_str("abc", "bca")
        assert ends == [3]

    def test_agrees_with_dp_on_example_strings(self):
        pat, txt = encode_pair(EX4_X, EX4_Y)
        ends, _ = automaton_search(pat, txt)
        assert ends == dp_search(pat, txt)

    def test_accepts_plain_iterable_of_codes(self):
        pat, txt = encode_pair("ab", "ba")
        ends, _ = automaton_search(pat, iter(txt.codes))
        assert ends == [2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            SearchState(encode("", infer_alphabet("")))


class TestStep:
    def test_symbol_outside_pattern(self):
        alphabet = infer_alphabet("abc")
        state = SearchState(encode("abc", alphabet))
        matched = state.step(alphabet.sentinel)
        assert matched is False
        assert (state.scan_state, state.scan_length) == (ROOT, 0)
        assert p_column(state, 1) == {0}

    def test_first_position_extension_only(self):
        pat, txt = encode_pair("ab", "ab")
        state = SearchState(pat)
        state.step(txt.codes[0])
        assert p_column(state, 1) == {0, 1}

    def test_single_swap_hand_trace(self):
        pat, txt = encode_pair("ab", "ba")
        state = SearchState(pat)
        assert state.step(txt.codes[0]) is False
        assert p_column(state, 1) == {0}
        assert state.step(txt.codes[1]) is True
        assert 2 in p_column(state, 2)

    def test_counters_monotone(self):
        pat, txt = encode_pair(EX2_X, EX2_Y + EX2_Y)
        state = SearchState(pat)
        c = OpCounter()
        last = (0, 0, 0, 0, 0)
        for code in txt.codes:
            state.step(code)
            state.tally(c)
            now = (
                c.delta_steps,
                c.suffix_hops,
                c.inner_iterations,
                c.endpos_queries,
                c.insertions,
            )
            assert all(b >= a for a, b in zip(last, now))
            last = now


class TestTallyGuard:
    """tally reads a ring of running sums that must start at the first
    column, so it refuses to count a stream it did not follow from there."""

    def test_refuses_before_any_step(self):
        state = SearchState(encode_pair("abc", "")[0])
        counter = OpCounter()
        with pytest.raises(RuntimeError, match="every step from the first"):
            state.tally(counter)
        assert counter == OpCounter()

    def test_refuses_after_untallied_steps(self):
        pat, txt = encode_pair("abc", "abcab")
        state = SearchState(pat)
        for code in txt.codes[:2]:
            state.step(code)
        counter = OpCounter()
        with pytest.raises(RuntimeError, match="every step from the first"):
            state.tally(counter)
        assert counter == OpCounter()


class TestFactorEndSets:
    def test_example_text_prefix(self):
        pat, txt = encode_pair(EX3_X, EX3_Y)
        state = SearchState(pat)
        for code in txt.codes[:5]:
            state.step(code)
        assert bits(f_set(state, 5, 3)) == {3, 7, 13}
        assert bits(f_set(state, 5, 2)) == {3, 7, 10, 13}

    def test_full_length_equals_state_end_positions(self):
        pat, txt = encode_pair(EX3_X, EX3_Y)
        state = SearchState(pat)
        for code in txt.codes[:5]:
            state.step(code)
        assert f_set(state, 5, state.scan_length) == state.dawg.endpos[state.scan_state]

    def test_too_long_suffix_gives_empty_set(self):
        pat, txt = encode_pair("ab", "zzz")
        state = SearchState(pat)
        for code in txt.codes:
            state.step(code)
        assert f_set(state, 3, 1) == 0
        assert f_set(state, 3, 2) == 0

    def test_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(30):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 10))
            y = rand_str(rng, sigma, rng.randint(0, 30))
            pat, txt = encode_pair(x, y)
            state = SearchState(pat)
            for j, code in enumerate(txt.codes, start=1):
                state.step(code)
                for k in range(1, state.scan_length + 1):
                    assert bits(f_set(state, j, k)) == (
                        brute_factor_suffix_ends(x, y[:j], k)
                    ), (x, y, j, k)


class TestCountdownWalk:
    def test_agrees_with_random_access_suffix_state(self):
        # the translocation loops step u to its suffix link exactly when h
        # reaches the link length; the result must equal suffix_state for
        # every start length valid for the state
        rng = random.Random(59)
        for _ in range(20):
            x = rand_str(rng, rng.choice([2, 4]), rng.randint(1, 16))
            d = build_dawg(encode(x, infer_alphabet(x)))
            for q in range(1, d.state_count):
                low = d.lens[d.suf[q]] + 1
                for start in range(low, d.lens[q] + 1):
                    u = q
                    for h in range(start, 0, -1):
                        if d.link_len[u] == h:
                            u = d.suf[u]
                        assert u == suffix_state(d, q, h), (x, q, start, h)


class TestEquivalence:
    def test_against_dp_random(self):
        rng = random.Random(71)
        for _ in range(50):
            sigma = rng.choice([2, 4, 20])
            x = rand_str(rng, sigma, rng.randint(1, 16))
            y = rand_str(rng, sigma, rng.randint(0, 200))
            pat, txt = encode_pair(x, y)
            ends, _ = automaton_search(pat, txt)
            assert ends == dp_search(pat, txt), (x, y)

    def test_against_enumeration_oracle_random(self):
        rng = random.Random(83)
        for _ in range(250):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 8))
            y = rand_str(rng, sigma, rng.randint(len(x), 20))
            pat, txt = encode_pair(x, y)
            ends, _ = automaton_search(pat, txt)
            assert ends == naive_search(pat, txt)


class TestResourceBounds:
    def test_footprint_independent_of_text_length(self):
        rng = random.Random(97)
        x = rand_str(rng, 4, 16)
        pat = encode(x, infer_alphabet(x))
        footprints = []
        for n in (1_000, 5_000):
            state = SearchState(pat)
            r = random.Random(5)
            for _ in range(n):
                state.step(r.randrange(4))
            # every live mask stays within its m+1-bit budget
            assert all(p.bit_length() <= pat.length + 1 for p in state._p)
            footprints.append(state.footprint())
        assert footprints[0] == footprints[1]

    def test_unary_worst_case_step_bound(self):
        m, n = 6, 24
        pat, txt = encode_pair("a" * m, "a" * n)
        state = SearchState(pat)
        counter = OpCounter()
        bound = (m + 1) * m * (m + 1)
        before = 0
        for code in txt.codes:
            state.step(code)
            state.tally(counter)
            after = counter.inner_iterations
            assert after - before <= bound
            before = after

    def test_disjoint_alphabets_do_no_inner_work(self):
        pat, txt = encode_pair("aaa", "bbbbbbbb")
        ends, counter = automaton_search(pat, txt)
        assert ends == []
        assert counter.inner_iterations == 0


def golden_inputs() -> dict[str, tuple[str, str]]:
    rng = random.Random(6)
    x = rand_str(rng, 4, 64)
    swapped = x[40:] + x[:40]  # one translocation, planted mid-text
    return {
        "random": (x, rand_str(rng, 4, 1500) + swapped + rand_str(rng, 4, 1500)),
        "period-2": ("ab" * 16, "ab" * 300),
        "unary": ("a" * 32, "a" * 600),
    }


# delta_steps and inner_iterations are the values of the earlier engine,
# which walked column j-h's suffix path again for every h; suffix_hops
# counts one walk per column, at most l_j hops each.  endpos_queries
# counts (h, k) pairs and insertions |P_j| - 1, per column.
GOLDEN_COUNTERS = {
    "random": (1, OpCounter(2259, 5127, 75394, 38692, 1775)),
    "period-2": (569, OpCounter(284, 8760, 6983120, 287184, 14024)),
    "unary": (569, OpCounter(568, 18104, 9215184, 287184, 18704)),
}


@pytest.mark.parametrize("name", GOLDEN_COUNTERS)
def test_counters_on_golden_inputs(name):
    x, y = golden_inputs()[name]
    pat, txt = encode_pair(x, y)
    ends, counter = automaton_search(pat, txt)
    hits, expected = GOLDEN_COUNTERS[name]
    assert (len(ends), counter) == (hits, expected)
    assert counter == reference_counts(pat, txt)
    d = build_dawg(pat)
    q, length, total_l = ROOT, 0, 0
    for code in txt:
        (q, length), _ = advance_with_hops(d, q, length, code)
        total_l += length
    assert counter.suffix_hops <= total_l


def test_opcounter_starts_at_zero():
    c = OpCounter()
    assert (
        c.delta_steps,
        c.suffix_hops,
        c.inner_iterations,
        c.endpos_queries,
        c.insertions,
    ) == (0, 0, 0, 0, 0)


def lockstep_cases(kind: str) -> list[tuple[str, str]]:
    """(pattern, text) pairs of one text kind, m <= 24."""
    rng = random.Random(131)
    if kind.startswith("random"):
        sigma = int(kind[-1])
        return [
            (rand_str(rng, sigma, m), rand_str(rng, sigma, rng.randint(m, 150)))
            for m in (1, 3, 8, 16, 24)
            for _ in range(3)
        ]
    cases = []
    for m in (1, 2, 7, 16, 24):
        block = {"unary": "a", "period-2": "ab", "A^(m-1)B": "a" * (m - 1) + "b"}[kind]
        text = block * (5 * m + 3)
        cases.append((text[:m], text[1 : 5 * m + 1]))
    return cases


@pytest.mark.parametrize("kind", ["random-2", "random-4", "unary", "period-2", "A^(m-1)B"])
def test_engines_differ_only_in_the_chain_source(kind):
    """dp builds column j's chain from column j-1's and dawg reads it off the
    automaton; both then close the column with the same loop.  Stepped side
    by side, they return the same bit and leave the same F and P columns."""
    for x, y in lockstep_cases(kind):
        pat, txt = encode_pair(x, y)
        masks = pat.symbol_masks()
        cols, state = DpColumns(pat.length), SearchState(pat)
        for j, code in enumerate(txt.codes, start=1):
            assert cols.push(masks.get(code, 0)) == state.step(code), (x, y, j)
            slot = j % cols.cap
            assert cols._f[slot] == state._f[slot], (x, y, j)
            assert cols._p[slot] == state._p[slot], (x, y, j)


def test_searches_leave_a_shared_dawg_unchanged():
    """match_ends hands one Dawg to every engine run of a call; a search
    must not change it, and a search through a used one must give the same
    hits and counters as a search that builds its own."""
    rng = random.Random(149)
    x = rand_str(rng, 2, 12)
    first = rand_str(rng, 2, 300)
    second = rand_str(rng, 2, 150) + x[5:] + x[:5] + ("ab" * 80)
    pat, txt1 = encode_pair(x, first)
    txt2 = encode_pair(x, second)[1]
    d = build_dawg(pat)
    before = [copy.deepcopy(getattr(d, name)) for name in Dawg._fields]
    automaton_search(pat, txt1, d)
    ends, counter = automaton_search(pat, txt2, d)
    assert [getattr(d, name) for name in Dawg._fields] == before
    assert ends
    assert (ends, counter) == automaton_search(pat, txt2)
