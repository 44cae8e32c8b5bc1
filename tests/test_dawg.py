import random

import pytest

from translocsearch.dawg import (
    ROOT,
    START_CONFIG,
    ScanConfig,
    advance_with_hops,
    build_dawg,
    suffix_state,
)
from translocsearch.seqcore import encode, infer_alphabet

from helpers import (
    EX1_X,
    EX4_X,
    EX4_Y,
    brute_end_positions,
    brute_factor_suffix_ends,
    brute_longest_factor_suffix,
    dump,
    endpos_positions,
    rand_str,
    walk,
)


def build_str(x: str):
    alphabet = infer_alphabet(x)
    return build_dawg(encode(x, alphabet)), alphabet


def state_of(dawg, alphabet, w: str):
    return walk(dawg, encode(w, alphabet).codes)


def advance(dawg, config, code):
    new_config, _ = advance_with_hops(dawg, config.state, config.length, code)
    return new_config


def transition_count(dawg):
    return sum(len(t) for t in dawg.trans)


def scan(dawg, codes):
    config = START_CONFIG
    for c in codes:
        config = advance(dawg, config, c)
    return config


class TestBuild:
    def test_example_pattern_end_positions(self):
        d, a = build_str(EX1_X)
        ag = state_of(d, a, "ag")
        assert endpos_positions(d, ag) == {2, 5, 9}
        assert endpos_positions(d, state_of(d, a, "gcc")) == {7}

    def test_example_pattern_classes(self):
        d, a = build_str(EX1_X)
        ag = state_of(d, a, "ag")
        assert state_of(d, a, "g") == ag
        assert d.lens[ag] == 2
        gc = state_of(d, a, "gc")
        assert state_of(d, a, "agc") == gc
        assert d.lens[gc] == 3

    def test_single_character_pattern(self):
        d, a = build_str("a")
        assert d.state_count == 2
        assert transition_count(d) == 1
        assert endpos_positions(d, state_of(d, a, "a")) == {1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            build_dawg(encode("", infer_alphabet("")))

    def test_every_factor_reaches_state_with_brute_end_positions(self):
        rng = random.Random(11)
        patterns = [EX1_X, "aaaa", "abab"] + [
            rand_str(rng, rng.choice([2, 3, 4]), rng.randint(1, 12))
            for _ in range(30)
        ]
        for x in patterns:
            d, a = build_str(x)
            seen = set()
            for i in range(len(x)):
                for j in range(i + 1, len(x) + 1):
                    w = x[i:j]
                    q = state_of(d, a, w)
                    assert q is not None
                    assert endpos_positions(d, q) == brute_end_positions(x, w)
                    seen.add(w)
            # non-factors must fall off the automaton
            for _ in range(20):
                w = rand_str(rng, 4, rng.randint(1, len(x) + 2))
                if w not in x:
                    assert state_of(d, a, w) is None
            # a state's length is the longest factor mapping to it
            longest = {}
            for w in seen:
                q = state_of(d, a, w)
                longest[q] = max(longest.get(q, 0), len(w))
            for q, length in longest.items():
                assert d.lens[q] == length

    def test_structural_bounds_random(self):
        rng = random.Random(5)
        for _ in range(15):
            sigma = rng.choice([2, 4, 20])
            m = rng.randint(1, 1000)
            d, _ = build_str(rand_str(rng, sigma, m))
            assert d.state_count <= 2 * m + 1
            assert transition_count(d) <= 3 * m
            for q in range(1, d.state_count):
                assert d.lens[d.suf[q]] < d.lens[q]


class TestAdvance:
    def test_example_scan_lengths(self):
        # values derived from the brute-force longest-factor-suffix oracle
        d, a = build_str(EX4_X)
        y = encode(EX4_Y, a).codes
        cfg = scan(d, y[:5])
        assert cfg.length == 2
        assert brute_longest_factor_suffix(EX4_X, EX4_Y[:5]) == 2
        cfg = scan(d, y[:11])
        assert cfg.length == 3
        assert brute_longest_factor_suffix(EX4_X, EX4_Y[:11]) == 3

    def test_symbol_outside_pattern_resets(self):
        d, a = build_str(EX4_X)
        sentinel = a.sentinel
        for prefix in ("", "ag", "aggga"):
            cfg = scan(d, encode(prefix, a).codes)
            assert advance(d, cfg, sentinel) == ScanConfig(ROOT, 0)

    def test_streaming_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 10))
            y = rand_str(rng, sigma, rng.randint(0, 30))
            d, a = build_str(x)
            config = START_CONFIG
            for j, c in enumerate(encode(y, a).codes, start=1):
                config = advance(d, config, c)
                assert config.length == brute_longest_factor_suffix(x, y[:j])
                # configuration invariants
                assert config.length <= d.lens[config.state]
                if config.state != ROOT:
                    assert config.length > d.lens[d.suf[config.state]]

    def test_improved_links_agree_with_plain_suffix_walk(self):
        def advance_plain(d, config, c):
            q, l = config
            t = d.trans[q].get(c)
            if t is not None:
                return ScanConfig(t, l + 1)
            p = d.suf[q]
            while p != -1 and c not in d.trans[p]:
                p = d.suf[p]
            if p == -1:
                return ScanConfig(ROOT, 0)
            return ScanConfig(d.trans[p][c], d.lens[p] + 1)

        rng = random.Random(31)
        for _ in range(40):
            sigma = rng.choice([2, 3, 4])
            x = rand_str(rng, sigma, rng.randint(1, 16))
            y = rand_str(rng, sigma, rng.randint(0, 60))
            d, a = build_str(x)
            fast = plain = START_CONFIG
            for c in encode(y, a).codes:
                fast = advance(d, fast, c)
                plain = advance_plain(d, plain, c)
                assert fast == plain


class TestSuffixState:
    def test_own_length_is_identity(self):
        for x in (EX1_X, EX4_X, "aaaa", "ab"):
            d, _ = build_str(x)
            for q in range(1, d.state_count):
                assert suffix_state(d, q, d.lens[q]) == q

    def test_class_internal_suffix(self):
        # "gc" and "agc" share a class, so the length-2 suffix of "agc"
        # stays on the same state
        d, a = build_str(EX1_X)
        agc = state_of(d, a, "agc")
        assert suffix_state(d, agc, 2) == agc

    def test_crossing_to_linked_class(self):
        d, a = build_str(EX1_X)
        cag = state_of(d, a, "cag")
        assert d.lens[cag] == 3
        target = suffix_state(d, cag, 2)
        assert endpos_positions(d, target) == brute_end_positions(EX1_X, "ag")

    def test_invalid_length_rejected(self):
        d, a = build_str(EX1_X)
        q = state_of(d, a, "ag")
        with pytest.raises(ValueError, match="invalid suffix length"):
            suffix_state(d, q, 0)
        with pytest.raises(ValueError, match="invalid suffix length"):
            suffix_state(d, q, d.lens[q] + 1)

    def test_factor_suffix_sets_match_brute_force(self):
        # streaming: for every scanned prefix and every k <= l_j, the
        # end-position set of the suffix-path state equals the brute-force
        # occurrence set of the text suffix, and the sets nest as k grows
        rng = random.Random(47)
        for _ in range(40):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 10))
            y = rand_str(rng, sigma, rng.randint(0, 30))
            d, a = build_str(x)
            config = START_CONFIG
            for j, c in enumerate(encode(y, a).codes, start=1):
                config = advance(d, config, c)
                prev = None
                for k in range(config.length, 0, -1):
                    got = endpos_positions(d, suffix_state(d, config.state, k))
                    assert got == brute_factor_suffix_ends(x, y[:j], k)
                    if prev is not None:
                        assert prev <= got
                    prev = got


class TestEndposContains:
    def test_example_membership(self):
        d, a = build_str(EX1_X)
        ag = state_of(d, a, "ag")
        assert 5 in endpos_positions(d, ag)
        assert 3 not in endpos_positions(d, ag)

    def test_whole_pattern(self):
        d, a = build_str("a")
        assert 1 in endpos_positions(d, state_of(d, a, "a"))


def test_dump_golden():
    d, a = build_str("ab")
    assert dump(d, a).splitlines() == [
        "0 -> 1 [a]",
        "0 -> 2 [b]",
        "1 -> 2 [b]",
        "suf 1 -> 0",
        "suf 2 -> 0",
    ]
    d, a = build_str("a")
    assert dump(d, a) == "0 -> 1 [a]\nsuf 1 -> 0"
