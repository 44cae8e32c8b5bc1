import random

import pytest

from translocsearch.oracle import (
    ImageExplosionError,
    enumerate_images,
    image_count_bound,
    naive_search,
)
from translocsearch.seqcore import encode, infer_alphabet

from helpers import EX2_X, EX2_Y, encode_pair, rand_str


def images_of(s: str) -> set[str]:
    alphabet = infer_alphabet(s)
    seq = encode(s, alphabet)
    return {
        "".join(alphabet.symbols[c] for c in img)
        for img in enumerate_images(seq)
    }


class TestEnumeration:
    def test_two_characters(self):
        assert images_of("ab") == {"ab", "ba"}

    def test_three_distinct_characters(self):
        assert images_of("abc") == {"abc", "bac", "acb", "bca", "cab"}

    def test_single_character(self):
        assert images_of("a") == {"a"}

    def test_contains_pattern_itself(self):
        rng = random.Random(2)
        for _ in range(30):
            s = rand_str(rng, rng.choice([2, 4]), rng.randint(1, 8))
            assert s in images_of(s)

    def test_images_preserve_symbol_multiset(self):
        rng = random.Random(4)
        for _ in range(30):
            s = rand_str(rng, rng.choice([2, 4]), rng.randint(1, 8))
            for img in images_of(s):
                assert sorted(img) == sorted(s)
                assert len(img) == len(s)

    def test_single_swap_is_symmetric(self):
        rng = random.Random(6)
        for _ in range(40):
            s = rand_str(rng, 4, rng.randint(2, 8))
            m = len(s)
            start = rng.randrange(m - 1)
            split = rng.randrange(start + 1, m)
            end = rng.randrange(split + 1, m + 1)
            z, w = s[start:split], s[split:end]
            swapped = s[:start] + w + z + s[end:]
            assert swapped in images_of(s)
            assert s in images_of(swapped)

    def test_cap_exceeded_raises(self):
        seq = encode("abcdef", infer_alphabet("abcdef"))
        with pytest.raises(ImageExplosionError, match="image explosion"):
            enumerate_images(seq, cap=10)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            enumerate_images(encode("", infer_alphabet("")))

    def test_long_pattern_hits_cap_not_recursion_limit(self):
        seq = encode("acgt" * 275, infer_alphabet("acgt"))
        with pytest.raises(ImageExplosionError, match="image explosion"):
            enumerate_images(seq, cap=1000)


class TestNaiveSearch:
    def test_known_two_swap_match(self):
        pat, txt = encode_pair(EX2_X, EX2_Y)
        assert naive_search(pat, txt).end_positions == (12,)

    def test_both_orientations_found(self):
        pat, txt = encode_pair("ab", "abba")
        assert naive_search(pat, txt).end_positions == (2, 4)

    def test_disjoint_alphabets(self):
        pat, txt = encode_pair("ab", "cc")
        assert naive_search(pat, txt).end_positions == ()

    def test_pattern_matches_itself_at_end(self):
        rng = random.Random(8)
        for _ in range(30):
            s = rand_str(rng, rng.choice([2, 4]), rng.randint(1, 8))
            pat, txt = encode_pair(s, s)
            assert len(s) in naive_search(pat, txt).end_positions


class TestCountBound:
    def test_small_values(self):
        assert image_count_bound(4) == [1, 1, 2, 4, 9]

    def test_three_to_power_bound(self):
        table = image_count_bound(21)
        for i in range(21):
            assert table[i + 1] <= 3**i

    def test_enumeration_respects_power_bound(self):
        for length in range(1, 9):
            s = "abcdefghij"[:length]
            assert len(images_of(s)) <= 3 ** (length - 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            image_count_bound(-1)
