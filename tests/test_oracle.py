import random

import pytest

from translocsearch.oracle import NAIVE_LIMIT, enumerate_images, naive_search

from helpers import EX2_X, EX2_Y, image_count_bound, rand_str


REFUSAL = "naive engine refuses patterns longer than 12"


def images_of(s: str) -> set[str]:
    return {"".join(img) for img in enumerate_images(s)}


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

    def test_pattern_over_limit_refused(self):
        assert NAIVE_LIMIT == 12
        with pytest.raises(ValueError, match=REFUSAL):
            enumerate_images("abcdefghijklm")

    def test_longest_accepted_pattern_enumerates_every_image(self):
        s = "abcdefghijkl"
        assert len(enumerate_images(s)) == 10_252

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            enumerate_images("")

    def test_very_long_pattern_refused_at_once(self):
        with pytest.raises(ValueError, match=REFUSAL):
            enumerate_images("acgt" * 275)


class TestNaiveSearch:
    @pytest.mark.parametrize(
        "text", ["", "abc", "abcdefghijklm" * 2], ids=["empty", "shorter", "longer"]
    )
    def test_pattern_over_limit_refused_whatever_the_text(self, text):
        with pytest.raises(ValueError, match=REFUSAL):
            naive_search("abcdefghijklm", text)

    def test_known_two_swap_match(self):
        assert naive_search(EX2_X, EX2_Y) == [12]

    def test_both_orientations_found(self):
        assert naive_search("ab", "abba") == [2, 4]

    def test_disjoint_alphabets(self):
        assert naive_search("ab", "cc") == []

    def test_pattern_matches_itself_at_end(self):
        rng = random.Random(8)
        for _ in range(30):
            s = rand_str(rng, rng.choice([2, 4]), rng.randint(1, 8))
            assert len(s) in naive_search(s, s)


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
