import random

import pytest

from translocsearch.dp import DpColumns, dp_search
from translocsearch.oracle import naive_search

from helpers import (
    EX2_X,
    EX2_Y,
    EX3_X,
    EX3_Y,
    bits,
    brute_common_suffix,
    encode_pair,
    f_set,
    f_value,
    p_value,
    prefix_match_cell,
    rand_str,
)


def run_columns(x: str, y: str, upto: int | None = None) -> DpColumns:
    pat, txt = encode_pair(x, y)
    masks = pat.symbol_masks()
    cols = DpColumns(pat.length)
    stop = upto if upto is not None else txt.length
    for code in txt.codes[:stop]:
        cols.push(masks.get(code, 0))
    return cols


class TestSearch:
    def test_known_two_swap_match(self):
        pat, txt = encode_pair(EX2_X, EX2_Y)
        assert dp_search(pat, txt) == [12]

    def test_exact_match(self):
        pat, txt = encode_pair("abc", "abc")
        assert dp_search(pat, txt) == [3]

    def test_single_pair_swap(self):
        pat, txt = encode_pair("ab", "ba")
        assert dp_search(pat, txt) == [2]

    def test_unequal_length_swap(self):
        # "bca" arises from "abc" by swapping "a" with "bc"
        pat, txt = encode_pair("abc", "bca")
        assert dp_search(pat, txt) == [3]

    def test_pattern_longer_than_text(self):
        pat, txt = encode_pair("abc", "ab")
        assert dp_search(pat, txt) == []

    def test_empty_pattern_rejected(self):
        pat, txt = encode_pair("", "abc")
        with pytest.raises(ValueError, match="empty pattern"):
            dp_search(pat, txt)


class TestCommonSuffixTable:
    def test_example_threshold_sets(self):
        cols = run_columns(EX3_X, EX3_Y, upto=5)
        assert bits(f_set(cols, 5, 3)) == {3, 7, 13}
        assert bits(f_set(cols, 5, 2)) == {3, 7, 10, 13}
        # nesting of the threshold sets
        assert bits(f_set(cols, 5, 3)) <= bits(f_set(cols, 5, 2))

    def test_lengths_match_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 8))
            y = rand_str(rng, sigma, rng.randint(0, 12))
            pat, txt = encode_pair(x, y)
            masks = pat.symbol_masks()
            cols = DpColumns(pat.length)
            for j, code in enumerate(txt.codes, start=1):
                cols.push(masks.get(code, 0))
                for i in range(len(x) + 1):
                    assert f_value(cols, i, j) == brute_common_suffix(x, y, i, j)

    def test_thresholds_encode_lengths(self):
        # i is in the level-k set exactly when F[i,j] >= k
        cols = run_columns(EX3_X, EX3_Y)
        j = cols.pos
        col = [f_value(cols, i, j) for i in range(cols.m + 1)]
        for k in range(1, max(col) + 1):
            assert bits(f_set(cols, j, k)) == {
                i for i, v in enumerate(col) if v >= k
            }


class TestPrefixCell:
    def test_row_one_needs_equal_symbols_only(self):
        # condition (b) needs h, k >= 1 with h+k <= i, impossible at i=1
        cols = run_columns("ab", "ba", upto=2)
        assert prefix_match_cell(cols, 1, 2, 0, 0) is True  # x[1]='a'=y[2]
        assert prefix_match_cell(cols, 1, 2, 0, 1) is False

    def test_hand_evaluated_swap(self):
        # x="ab", y="ba", i=2, j=2: h=k=1 with F[1,2]>=1, F[2,1]>=1, P[0,0]
        cols = run_columns("ab", "ba", upto=2)
        assert f_value(cols, 1, 2) >= 1
        assert f_value(cols, 2, 1) >= 1
        assert prefix_match_cell(cols, 2, 2, 1, 0) is True

    def test_identity_chain(self):
        cols = run_columns("abc", "abc")
        assert prefix_match_cell(cols, 3, 3, 2, 2) is True

    def test_sentinel_row_always_true(self):
        cols = run_columns("abc", "xx")
        for j in (1, 2):
            assert p_value(cols, 0, j) is True
            assert prefix_match_cell(cols, 0, j, 0, 0) is True

    def test_cell_recurrence_agrees_with_column_engine(self):
        rng = random.Random(13)
        for _ in range(30):
            x = rand_str(rng, 2, rng.randint(1, 8))
            y = rand_str(rng, 2, rng.randint(0, 12))
            pat, txt = encode_pair(x, y)
            masks = pat.symbol_masks()
            cols = DpColumns(pat.length)
            for j, code in enumerate(txt.codes, start=1):
                cols.push(masks.get(code, 0))
                for i in range(1, len(x) + 1):
                    expected = prefix_match_cell(
                        cols, i, j, pat.codes[i - 1], code
                    )
                    assert p_value(cols, i, j) == expected, (x, y, i, j)


class TestRingBuffer:
    def test_matches_full_matrix_reference(self):
        def full_matrix_search(x: str, y: str) -> list[int]:
            m, n = len(x), len(y)
            F = [[0] * (n + 1) for _ in range(m + 1)]
            P = [[False] * (n + 1) for _ in range(m + 1)]
            for j in range(n + 1):
                P[0][j] = True
            for j in range(1, n + 1):
                for i in range(1, m + 1):
                    if x[i - 1] == y[j - 1]:
                        F[i][j] = F[i - 1][j - 1] + 1
                        if P[i - 1][j - 1]:
                            P[i][j] = True
                    if not P[i][j]:
                        for k in range(1, i):
                            for h in range(1, i - k + 1):
                                if (
                                    F[i - k][j] >= h
                                    and j - h >= 0
                                    and F[i][j - h] >= k
                                    and j - h - k >= 0
                                    and P[i - h - k][j - h - k]
                                ):
                                    P[i][j] = True
                                    break
                            if P[i][j]:
                                break
            return [j for j in range(1, n + 1) if P[m][j]]

        rng = random.Random(17)
        for _ in range(25):
            sigma = rng.choice([2, 4])
            x = rand_str(rng, sigma, rng.randint(1, 6))
            y = rand_str(rng, sigma, rng.randint(0, 40))
            pat, txt = encode_pair(x, y)
            assert dp_search(pat, txt) == full_matrix_search(x, y), (x, y)

    def test_columns_out_of_window_rejected(self):
        cols = run_columns("ab", "abababab")
        with pytest.raises(IndexError):
            p_value(cols, 1, cols.pos - cols.m - 1)


def test_agrees_with_enumeration_oracle():
    rng = random.Random(29)
    for _ in range(250):
        sigma = rng.choice([2, 4])
        x = rand_str(rng, sigma, rng.randint(1, 8))
        y = rand_str(rng, sigma, rng.randint(len(x), 20))
        pat, txt = encode_pair(x, y)
        assert dp_search(pat, txt) == naive_search(pat, txt), (x, y)
