"""The int-code layer as the benchmark in ``perfbench`` reads it:
`infer_alphabet`, `encode` (a foreign symbol's code is the alphabet's
size), `Alphabet.size`, and `Sequence.codes`, `.length` and
`.symbol_masks()`.  No search uses it."""
import random

import pytest

from translocsearch.seqcore import (
    Alphabet,
    Sequence,
    encode,
    infer_alphabet,
)

from helpers import LETTERS, rand_str


def test_infer_alphabet_order_of_first_appearance():
    assert infer_alphabet("aggga") == ("a", "g")
    assert infer_alphabet("agcagccag") == ("a", "g", "c")
    assert infer_alphabet("") == ()
    assert infer_alphabet("").size == 0


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_encode_direct_lookup():
    agct = Alphabet(("a", "g", "c", "t"))
    assert encode("aggga", agct).codes == (0, 1, 1, 1, 0)


def test_encode_unknown_maps_to_sentinel():
    agct = Alphabet(("a", "g", "c", "t"))
    seq = encode("agN", agct)
    assert seq.codes == (0, 1, 4)
    assert agct.size == 4


def test_encode_empty():
    assert encode("", Alphabet(("a",))).codes == ()
    assert encode("", Alphabet(("a",))).length == 0


def test_roundtrip_and_injectivity_random():
    rng = random.Random(7)
    for _ in range(200):
        sigma = rng.randint(1, 12)
        s = rand_str(rng, sigma, rng.randint(0, 40))
        alphabet = infer_alphabet(LETTERS[:sigma])
        seq = encode(s, alphabet)
        assert "".join(alphabet[c] for c in seq.codes) == s
        # injectivity on alphabet characters
        codes = encode(LETTERS[:sigma], alphabet).codes
        assert len(set(codes)) == sigma


def test_symbol_masks_are_one_based():
    seq = encode("aba", Alphabet(("a", "b")))
    masks = seq.symbol_masks()
    assert masks[0] == (1 << 1) | (1 << 3)
    assert masks[1] == 1 << 2


def test_sequence_length():
    assert Sequence((1, 0, 1)).length == 3
