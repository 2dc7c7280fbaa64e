import numpy as np
import pytest
from scipy.stats import chi2

from patternblocks import rng
from patternblocks.cli import main
from patternblocks.rng import HAND_OUT, ROUND, UniformSource

_MASK64 = (1 << 64) - 1


class ScalarXoshiro:
    """xoshiro256** one word at a time on masked Python ints, seeded like
    UniformSource: the oracle the numpy lanes are checked against."""

    def __init__(self, seed: int):
        s = seed & _MASK64
        self.state = []
        for _ in range(4):
            s, word = rng._splitmix64(s)
            self.state.append(word)

    def next_word(self) -> int:
        s0, s1, s2, s3 = self.state
        x = (s1 * 5) & _MASK64
        result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self.state = [s0, s1, s2, s3]
        return result

    def next_unit(self) -> float:
        return (self.next_word() >> 11) * 2.0**-53


# Reference words of xoshiro256** seeded with splitmix64: output index ->
# the words from there on. Generated by a C transcription of Blackman &
# Vigna's public-domain xoshiro256starstar.c and splitmix64.c (state words
# are four successive splitmix64 outputs from seed mod 2**64), compiled
# with gcc 12.2 on x86-64 Linux. Indices 65,536 and 131,072 start the
# second and third 65,536-word rounds of UniformSource.
REFERENCE_WORDS = {
    0: {
        0: [
            0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0,
            0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59, 0xffef8375d9ebcaca,
            0x6c160deed2f54c98, 0x8920ad648fc30a3f, 0xdb032c0ba7539731,
            0xeb3a475a3e749a3d, 0x1d42993fa43f2a54, 0x11361bf526a14bb5,
            0x1b4f07a5ab3d8e9c, 0xa7a3257f6986db7f, 0x7efdaa95605dfc9c,
            0x4bde97c0a78eaab8,
        ],
        65530: [
            0x38da7b3a71c308ed, 0x508a6d7c94d3af1f, 0xb41224b204706be6,
            0x8c8e390d232aaaf0, 0xc20f513b487c8354, 0xb964b6e992c82af4,
            0x97fcd825ff06d88b, 0x7098deabd7dc8be7, 0x2628817fffc7dec2,
            0xd6f1050a008ef028, 0x582db564fad0a219, 0xbddd182a47c1774c,
        ],
        131066: [
            0x018522f5a698dfd9, 0x4c3712ed7d224c15, 0x65897fa99933249b,
            0x68c943652f4f595a, 0x60ebf0bc5c4b152d, 0x0c403f8e76721d83,
            0x22fa8c863f05d498, 0xc77d0a9a9eda005e, 0x266679d92240c367,
            0xba5a754631221767, 0x5934dde4b7445eb2, 0x1536ee09ab9f5f46,
        ],
        1000000: [
            0x98a6256f4e9f5aa2,
        ],
    },
    42: {
        0: [
            0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1,
            0xecb8ad4703b360a1, 0xfde6dc7fe2ec5e64, 0xc50da53101795238,
            0xb82154855a65ddb2, 0xd99a2743ebe60087, 0xc2e96e726e97647e,
            0x9556615f775fbc3d, 0xaeb53b340c103971, 0x4a69db9873af8965,
            0xcd0feda93006c6b6, 0x52480865a4b42742, 0xb60dec3bf2d887cd,
            0xe0b55a68b96677fa,
        ],
        65530: [
            0x69373f50dfba4b5a, 0x3ec1364169e39e6d, 0x6543b5cde9a86416,
            0xbf20b8fdba29eff2, 0x21e45e623b0a95df, 0x611fbd55c7efaa53,
            0xe1aa65d2448ad205, 0x912d459a5dc3f987, 0x6e04b9b6352e5423,
            0x6dae32b818d06902, 0x58ce2649cadf045f, 0x052185b45f6a03df,
        ],
        131066: [
            0x8306df78ea3ad47d, 0x990e51e8ce3a36aa, 0xe1bec07aa6f7a2ff,
            0xd1fedb329d4d2d0f, 0xdf09f14d5e2688ef, 0x8e3dfef5b2bea43e,
            0x401073c1a75c855a, 0xe11788a174216994, 0x6ba3b3b3aa2f7404,
            0x96c5bc72f79afa3a, 0x6dedc060aee46307, 0x947d4d1b00b7dd33,
        ],
        1000000: [
            0xd54e2a37b20bde45,
        ],
    },
    -5: {
        0: [
            0x7a01d79fc1d93784, 0x49fa730f02634930, 0xaa956e386e3c896b,
            0x02d84ef396b5715e, 0xd1e99f0e84775f4c, 0xde5e5eb06fd97608,
            0xd0e10e2623620db3, 0x904c50cf1e37e3c8, 0xe16c84323fdb7857,
            0x8ef9623667c00298, 0x5ccd8540c3929131, 0x06a30802ee9e78a4,
            0xf01bd57cb7810b22, 0xddbc754a3e556c21, 0x5a476ca57e326236,
            0xf4ae25182ea9718e,
        ],
        65530: [
            0x37756648f0c5598f, 0xbcce7c613c642328, 0xf892964b3e263372,
            0x0e67c1f1089bbe7c, 0xad210c1e868a8370, 0x90814b7bab4bdb2e,
            0xd1cf3517cd892000, 0xce4bae785667d1af, 0xaf7e12d031f0ecd4,
            0x4bc1c1479f2eb15e, 0x4ce46ff6e2410bca, 0xcd388487c9f30c93,
        ],
        131066: [
            0xe0e8f81bd2b0188c, 0x3f943a6f569c605b, 0xd6d5ade84fa7844b,
            0x2a5bf0994fe441b1, 0xbf1a48af331fdc19, 0x627b1a049311db33,
            0xe5718be374e10e9f, 0x51a46c3a96a13d51, 0xf76aa2e8854ddf5c,
            0x6fba74435375d8f3, 0x728beeb81dcf0b4b, 0x1e7a619529d5fec0,
        ],
        1000000: [
            0x6ad9261ea2608dfb,
        ],
    },
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_WORDS))
def test_reference_vectors(seed):
    oracle = ScalarXoshiro(seed)
    assert [oracle.next_word() for _ in range(16)] == REFERENCE_WORDS[seed][0]
    source = UniformSource(seed)
    draws = [source.next_unit() for _ in range(1_000_001)]
    for start, words in REFERENCE_WORDS[seed].items():
        expected = [(w >> 11) * 2.0**-53 for w in words]
        assert draws[start : start + len(words)] == expected, start


@pytest.mark.parametrize("seed", [0, -5, 2**64 - 1, 2**70 + 3])
def test_lanes_match_scalar_oracle(seed):
    source = UniformSource(seed)
    oracle = ScalarXoshiro(seed)
    n = 200_000  # three whole rounds and part of a fourth
    assert [source.next_unit() for _ in range(n)] == [oracle.next_unit() for _ in range(n)]


def test_draw_counter_across_hand_outs_and_rounds():
    source = UniformSource(11)
    assert source.draws_issued == 0
    marks = {1, HAND_OUT - 1, HAND_OUT, HAND_OUT + 1, ROUND, ROUND + 1, ROUND + HAND_OUT}
    for k in range(1, max(marks) + 1):
        source.next_unit()
        if k in marks:
            assert source.draws_issued == k


def test_no_generator_work_before_the_first_draw(capsys):
    # `sample --n 0` measures the CLI's set-up cost: it must build no jump matrix
    rng._jumps.cache_clear()
    rng._round_table.cache_clear()
    source = UniformSource(3)
    assert main(["sample", "--dist", "half-normal-zigg", "--n", "0"]) == 0
    capsys.readouterr()
    assert rng._jumps.cache_info().currsize == 0
    assert source._units is None
    source.next_unit()
    assert rng._jumps.cache_info().currsize == 1


@pytest.fixture(scope="module")
def million_draws():
    source = UniformSource(12345)
    return np.array([source.next_unit() for _ in range(1_000_000)])


def test_same_seed_same_sequence():
    a = UniformSource(42)
    b = UniformSource(42)
    assert [a.next_unit() for _ in range(1000)] == [b.next_unit() for _ in range(1000)]


def test_different_seeds_differ():
    a = UniformSource(1)
    b = UniformSource(2)
    xs = [a.next_unit() for _ in range(1000)]
    ys = [b.next_unit() for _ in range(1000)]
    assert xs != ys


def test_range_contract(million_draws):
    assert million_draws.min() >= 0.0
    assert million_draws.max() < 1.0


def test_uniform_mean(million_draws):
    assert abs(million_draws.mean() - 0.5) < 0.002


def test_uniform_quantile(million_draws):
    assert abs(np.mean(million_draws < 0.25) - 0.25) < 0.002


def test_draw_counter():
    source = UniformSource(7)
    for _ in range(3):
        source.next_unit()
    assert source.draws_issued == 3


def test_equidistribution_chi_square(million_draws):
    counts, _ = np.histogram(million_draws, bins=100, range=(0.0, 1.0))
    expected = len(million_draws) / 100
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, 99) > 0.001
