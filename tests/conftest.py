"""Shared fixtures: toy corpora, a trained tokenizer, small encoder configs.

Everything here is session-scoped where construction is slow (tokenizer
training, parameter init) and function-scoped where mutation is possible.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from lusoforge.corpus import Document
from lusoforge.encoder import init_params, preset
from lusoforge.tokenizer import train_tokenizer


@pytest.fixture(scope="session")
def numpy_openblas():
    """numpy's bundled OpenBLAS, or None where this process has not loaded it."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split(None, 5)[-1].strip() for line in f
                        if "libscipy_openblas64_" in line})
    lib = ctypes.CDLL(paths[0]) if paths else None
    return lib if hasattr(lib, "scipy_openblas_get_num_threads64_") else None


@pytest.fixture(autouse=True)
def _blas_threads_restored(numpy_openblas):
    """`finetune` and `eval` pin OpenBLAS to one thread for the rest of their
    process, and the tests run them in this one: each test ends at the
    thread count it started with, so no test runs under another's pin."""
    if numpy_openblas is None:
        yield
        return
    before = numpy_openblas.scipy_openblas_get_num_threads64_()
    yield
    numpy_openblas.scipy_openblas_set_num_threads64_(before)


def synthetic_sentences(n: int, seed: int, n_words: int = 64) -> list[str]:
    rng = np.random.default_rng(seed)
    words = ["w%02d" % i for i in range(n_words)]
    return [
        " ".join(rng.choice(words, size=rng.integers(12, 20)))
        for _ in range(n)
    ]


@pytest.fixture(scope="session")
def toy_sentences() -> list[str]:
    return synthetic_sentences(32, seed=123)


@pytest.fixture(scope="session")
def toy_tokenizer(toy_sentences):
    return train_tokenizer(toy_sentences, vocab_size=256)


@pytest.fixture(scope="session")
def micro_config(toy_tokenizer):
    return preset("micro", vocab_size=toy_tokenizer.vocab_size)


@pytest.fixture(scope="session")
def micro_params_frozen(micro_config):
    rng = np.random.default_rng(np.random.SeedSequence(99))
    return init_params(micro_config, rng)


@pytest.fixture
def micro_params(micro_params_frozen):
    # fresh copies so tests can mutate without cross-talk
    return {k: v.data.copy() for k, v in micro_params_frozen.items()}


def random_words(n: int, seed: int, min_len: int = 5, max_len: int = 10) -> list[str]:
    """Diverse lowercase words; numbered stems would share character
    n-grams and trip the repetition filters."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return [
        "".join(rng.choice(letters, size=rng.integers(min_len, max_len + 1)))
        for _ in range(n)
    ]


def make_documents(counts: dict[str, int], seed: int = 5) -> list[Document]:
    """Corpus fixture builder: `counts` docs per source, each long enough
    to clear every quality filter."""
    rng = np.random.default_rng(seed)
    words = random_words(400, seed=seed + 1)
    docs = []
    k = 0
    for source, n in counts.items():
        for _ in range(n):
            body = " ".join(rng.choice(words, size=60))
            docs.append(
                Document(
                    id="doc-%04d" % k,
                    text=body,
                    source=source,
                    url="https://example.pt/%d" % k,
                )
            )
            k += 1
    return docs


@pytest.fixture
def golden_documents() -> list[Document]:
    return make_documents({"OSCAR": 15, "DCEP": 20, "Europarl": 31, "ParlamentoPT": 34})
