"""Unit tests for the blockcipher workload's algebra and graph."""

import numpy as np
import pytest

from repro.workloads.blockcipher import (
    CipherReference,
    build_cipher_graph,
    derive_env,
    inv_mix_bytes,
    mix_bytes,
    sub_byte,
    sub_bytes,
    xtime,
)

from oracles import run_functional


class TestByteAlgebra:
    def test_xtime_matches_aes_examples(self):
        # Known GF(2^8) doublings (AES MixColumns arithmetic).
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47
        assert xtime(0x47) == 0x8E
        assert xtime(0x8E) == 0x07

    def test_sub_byte_is_invertible(self):
        seen = {sub_byte(x) for x in range(256)}
        assert len(seen) == 256  # a bijection over bytes

    def test_sub_bytes_vector_matches_scalar(self):
        block = np.arange(256, dtype=np.uint8)
        expected = np.array([sub_byte(int(b)) for b in block], dtype=np.uint8)
        assert np.array_equal(sub_bytes(block), expected)

    def test_mix_round_trips(self):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 256, 16, dtype=np.uint8)
        assert np.array_equal(inv_mix_bytes(mix_bytes(block)), block)

    def test_env_inverse_table(self):
        env = derive_env(8, key_seed=1, rotation=3)
        block = np.arange(256, dtype=np.uint8)
        assert np.array_equal(env.inv_sub[sub_bytes(block)], block)


class TestReferenceAndGraph:
    def test_reference_round_trips_every_block(self):
        env = derive_env(16, key_seed=5, rotation=3)
        model = CipherReference(env)
        rng = np.random.default_rng(11)
        for __ in range(5):
            block = rng.integers(0, 256, 16, dtype=np.uint8)
            ok, mismatches = model.recognize(block)
            assert ok and mismatches == 0

    def test_reference_detects_corruption(self):
        # A corrupted inverse-substitution table must break the
        # round-trip for every byte — the CHECK sink sees it.
        env = derive_env(8, key_seed=5, rotation=1)
        corrupted = env.__class__(k0=env.k0, k1=env.k1,
                                  inv_sub=np.roll(env.inv_sub, 1),
                                  rotation=env.rotation,
                                  block_words=env.block_words)
        block = np.arange(8, dtype=np.uint8)
        ok, mismatches = CipherReference(corrupted).recognize(block)
        assert not ok and mismatches == 8

    def test_graph_matches_reference_functionally(self):
        env = derive_env(8, key_seed=2, rotation=3)
        graph = build_cipher_graph(env)
        block = np.arange(8, dtype=np.uint8)
        results = run_functional(graph, {"SOURCE": [block]})
        assert results["CHECK"] == [CipherReference(env).recognize(block)]

    def test_graph_shape(self):
        env = derive_env(8, key_seed=2, rotation=3)
        graph = build_cipher_graph(env)
        assert len(graph.tasks) == 12
        assert {t.name for t in graph.sources()} == {"SOURCE"}
        assert {t.name for t in graph.sinks()} == {"CHECK"}

    def test_block_words_validation(self):
        from repro.api import CampaignSpec

        with pytest.raises(ValueError, match="block_words"):
            CampaignSpec(workload="blockcipher", params={"block_words": 7})
