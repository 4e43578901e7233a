"""E3 (§V.B.3) — O(1) server-side search.

Paper claim: *"The design of the lookup table T … exploits the algorithm
in [30] and enables S-server to return the desired PHI files in O(1)
time."*  We time one search against collections of increasing size: the
per-search latency must stay flat (it depends on the hit-list length, not
on N).  The ablation compares the FKS table against a plain dict.
"""

import pytest

from repro.crypto.rng import HmacDrbg
from repro.sse.fks import FksTable
from repro.sse.index import SecureIndex, clear_index_cache, load_index_cached
from repro.sse.scheme import Sse1Scheme, keygen


def _uniform_index(n_keywords: int):
    """n keywords, exactly one file each — isolates table-lookup cost."""
    rng = HmacDrbg(b"uniform%d" % n_keywords)
    scheme = Sse1Scheme(keygen(rng))
    keyword_map = {"kw-%06d" % i: [rng.random_bytes(16)]
                   for i in range(n_keywords)}
    index = scheme.build_index(keyword_map, rng)
    return scheme, index


@pytest.mark.parametrize("n_keywords", [100, 1000, 4000])
def test_search_latency_flat(benchmark, n_keywords):
    scheme, index = _uniform_index(n_keywords)
    trapdoor = scheme.trapdoor("kw-%06d" % (n_keywords // 2))

    fids = benchmark(lambda: index.search(trapdoor))
    assert len(fids) == 1
    benchmark.extra_info["n_keywords"] = n_keywords
    benchmark.extra_info["claim"] = "O(1): latency flat across sizes"


@pytest.mark.parametrize("backend", ["fks", "dict"])
def test_lookup_backend_ablation(benchmark, backend):
    """Ablation: FKS vs plain dict for T (both O(1); FKS has the
    worst-case guarantee the paper cites)."""
    rng = HmacDrbg(b"ablation")
    entries = {rng.randint(0, 1 << 120): rng.random_bytes(24)
               for _ in range(2000)}
    keys = list(entries)
    probe = keys[len(keys) // 2]
    if backend == "fks":
        table = FksTable.build(entries, rng)
        result = benchmark(lambda: table.get(probe))
    else:
        result = benchmark(lambda: entries.get(probe))
    assert result == entries[probe]
    benchmark.extra_info["backend"] = backend


def test_search_cost_tracks_result_size(benchmark):
    """Search walks the hit list: cost is O(|results|), not O(N)."""
    rng = HmacDrbg(b"hits")
    scheme = Sse1Scheme(keygen(rng))
    keyword_map = {"big": [rng.random_bytes(16) for _ in range(50)],
                   "small": [rng.random_bytes(16)]}
    keyword_map.update({"filler-%d" % i: [rng.random_bytes(16)]
                        for i in range(500)})
    index = scheme.build_index(keyword_map, rng)
    trapdoor = scheme.trapdoor("big")

    fids = benchmark(lambda: index.search(trapdoor))
    assert len(fids) == 50
    benchmark.extra_info["result_files"] = len(fids)


@pytest.mark.parametrize("mode", ["cold", "cached"])
def test_index_deserialization_cache(benchmark, mode):
    """`SecureIndex.from_bytes` on every search vs the blob-hash cache."""
    rng = HmacDrbg(b"bench-index-cache")
    scheme = Sse1Scheme(keygen(rng))
    keyword_map = {"kw-%04d" % i: [rng.random_bytes(16)] for i in range(200)}
    blob = scheme.build_index(keyword_map, rng).to_bytes()
    clear_index_cache()
    if mode == "cold":
        loaded = benchmark(lambda: SecureIndex.from_bytes(blob))
    else:
        load_index_cached(blob)  # warm the cache once
        loaded = benchmark(lambda: load_index_cached(blob))
    trapdoor = scheme.trapdoor("kw-0100")
    assert len(loaded.search(trapdoor)) == 1
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["blob_bytes"] = len(blob)
