"""E8 (§2): wCache serves multiple queries from shared window batches.

"wCache acts as an index for answering efficiently equality constraints
on the time column ... [it] will then produce results to multiple
queries accessing different streams."  Ablation: N queries reading the
same windowed stream with a shared cache (one materialisation) vs
private caches (N materialisations).

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""


from repro.streams import SharedWindowReader, WindowCache, WindowSpec

ROWS = [(float(t), t % 50, float(t % 13)) for t in range(3_000)]
SPEC = WindowSpec(30, 10)
NUM_QUERIES = 12


def _shared_run() -> WindowCache:
    cache = WindowCache(capacity=4096)
    readers = [
        SharedWindowReader("S", iter(list(ROWS)), SPEC, 0, cache)
        if i == 0
        else None
        for i in range(1)
    ]
    reader = readers[0]
    # query 0 materialises; queries 1..N-1 hit the cache
    last = 0
    for batch in reader.all_windows():
        last = batch.window_id
    for _ in range(NUM_QUERIES - 1):
        for window_id in range(last + 1):
            assert cache.get("S", window_id) is not None
    return cache


def _private_run() -> list[WindowCache]:
    caches = []
    for _ in range(NUM_QUERIES):
        cache = WindowCache(capacity=4096)
        reader = SharedWindowReader("S", iter(list(ROWS)), SPEC, 0, cache)
        for _ in reader.all_windows():
            pass
        caches.append(cache)
    return caches


def test_shared_cache(benchmark):
    cache = benchmark(_shared_run)
    assert cache.stats.hit_rate > 0.85
    materialised_once = cache.stats.materialised_tuples
    assert materialised_once > 0


def test_private_caches(benchmark):
    caches = benchmark(_private_run)
    total = sum(c.stats.materialised_tuples for c in caches)
    single = caches[0].stats.materialised_tuples
    assert total == single * NUM_QUERIES  # N-fold duplicated work


def test_sharing_saves_materialisation():
    shared = _shared_run()
    private = _private_run()
    shared_tuples = shared.stats.materialised_tuples
    private_tuples = sum(c.stats.materialised_tuples for c in private)
    print(
        f"\nshared: {shared_tuples} tuples materialised; "
        f"private: {private_tuples} ({private_tuples // shared_tuples}x)"
    )
    assert private_tuples == NUM_QUERIES * shared_tuples
