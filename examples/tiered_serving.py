"""Two-tier module storage with capacity limits and eviction (paper §4.1).

Run:  python examples/tiered_serving.py

A constrained "GPU" tier (fits only a few modules) backed by a large
"CPU" tier: hot modules stay device-resident, cold ones spill to host
memory and pay the copy path on use. Prints hit rates and byte usage —
the serving-system behaviour the paper sketches as future work (§6).
"""

from repro import build_model, small_config
from repro.cache.engine import PromptCache
from repro.cache.storage import ModuleCacheStore
from repro.pml.chat import PLAIN_TEMPLATE
from repro.tokenizer import default_tokenizer

N_DOCS = 10


def build_schema() -> str:
    body = "".join(
        f'<module name="doc{i}">document {i} discusses topic {i} in useful '
        "detail with several paragraphs of background material and notes "
        "that make the module realistically sized . </module>"
        for i in range(N_DOCS)
    )
    return f'<schema name="library">{body}</schema>'


def main() -> None:
    tok = default_tokenizer()
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)

    # Size the GPU tier to hold roughly 3 of the 10 documents.
    probe = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    probe.register_schema(build_schema())
    per_module = probe.store.gpu.used_bytes // (N_DOCS + 1)

    store = ModuleCacheStore(gpu_capacity_bytes=3 * per_module + 1024)
    pc = PromptCache(model, tok, store=store, template=PLAIN_TEMPLATE)
    pc.register_schema(build_schema(), eager=False)

    # Zipf-ish access pattern: doc0 is hot, the tail is cold.
    accesses = [0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 5, 0, 6, 1, 0, 7, 0, 8, 0, 9, 1, 0]
    for doc in accesses:
        pc.serve(f'<prompt schema="library"><doc{doc}/> summarize .</prompt>', max_new_tokens=2)

    print(f"GPU tier: {len(store.gpu.keys())} modules, {store.gpu.used_bytes/1e6:.1f} MB used")
    print(f"  hits {store.gpu.stats.hits}, misses {store.gpu.stats.misses} "
          f"(hit rate {100*store.gpu.stats.hit_rate:.0f}%), evictions {store.gpu.stats.evictions}")
    print(f"CPU tier: {len(store.cpu.keys())} modules, {store.cpu.used_bytes/1e6:.1f} MB used")
    hot = [k.module for k in store.gpu.keys()]
    print(f"device-resident after the run (LRU keeps the hot set): {hot}")


if __name__ == "__main__":
    main()
