"""Batched serving with module sharing (paper §3.4).

Run:  python examples/batch_serving.py

Twelve concurrent requests over the same cached document are served via
``PromptCache.serve_batch``: one physical copy of the module's attention
states, which every request's fork reads by reference, plus a private
tail per request for its suffix and generated tokens. Outputs are
identical to serving each request alone; memory is a fraction of the
duplicated footprint — the mechanism behind the paper's "larger working
batch size and thus higher throughput" argument.
"""

from repro import PromptCache, build_model, small_config
from repro.pml.chat import PLAIN_TEMPLATE
from repro.tokenizer import default_tokenizer

DOC = (
    "harbor ferry service notes : the ferry crosses the bay every forty "
    "minutes from dawn to midnight . bicycles travel free of charge . the "
    "last crossing waits for the night train . tickets are cheaper in "
    "bundles of ten . the upper deck closes in heavy weather . "
) * 4


def main() -> None:
    tok = default_tokenizer()
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(f'<schema name="ferry"><module name="faq">{DOC}</module></schema>')

    prompts = [
        f'<prompt schema="ferry"><faq/> customer {i} asks about the service .</prompt>'
        for i in range(12)
    ]
    batch = pc.serve_batch(prompts, max_new_tokens=6)

    solo = pc.serve(prompts[0], max_new_tokens=6)
    print(f"requests:                {len(batch)}")
    print(f"shared module groups:    {batch.shared_groups}")
    print(f"physical KV bytes:       {batch.physical_bytes / 1e6:6.1f} MB")
    print(f"duplicated KV bytes:     {batch.duplicated_bytes / 1e6:6.1f} MB")
    print(f"memory saved by sharing: {100 * batch.memory_savings:.0f}%")
    print(f"outputs match solo path: {batch.results[0].output_ids == solo.output_ids}")


if __name__ == "__main__":
    main()
