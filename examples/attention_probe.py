"""Peek inside the model: the induction head that answers questions.

Run:  python examples/attention_probe.py
      (train weights first: python benchmarks/train_table1_models.py)

Loads the trained recall model, asks it a question whose answer lives in a
*cached prompt module*, and prints where the final prompt token actually
attends — demonstrating (1) the trained induction-style retrieval
mechanism and (2) that it operates unchanged across Prompt Cache's module
boundary: the suffix token reaches straight into spliced-in cached states.
"""

from pathlib import Path

import numpy as np

from repro.cache.engine import PromptCache, _arena_splice
from repro.datasets.corpus import SyntheticCorpus
from repro.llm.config import trained_config
from repro.llm.introspect import attention_trace, induction_score
from repro.llm.models import TransformerModel
from repro.llm.weights import load_params
from repro.pml.chat import PLAIN_TEMPLATE
from repro.tokenizer import default_tokenizer

WEIGHTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "weights"


def main() -> None:
    tok = default_tokenizer()
    weights = sorted(WEIGHTS_DIR.glob("llama2-7b-mini-*.npz"))
    if not weights:
        print("train first: python benchmarks/train_table1_models.py")
        return
    cfg = trained_config("llama2-7b-mini", vocab_size=tok.vocab_size)
    model = TransformerModel(cfg, load_params(weights[-1]))

    corpus = SyntheticCorpus(seed=77)
    doc = corpus.document("probe", n_words=60, n_facts=3)
    fact = doc.facts[1]
    print(f"document fact: {fact.statement()!r}")
    print(f"question:      {fact.completion()!r}\n")

    # Serve through Prompt Cache: the document is a cached module; trace
    # the suffix (question) forward pass.
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(
        f'<schema name="probe"><module name="doc">{doc.text}</module></schema>'
    )
    resolved = pc._resolve(f'<prompt schema="probe"><doc/> {fact.completion()}</prompt>')
    registered = pc.schemas["probe"]
    plan = pc._plan(resolved, registered)
    records = pc._gather_module_records(registered, plan, True)
    cache = _arena_splice(model.config, pc._module_kvs(records))
    suffix_ids = np.concatenate([t for t, _ in plan.uncached])
    suffix_pos = np.concatenate([p for _, p in plan.uncached])
    logits, trace = attention_trace(model, suffix_ids, suffix_pos, cache)

    # Where is the answer in the module?
    layout = registered.layout.module("doc")
    doc_ids = list(layout.token_ids)
    value_ids = tok.encode(f" {fact.value}")
    start = next(
        i for i in range(len(doc_ids)) if doc_ids[i : i + len(value_ids)] == value_ids
    )
    fact_positions = {int(layout.positions[start + j]) for j in range(len(value_ids))}

    answer = tok.token_of(int(np.argmax(logits[-1])))
    print(f"model answers: {answer!r} (expected {fact.value!r})")
    for layer in range(trace.n_layers):
        top = trace.top_attended(layer, query_index=-1, k=3)
        marks = [
            f"pos {p}{' <-- answer token' if p in fact_positions else ''} ({w:.2f})"
            for p, w in top
        ]
        print(f"layer {layer} top attention from the final prompt token: " + "; ".join(marks))
    score = induction_score(trace, fact_positions)
    print(f"\nattention mass on the answer tokens (best layer): {score:.2f}")
    print("the suffix token reaches across the module boundary into cached states")


if __name__ == "__main__":
    main()
