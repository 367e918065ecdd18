"""The four workloads: schemas, prompts and arrival times from one seed.

The program under test sees only the generated schemas and prompts. The
same seed gives the same schemas, the same request list and the same
arrival schedule; another seed gives other text, another order and other
arrival offsets, with the same proportions.

Proportions are exact, not sampled: classes (schema, raw or PML, decode
budget) are dealt from shuffled blocks, and open-loop arrivals are
Poisson arrivals conditioned on the count per second. A run therefore
differs from the next by which request meets which, not by how many of
each kind it drew — the run-to-run spread of a tail percentile is that of
the system, not of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORDS = (
    "harbor ferry service notes the crossing waits for tickets deck weather "
    "bundle night train upper closes heavy free charge bay museum cafe garden "
    "market square bridge station local express granite lantern meadow orchid "
    "timber copper quarry willow ember summit delta river stone window letter "
    "paper silver winter morning"
).split()


@dataclass(frozen=True)
class Schema:
    name: str
    source: str
    snapshot_backed: bool = False


@dataclass(frozen=True)
class Request:
    number: int
    kind: str  # "pml" or "text"
    prompt: str
    max_new_tokens: int


@dataclass(frozen=True)
class StoreShape:
    """Fabric byte budgets, in units of one schema's resident KV."""

    fast_schemas: float
    dram_schemas: float


@dataclass(frozen=True)
class Phase:
    """One timed window. ``share`` is its part of ``--seconds``."""

    name: str
    mode: str  # "open" or "closed"
    share: float
    rate: float = 0.0  # open: requests per second
    clients: int = 0  # closed: concurrent callers
    warmup_s: float = 0.0  # open: untimed lead-in
    warmup_requests: int = 0  # closed: untimed first requests
    max_rate: float = 0.0  # closed: requests generated per second of window


@dataclass
class Workload:
    name: str
    schemas: list[Schema]
    phases: list[Phase]
    discovery: bool = False
    store: StoreShape | None = None
    deal: object = None  # callable(rng, count, first_number) -> list[Request]
    ready_requests: list[Request] = field(default_factory=list)


class Text:
    """Word soup measured in tokens.

    The tokenizer splits on whitespace before merging, so the token count
    of a text is the sum over its words; counting each word once lets the
    generator size thousands of prompts without encoding them.
    """

    def __init__(self, count_tokens) -> None:
        self._word_tokens = np.array([count_tokens(" " + w) for w in WORDS])

    def words(self, rng: np.random.Generator, n_tokens: int) -> str:
        """Words totalling at least ``n_tokens`` tokens, overshooting by
        less than one word."""
        mean = float(self._word_tokens.mean())
        picks = rng.integers(0, len(WORDS), size=int(n_tokens / mean * 1.5) + 8)
        totals = np.cumsum(self._word_tokens[picks])
        upto = int(np.searchsorted(totals, n_tokens)) + 1
        return " ".join(WORDS[i] for i in picks[:upto])


def dealt(rng: np.random.Generator, quotas: dict, count: int) -> list:
    """``count`` labels in shuffled blocks holding exactly ``quotas`` each."""
    block = [label for label, n in quotas.items() for _ in range(n)]
    out: list = []
    while len(out) < count:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:count]


def arrival_offsets(rng: np.random.Generator, rate: float, seconds: float) -> list[float]:
    """Due times of an open loop: in every second exactly ``rate``
    arrivals at uniform offsets — a Poisson process conditioned on its
    count per second."""
    per_second = int(rate)
    offsets: list[float] = []
    for second in range(int(np.ceil(seconds))):
        offsets.extend(second + np.sort(rng.random(per_second)))
    return [t for t in offsets if t < seconds]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _tag(number: int) -> str:
    return f"#r{number:06d}"


# -- mix --------------------------------------------------------------------------
# The canonical trace: every layer does a moderate share; the number a
# user would quote.

MIX_SCHEMAS = 6
MIX_MODULE_TOKENS = 192
MIX_PREAMBLES = 3
MIX_PREAMBLE_TOKENS = 256
MIX_SUFFIX_TOKENS = 24
MIX_FAQ_PER_SCHEMA = 4
# Per block of 80 requests: 60 PML with Zipf(1) schema popularity, 20 raw
# text; 64 short (8) and 16 long (64) decode budgets; a quarter of the PML
# requests repeat a frequent question verbatim (the compiled-plan cache's
# hit class), the rest are unique.
MIX_SCHEMA_QUOTA = {0: 24, 1: 12, 2: 8, 3: 6, 4: 5, 5: 5}
MIX_KIND_QUOTA = {"pml": 60, "text": 20}
MIX_BUDGET_QUOTA = {8: 64, 64: 16}
MIX_REPEAT_QUOTA = {"faq": 1, "unique": 3}
MIX_OPEN_RATE = 16.0


def _mix(seed: int, text: Text) -> Workload:
    rng = _rng(seed, 0)
    schemas = []
    for i in range(MIX_SCHEMAS):
        first = (
            f'<module name="a">{text.words(rng, MIX_MODULE_TOKENS // 2)} guest '
            f'<param name="who" len="6"/> {text.words(rng, MIX_MODULE_TOKENS // 2)}'
            "</module>"
        )
        if i == MIX_SCHEMAS - 1:
            second = "<union>" + "".join(
                f'<module name="{name}">{text.words(rng, MIX_MODULE_TOKENS)}</module>'
                for name in ("b1", "b2")
            ) + "</union>"
        else:
            second = f'<module name="b">{text.words(rng, MIX_MODULE_TOKENS)}</module>'
        schemas.append(Schema(f"mix{i}", f'<schema name="mix{i}">{first}{second}</schema>'))
    preambles = [text.words(rng, MIX_PREAMBLE_TOKENS) for _ in range(MIX_PREAMBLES)]
    faqs = [
        [text.words(rng, MIX_SUFFIX_TOKENS) for _ in range(MIX_FAQ_PER_SCHEMA)]
        for _ in range(MIX_SCHEMAS)
    ]

    def pml(schema: int, who: str, second: str, body: str) -> str:
        return (
            f'<prompt schema="mix{schema}"><a who="{who}"/><{second}/> {body} ?</prompt>'
        )

    def deal(rng: np.random.Generator, count: int, first_number: int) -> list[Request]:
        kinds = dealt(rng, MIX_KIND_QUOTA, count)
        budgets = dealt(rng, MIX_BUDGET_QUOTA, count)
        schema_of = dealt(rng, MIX_SCHEMA_QUOTA, count)
        repeats = dealt(rng, MIX_REPEAT_QUOTA, count)
        requests = []
        for i in range(count):
            number = first_number + i
            if kinds[i] == "text":
                preamble = int(rng.integers(MIX_PREAMBLES))
                prompt = (
                    f"{preambles[preamble]} {_tag(number)} "
                    f"{text.words(rng, MIX_SUFFIX_TOKENS)} ?"
                )
            else:
                schema = schema_of[i]
                second = "b" if schema < MIX_SCHEMAS - 1 else ("b1", "b2")[number % 2]
                if repeats[i] == "faq":
                    body = faqs[schema][int(rng.integers(MIX_FAQ_PER_SCHEMA))]
                    who = "one"
                else:
                    body = f"{_tag(number)} {text.words(rng, MIX_SUFFIX_TOKENS)}"
                    who = WORDS[int(rng.integers(len(WORDS)))]
                prompt = pml(schema, who, second, body)
            requests.append(Request(number, kinds[i], prompt, budgets[i]))
        return requests

    ready = [
        Request(-1 - i, "pml", pml(i, "one", "b" if i < MIX_SCHEMAS - 1 else "b1", "ready"), 2)
        for i in range(MIX_SCHEMAS)
    ]
    return Workload(
        name="mix",
        schemas=schemas,
        discovery=True,
        deal=deal,
        ready_requests=ready,
        phases=[
            Phase("open", "open", share=0.65, rate=MIX_OPEN_RATE, warmup_s=1.0),
            Phase("sat", "closed", share=0.35, clients=16, warmup_requests=32, max_rate=120),
        ],
    )


# -- shared_decode ----------------------------------------------------------------
# Decode-bound at a high share factor: the batched decode forward and the
# scheduler loop do the work, the cache plane next to none.

SHARED_MODULE_TOKENS = 512
SHARED_SUFFIX_TOKENS = 8
SHARED_BUDGET_QUOTA = {16: 1, 64: 3}


def _shared_decode(seed: int, text: Text) -> Workload:
    rng = _rng(seed, 1)
    schemas = [
        Schema(
            f"hot{i}",
            f'<schema name="hot{i}"><module name="m">'
            f"{text.words(rng, SHARED_MODULE_TOKENS)}</module></schema>",
        )
        for i in range(2)
    ]

    def deal(rng: np.random.Generator, count: int, first_number: int) -> list[Request]:
        schema_of = dealt(rng, {0: 1, 1: 1}, count)
        budgets = dealt(rng, SHARED_BUDGET_QUOTA, count)
        return [
            Request(
                first_number + i, "pml",
                f'<prompt schema="hot{schema_of[i]}"><m/> {_tag(first_number + i)} '
                f"{text.words(rng, SHARED_SUFFIX_TOKENS)} ?</prompt>",
                budgets[i],
            )
            for i in range(count)
        ]

    ready = [
        Request(-1 - i, "pml", f'<prompt schema="hot{i}"><m/> ready ?</prompt>', 2)
        for i in range(2)
    ]
    return Workload(
        name="shared_decode",
        schemas=schemas,
        deal=deal,
        ready_requests=ready,
        phases=[Phase("closed", "closed", share=1.0, clients=16, warmup_requests=32, max_rate=80)],
    )


# -- tier_churn -------------------------------------------------------------------
# The cache plane under capacity pressure, writes beside reads: 12 schemas
# through a fabric whose tiers hold about 5; ten page in from a snapshot,
# two are re-encoded after every eviction.

CHURN_SCHEMAS = 12
CHURN_UNBACKED = 2
CHURN_MODULE_TOKENS = 256
CHURN_SUFFIX_TOKENS = 8
CHURN_DECODE_TOKENS = 2


def _tier_churn(seed: int, text: Text) -> Workload:
    rng = _rng(seed, 2)
    schemas = [
        Schema(
            f"t{i:02d}",
            f'<schema name="t{i:02d}">'
            f'<module name="a">{text.words(rng, CHURN_MODULE_TOKENS)}</module>'
            f'<module name="b">{text.words(rng, CHURN_MODULE_TOKENS)}</module>'
            "</schema>",
            snapshot_backed=i >= CHURN_UNBACKED,
        )
        for i in range(CHURN_SCHEMAS)
    ]

    def prompt(schema: int, body: str) -> str:
        return f'<prompt schema="t{schema:02d}"><a/><b/> {body} ?</prompt>'

    def deal(rng: np.random.Generator, count: int, first_number: int) -> list[Request]:
        schema_of = dealt(rng, {i: 1 for i in range(CHURN_SCHEMAS)}, count)
        return [
            Request(
                first_number + i, "pml",
                prompt(
                    schema_of[i],
                    f"{_tag(first_number + i)} {text.words(rng, CHURN_SUFFIX_TOKENS)}",
                ),
                CHURN_DECODE_TOKENS,
            )
            for i in range(count)
        ]

    ready = [
        Request(-1 - i, "pml", prompt(i, "ready"), 2) for i in range(CHURN_SCHEMAS)
    ]
    return Workload(
        name="tier_churn",
        schemas=schemas,
        store=StoreShape(fast_schemas=2.2, dram_schemas=3.3),
        deal=deal,
        ready_requests=ready,
        phases=[Phase("closed", "closed", share=1.0, clients=4, warmup_requests=24, max_rate=250)],
    )


# -- unshared_text ----------------------------------------------------------------
# The bypass: nothing is shared, every request pays full prefill, the trie
# only inserts. A reuse optimisation predicts no change here.

UNSHARED_PROMPT_TOKENS = 256
UNSHARED_DECODE_TOKENS = 8


def _unshared_text(seed: int, text: Text) -> Workload:
    def deal(rng: np.random.Generator, count: int, first_number: int) -> list[Request]:
        return [
            Request(
                first_number + i, "text",
                f"{_tag(first_number + i)} {text.words(rng, UNSHARED_PROMPT_TOKENS)} ?",
                UNSHARED_DECODE_TOKENS,
            )
            for i in range(count)
        ]

    ready = [Request(-1, "text", "ready ?", 2)]
    return Workload(
        name="unshared_text",
        schemas=[],
        discovery=True,
        deal=deal,
        ready_requests=ready,
        phases=[Phase("closed", "closed", share=1.0, clients=4, warmup_requests=8, max_rate=60)],
    )


BUILDERS = {
    "mix": _mix,
    "shared_decode": _shared_decode,
    "tier_churn": _tier_churn,
    "unshared_text": _unshared_text,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, count_tokens) -> Workload:
    return BUILDERS[name](seed, Text(count_tokens))


def phase_requests(
    workload: Workload, phase: Phase, seed: int, seconds: float, part: int = 0
) -> tuple[list[Request], list[float]]:
    """The request list of one phase and, for an open loop, its due times
    (seconds from the start of the phase, warm-up included). ``part``
    draws another list for a second window of the same phase."""
    index = workload.phases.index(phase)
    rng = _rng(seed, 100 + 10 * part + index)
    window = seconds * phase.share
    first_number = index * 1_000_000 + part * 100_000
    if phase.mode == "open":
        dues = arrival_offsets(rng, phase.rate, phase.warmup_s + window)
        return workload.deal(rng, len(dues), first_number), dues
    count = phase.warmup_requests + int(phase.max_rate * window) + phase.clients
    return workload.deal(rng, count, first_number), []
