"""Seeded serving workloads with planted answers.

A workload is a sequence of *rounds*.  Round ``r`` of workload ``w`` under
seed ``s`` is a pure function of ``(w, s, r)``: a list of
:class:`repro.serving.Request` with Poisson arrivals drawn by
:func:`repro.serving.poisson_workload`, the token prompt of every request,
and the answer planted in it.  The engine only ever sees the generated
requests and, through :class:`PromptBook`, their prompts.

Why each workload exists is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv

from repro.serving import Request, poisson_workload
from repro.tasks.base import PromptBuilder
from repro.tasks.needle import make_needle_case
from repro.vocab import DEFAULT_VOCAB

#: Workload prompt lengths are paper-scale; the engine executes
#: ``prompt_len // LENGTH_SCALE`` tokens (``runner.ENGINE_KWARGS`` passes it).
LENGTH_SCALE = 4

#: KV paging granularity of the engine (its ``block_tokens`` default); the
#: shared documents are a whole number of blocks so followers adopt all of
#: them.
BLOCK_TOKENS = 32

#: Request ids of round ``r`` are ``r * ROUND_ID_STRIDE + i``.
ROUND_ID_STRIDE = 10_000

#: Shared-document followers arrive after this virtual-clock offset, far
#: beyond any primer's completion.  The engine skips idle gaps, so the
#: offset costs no wall time; it makes "every primer finishes before any
#: follower arrives" hold by construction.
FOLLOWER_OFFSET_S = 1_000.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``rate_per_s`` is the Poisson arrival rate on the engine's virtual
    clock (busy seconds on the recording host); ``ttft_slo_s`` and
    ``itl_slo_s`` are the per-request limits ``slo_attainment`` counts.
    ``round_s`` is the nominal busy time of one round on the recording
    host, which turns a run's ``--seconds`` into a fixed round count.
    """

    name: str
    requests_per_round: int
    round_s: float
    rate_per_s: float
    decode_tokens: int
    ttft_slo_s: float
    itl_slo_s: float


#: Rates are 2-4% of saturated capacity on the recording host: under
#: heavier load the latency percentiles spread across seeds by more than
#: any usable bound (see ``NOTES.md``).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="longctx_needle",
            requests_per_round=26,
            round_s=9.0,
            rate_per_s=0.1,
            decode_tokens=8,
            ttft_slo_s=2.0,
            itl_slo_s=0.025,
        ),
        Workload(
            name="chat_decode",
            requests_per_round=25,
            round_s=5.5,
            rate_per_s=0.2,
            decode_tokens=64,
            ttft_slo_s=0.2,
            itl_slo_s=0.008,
        ),
        Workload(
            name="shared_doc",
            requests_per_round=62,
            round_s=12.5,
            rate_per_s=0.1,
            decode_tokens=16,
            ttft_slo_s=0.25,
            itl_slo_s=0.025,
        ),
    )
}

#: Documents per shared_doc round; each one's first question is its primer.
SHARED_DOCS = 2
#: Facts planted per shared document.
SHARED_FACTS = 8
#: Shared-document length in KV blocks (2048 executed tokens).  Fixed, so
#: a follower's cost does not vary with the seed.
SHARED_DOC_BLOCKS = 64


@dataclass(frozen=True)
class Round:
    """One engine run's worth of traffic."""

    requests: list[Request]
    prompts: dict[int, np.ndarray]
    answers: dict[int, tuple[int, ...]]


def _rng(workload: Workload, seed: int, round_index: int, stream: str):
    key = zlib.crc32(f"{workload.name}/{stream}".encode())
    return np.random.default_rng((seed, round_index, key))


def _arrivals(workload: Workload, rng, n: int) -> list[float]:
    """``n`` Poisson arrival times conditioned on landing in the round's
    window ``[0, n / rate)``.

    Draws ``n + 1`` arrivals from :func:`repro.serving.poisson_workload`
    and rescales by the window over the ``(n+1)``-th arrival time, which
    gives exactly the arrival times of a Poisson process conditioned on
    ``n`` events in the window (uniform order statistics).  So each round
    offers exactly the workload's rate, and runs differ by how arrivals
    cluster, not by how many happened to arrive.
    """
    reqs = poisson_workload(
        rng,
        rate_per_s=workload.rate_per_s,
        duration_s=(2 * n + 50) / workload.rate_per_s,
        prompt_lens=(1,),
        decode_tokens=workload.decode_tokens,
    )
    if len(reqs) <= n:  # probability far below 1e-9
        raise RuntimeError(f"{workload.name}: drew {len(reqs)} <= {n} arrivals")
    stretch = n / workload.rate_per_s / reqs[n].arrival
    return [r.arrival * stretch for r in reqs[:n]]


def make_round(workload: Workload | str, seed: int, round_index: int) -> Round:
    """Round ``round_index`` of ``workload`` under ``seed`` (pure)."""
    if isinstance(workload, str):
        workload = WORKLOADS[workload]
    if workload.name == "shared_doc":
        return _shared_doc_round(workload, seed, round_index)
    return _needle_round(workload, seed, round_index)


#: Golden-ratio step of the needle-depth sequence.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _needle_geometry(workload: Workload, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Executed prompt lengths and needle depths of a round's ``n`` prompts.

    The same for every seed and round: one length at the midpoint of each
    ``1/n`` quantile slice of the workload's distribution (lognormal long
    prompts or uniform short ones), each paired with a depth in
    ``[0.1, 0.9)`` along a golden-ratio sequence, which covers the
    (length, depth) square evenly.  The seed decides which arrival gets
    which pair, the haystack and the needle.  So runs differ by content and
    timing, not by the luck of a length or depth draw: that luck moved
    ``needle_accuracy`` by more than its bound from seed to seed.
    """
    u = (np.arange(n) + 0.5) / n
    if workload.name == "longctx_needle":
        raw = 1024.0 * np.exp(0.45 * np.sqrt(2.0) * erfinv(2.0 * u - 1.0))
        lens = np.clip(np.round(raw), 512, 4096).astype(int)
    else:
        lens = (64 + np.floor(449 * u)).astype(int)
    depths = 0.1 + 0.8 * ((np.arange(n) + 0.5) * _GOLDEN % 1.0)
    return lens, depths


def _needle_round(workload: Workload, seed: int, round_index: int) -> Round:
    rng = _rng(workload, seed, round_index, "arrivals")
    arrivals = _arrivals(workload, rng, workload.requests_per_round)
    lens, depths = _needle_geometry(workload, len(arrivals))
    order = _rng(workload, seed, round_index, "order").permutation(len(arrivals))
    prompt_rng = _rng(workload, seed, round_index, "prompts")
    requests, prompts, answers = [], {}, {}
    for i, (arrival, n, depth) in enumerate(
        zip(arrivals, lens[order], depths[order])
    ):
        rid = round_index * ROUND_ID_STRIDE + i
        case = make_needle_case(int(n), float(depth), rng=prompt_rng)
        requests.append(
            Request(
                rid,
                arrival,
                int(case.prompt.size) * LENGTH_SCALE,
                workload.decode_tokens,
            )
        )
        prompts[rid] = case.prompt
        answers[rid] = tuple(case.answer)
    return Round(requests, prompts, answers)


def _shared_document(rng) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """A block-aligned document with ``SHARED_FACTS`` keyed facts."""
    vocab = DEFAULT_VOCAB
    length = BLOCK_TOKENS * SHARED_DOC_BLOCKS
    keys = rng.choice(vocab.entity_ids, size=SHARED_FACTS, replace=False)
    values = rng.choice(vocab.value_ids, size=2 * SHARED_FACTS, replace=False)
    builder = PromptBuilder(vocab, rng, length)
    facts = {}
    for j, key in enumerate(keys):
        v = (int(values[2 * j]), int(values[2 * j + 1]))
        facts[int(key)] = v
        depth = (j + float(rng.uniform(0.1, 0.9))) / SHARED_FACTS
        builder.add_segment(
            depth, [vocab.FACT_SEP, int(key), *v, vocab.FACT_SEP], name=f"f{j}"
        )
    doc, _ = builder.build()
    return doc, facts


def _shared_doc_round(workload: Workload, seed: int, round_index: int) -> Round:
    doc_rng = _rng(workload, seed, round_index, "documents")
    docs = [_shared_document(doc_rng) for _ in range(SHARED_DOCS)]
    pick = _rng(workload, seed, round_index, "questions")
    followers = _arrivals(
        workload,
        _rng(workload, seed, round_index, "arrivals"),
        workload.requests_per_round - SHARED_DOCS,
    )
    # Primers (one per document) arrive at t=0; followers ask about a
    # seeded document after FOLLOWER_OFFSET_S.
    schedule = [(0.0, d) for d in range(SHARED_DOCS)] + [
        (FOLLOWER_OFFSET_S + t, int(pick.integers(SHARED_DOCS)))
        for t in followers
    ]
    requests, prompts, answers = [], {}, {}
    for i, (arrival, d) in enumerate(schedule):
        doc, facts = docs[d]
        key = int(pick.choice(sorted(facts)))
        prompt = np.concatenate(
            [doc, np.asarray([DEFAULT_VOCAB.QUERY, key], dtype=np.int64)]
        )
        rid = round_index * ROUND_ID_STRIDE + i
        requests.append(
            Request(
                rid, arrival, int(prompt.size) * LENGTH_SCALE,
                workload.decode_tokens,
            )
        )
        prompts[rid] = prompt
        answers[rid] = facts[key]
    return Round(requests, prompts, answers)


class PromptBook:
    """The engine's ``prompt_builder``: serves the loaded round's prompts.

    The engine calls ``book(request, executed_len)``; the prompt was
    generated with exactly ``executed_len`` tokens, which is checked so a
    length mismatch (and a mis-sized KV arena) cannot pass silently.
    """

    def __init__(self) -> None:
        self.prompts: dict[int, np.ndarray] = {}

    def load(self, rnd: Round) -> None:
        self.prompts = rnd.prompts

    def __call__(self, request: Request, executed_len: int) -> np.ndarray:
        prompt = self.prompts[request.request_id]
        if prompt.size != executed_len:
            raise ValueError(
                f"request {request.request_id}: prompt has {prompt.size} "
                f"tokens, engine expects {executed_len}"
            )
        return prompt
