"""Seeded synthetic parallel corpus for the text retrieval workload.

Every document is one draw from a topic model over shared concepts.  Each
language renders a concept with its own token (its "translation") and
drops a few concept tokens independently, then adds noise tokens from a
vocabulary that only that language uses.  The concept part is what the
views share; the noise part is what a row-group penalty should learn to
ignore.
"""

from __future__ import annotations

import numpy as np

# three languages: three views, so every view pair has a distinct partner
LANGUAGES = 3
# concepts under a few topics, drawn Zipf-like within each topic, give a
# long-tailed vocabulary like real text; 2 000 concepts per language and
# 3 000 noise words fill a 2^16-slot hash space sparsely
CONCEPTS = 2000
TOPICS = 12
NOISE_VOCAB = 3000
# mean concept and noise tokens per document: short documents, with
# noise a third of the text, so the penalty has columns to switch off
CONCEPT_LEN = 20.0
NOISE_LEN = 8.0
# a small Dirichlet concentration makes most documents mostly one topic
ALPHA = 0.2
# share of concept tokens each language drops on its own: translations
# that differ a little, so no view is an exact copy of another
DROP = 0.1


def make_corpus(seed: int, docs: int) -> list[list[list[str]]]:
    """Return ``corpus[language][document]`` as lists of token strings.

    Documents with the same index are translations of each other.  Token
    strings are shared objects, so a large corpus stays small in memory.
    """
    rng = np.random.default_rng(seed)
    zipf = 1.0 / np.arange(1, CONCEPTS + 1) ** 1.1
    topic_cdf = np.cumsum(np.stack(
        [zipf[rng.permutation(CONCEPTS)] for _ in range(TOPICS)]), axis=1)
    topic_cdf /= topic_cdf[:, -1:]

    mix_cdf = np.cumsum(rng.dirichlet(np.full(TOPICS, ALPHA), size=docs),
                        axis=1)
    lengths = rng.poisson(CONCEPT_LEN, size=docs) + 1
    owner = np.repeat(np.arange(docs), lengths)
    token_topic = (rng.random(owner.size)[:, None]
                   > mix_cdf[owner]).sum(axis=1).clip(max=TOPICS - 1)
    concept_ids = np.empty(owner.size, dtype=np.int64)
    for t in range(TOPICS):
        mine = np.flatnonzero(token_topic == t)
        concept_ids[mine] = np.searchsorted(topic_cdf[t],
                                            rng.random(mine.size))
    concept_ids = concept_ids.clip(max=CONCEPTS - 1)
    doc_concepts = np.split(concept_ids, np.cumsum(lengths)[:-1])

    noise_cdf = np.cumsum(1.0 / np.arange(1, NOISE_VOCAB + 1))
    noise_cdf /= noise_cdf[-1]
    corpus = []
    for lang in range(LANGUAGES):
        concept_words = np.array([f"w{lang}c{c}" for c in range(CONCEPTS)],
                                 dtype=object)
        noise_words = np.array([f"w{lang}n{j}" for j in range(NOISE_VOCAB)],
                               dtype=object)
        noise_lengths = rng.poisson(NOISE_LEN, size=docs)
        noise_ids = np.searchsorted(noise_cdf,
                                    rng.random(noise_lengths.sum())).clip(
                                        max=NOISE_VOCAB - 1)
        doc_noise = np.split(noise_ids, np.cumsum(noise_lengths)[:-1])
        rendered = []
        for ids, extra in zip(doc_concepts, doc_noise):
            kept = ids[rng.random(ids.size) >= DROP]
            rendered.append(concept_words[kept].tolist()
                            + noise_words[extra].tolist())
        corpus.append(rendered)
    return corpus
