"""Independent reference implementations used only by tests.

Each oracle recomputes a contract a different way than the package does
(plain-python recursion instead of vectorized DP, exhaustive enumeration
instead of pruned search) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from streamdec.core import ContractViolation
from streamdec.decoder import BeamConfig, BeamHypothesis


def wer_oracle(ref, hyp):
    """Edit alignment counts via memoized recursion over prefixes.

    Tie-break contract shared with the package metric: on equal total cost
    prefer match/substitution, then deletion, then insertion.
    Returns (substitutions, deletions, insertions).
    """
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def cost(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            cost(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            cost(i - 1, j) + 1,
            cost(i, j - 1) + 1,
        )

    subs = dels = inss = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        c = cost(i, j)
        if i > 0 and j > 0 and c == cost(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and c == cost(i - 1, j) + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return int(subs), dels, inss


def beam_oracle(model, enc, cfg):
    """Exhaustive search over every token sequence the beam could return.

    Enumerates all sequences of generable tokens up to the length cap; a
    sequence shorter than the cap is terminal with the EOS log-prob added,
    one at the cap is terminal as-is. Returns the ranked (tokens, score)
    list under the package's tie-break (higher score first, then smaller
    token tuple).
    """
    vocab = model.vocab
    gen_ids = [
        i
        for i in range(len(vocab))
        if i not in (vocab.pad_id, vocab.bos_id, vocab.eos_id)
    ]
    max_total = int(cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9)
    terminals = []
    for length in range(0, max_total + 1):
        for seq in itertools.product(gen_ids, repeat=length):
            state, lps = model.dec_init(enc)
            score = 0.0
            for tok in seq:
                score += float(lps[tok])
                state, lps = model.dec_advance(state, tok, enc)
            if length < max_total:
                score += float(lps[vocab.eos_id])
            terminals.append((seq, score))
    terminals.sort(key=lambda t: (-t[1], t[0]))
    return terminals


def _rank_key(h: BeamHypothesis, length_normalize: bool):
    score = h.log_prob
    if length_normalize:
        score = score / max(1, len(h.tokens))
    return (-score, h.tokens)


def scalar_beam_search(
    model,
    enc,
    forced_prefix,
    cfg: BeamConfig = BeamConfig(),
    seed: BeamHypothesis | None = None,
) -> list[BeamHypothesis]:
    """Reference for decoder.beam_search: the same search, advancing each
    kept child with its own dec_advance call and ranking one Python tuple per
    candidate instead of one batched call and one sort per beam step.

    Every hypothesis passes through the forced prefix exactly; the search
    never keeps more than beam_width live paths, never extends any path past
    cap_tokens_per_sec * available audio seconds, and stops once the best
    finished path provably beats every live one (token log-probs are
    non-positive, so extensions never raise a score). Ties rank the smaller
    token-id sequence first.
    """
    vocab = model.vocab
    prefix = tuple(int(t) for t in forced_prefix)
    if any(t == vocab.eos_id for t in prefix):
        raise ContractViolation("forced prefix must not contain eos")
    if enc is None or enc.frames_covered == 0:
        return [
            BeamHypothesis(prefix, 0.0, (0.0,) * len(prefix), True, None)
        ]
    max_total = math.floor(
        cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9
    )

    if (
        seed is not None
        and seed.tokens == prefix
        and seed.state is not None
        and model.state_covers(seed.state, enc)
    ):
        root = replace(seed, finished=False)
        logps = model.dec_logits(seed.state, enc)
    else:
        state, logps = model.dec_init(enc)
        score = 0.0
        steps: list[float] = []
        for tok in prefix:
            score += float(logps[tok])
            steps.append(float(logps[tok]))
            state, logps = model.dec_advance(state, tok, enc)
        root = BeamHypothesis(prefix, score, tuple(steps), False, state)

    if len(root.tokens) >= max_total:
        return [replace(root, finished=True)]

    gen_ids = [i for i in range(len(vocab)) if i not in (vocab.pad_id, vocab.bos_id, vocab.eos_id)]
    active: list[tuple[BeamHypothesis, np.ndarray]] = [(root, logps)]
    finished: list[BeamHypothesis] = []
    while active:
        if finished:
            best_fin = max(f.log_prob for f in finished)
            best_act = max(h.log_prob for h, _ in active)
            if best_fin > best_act:
                break
        candidates: list[tuple[float, tuple[int, ...], BeamHypothesis, int, float]] = []
        for hyp, lps in active:
            # the finished path keeps its state (after its last real token)
            # so a later chunk can resume from it
            finished.append(
                replace(
                    hyp,
                    log_prob=hyp.log_prob + float(lps[vocab.eos_id]),
                    finished=True,
                )
            )
            for tok in gen_ids:
                lp = float(lps[tok])
                candidates.append(
                    (hyp.log_prob + lp, hyp.tokens + (tok,), hyp, tok, lp)
                )
        finished.sort(key=lambda h: _rank_key(h, False))
        del finished[max(cfg.beam_width, 1):]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        new_active: list[tuple[BeamHypothesis, np.ndarray]] = []
        for score, toks, parent, tok, lp in candidates[: cfg.beam_width]:
            state, lps = model.dec_advance(parent.state, tok, enc)
            child = BeamHypothesis(
                toks, score, parent.step_log_probs + (lp,), False, state
            )
            if len(child.tokens) >= max_total:
                finished.append(replace(child, finished=True))
            else:
                new_active.append((child, lps))
        active = new_active
    result = finished + [h for h, _ in active]
    result.sort(key=lambda h: _rank_key(h, cfg.length_normalize))
    return result[: max(cfg.beam_width, 1)]


def mean_or_none(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else None
