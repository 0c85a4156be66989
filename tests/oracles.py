"""Independent reference implementations used only by tests.

Each oracle recomputes a contract a different way than the package does
(plain-python recursion instead of vectorized DP, exhaustive enumeration
instead of pruned search) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from streamdec.core import ContractViolation
from streamdec.decoder import BeamConfig, BeamHypothesis
from streamdec.model import UNIDIRECTIONAL
from streamdec.transformer import (
    _heads,
    _ln_np,
    _merge,
    _softmax_np,
    sinusoid_table,
)


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


def token_walk(model, enc, prefix):
    """Reference for dec_init(enc, prefix): start from the empty prefix and
    consume the prefix one token per dec_advance(state, [0], [tok], enc)
    call. Returns the one-row state after the whole prefix and the
    (len(prefix) + 1, vocab) log-probabilities seen along the way."""
    state, lps = model.dec_init(enc)
    rows = [lps[0]]
    for tok in prefix:
        state, lps = model.dec_advance(state, [0], [int(tok)], enc)
        rows.append(lps[0])
    return state, np.array(rows)


def decode_step(model, enc, prefix):
    """Next-token log-probabilities after forcing prefix, by token_walk."""
    return token_walk(model, enc, prefix)[1][-1]


def beam_oracle(model, enc, cfg):
    """Exhaustive search over every token sequence the beam could return.

    Enumerates all sequences of generable tokens up to the length cap; a
    sequence shorter than the cap is terminal with the EOS log-prob added,
    one at the cap is terminal as-is. Returns the (tokens, score) list
    ranked under the configured objective (score, or score per token when
    cfg.length_normalize) with the package's tie-break: higher objective
    first, then smaller token tuple.
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
            _, lps = token_walk(model, enc, seq)
            score = 0.0
            for j, tok in enumerate(seq):
                score += float(lps[j, tok])
            if length < max_total:
                score += float(lps[-1, vocab.eos_id])
            terminals.append((seq, score))
    if cfg.length_normalize:
        terminals.sort(key=lambda t: (-t[1] / max(1, len(t[0])), t[0]))
    else:
        terminals.sort(key=lambda t: (-t[1], t[0]))
    return terminals


def _objective(h: BeamHypothesis, length_normalize: bool) -> float:
    if length_normalize:
        return h.log_prob / max(1, len(h.tokens))
    return h.log_prob


def _rank_key(h: BeamHypothesis, length_normalize: bool):
    return (-_objective(h, length_normalize), h.tokens)


def scalar_beam_search(
    model,
    enc,
    forced_prefix,
    cfg: BeamConfig = BeamConfig(),
) -> list[BeamHypothesis]:
    """Reference for decoder.beam_search: the same search, carrying each
    path's own decoder state beside it, advancing each kept child with its
    own one-row dec_advance call and ranking one Python tuple per candidate
    instead of one batched call and one sort per beam step. The forced
    prefix is walked token by token (token_walk), not prefilled.

    Every hypothesis passes through the forced prefix exactly; the search
    never keeps more than beam_width live paths, never extends any path past
    cap_tokens_per_sec * available audio seconds, and stops once the best
    finished path beats the best score any live path could still reach:
    its raw score, or raw score / max_total when length-normalizing (token
    log-probs are non-positive). Finished paths rank ahead of live ones;
    ties rank the smaller token-id sequence first.
    """
    vocab = model.vocab
    norm = cfg.length_normalize
    prefix = tuple(int(t) for t in forced_prefix)
    if any(t == vocab.eos_id for t in prefix):
        raise ContractViolation("forced prefix must not contain eos")
    if enc is None or enc.frames_covered == 0:
        return [BeamHypothesis(prefix, 0.0, (0.0,) * len(prefix), True)]
    max_total = math.floor(
        cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9
    )

    state, walk_lps = token_walk(model, enc, prefix)
    score = 0.0
    steps: list[float] = []
    for j, tok in enumerate(prefix):
        score += float(walk_lps[j, tok])
        steps.append(float(walk_lps[j, tok]))
    logps = walk_lps[-1]
    if len(prefix) >= max_total:
        return [BeamHypothesis(prefix, score, tuple(steps), True)]

    gen_ids = [i for i in range(len(vocab)) if i not in (vocab.pad_id, vocab.bos_id, vocab.eos_id)]
    root = BeamHypothesis(prefix, score, tuple(steps), False)
    # each live path: (hypothesis, its decoder state, next-token log-probs)
    active: list[tuple[BeamHypothesis, object, np.ndarray]] = [
        (root, state, logps)
    ]
    finished: list[BeamHypothesis] = []
    while active:
        if finished:
            best_fin = max(_objective(f, norm) for f in finished)
            reach = max(h.log_prob for h, _, _ in active)
            if norm:
                reach = reach / max_total
            if best_fin > reach:
                break
        candidates = []
        for hyp, state, lps in active:
            finished.append(
                BeamHypothesis(
                    hyp.tokens,
                    hyp.log_prob + float(lps[vocab.eos_id]),
                    hyp.step_log_probs,
                    True,
                )
            )
            for tok in gen_ids:
                lp = float(lps[tok])
                candidates.append(
                    (hyp.log_prob + lp, hyp.tokens + (tok,), hyp, state, tok, lp)
                )
        finished.sort(key=lambda h: _rank_key(h, norm))
        del finished[max(cfg.beam_width, 1):]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        new_active = []
        for score, toks, parent, state, tok, lp in candidates[: cfg.beam_width]:
            child_state, lps = model.dec_advance(state, [0], [tok], enc)
            lps = lps[0]
            child = BeamHypothesis(
                toks, score, parent.step_log_probs + (lp,), False
            )
            if len(child.tokens) >= max_total:
                finished.append(
                    BeamHypothesis(toks, score, child.step_log_probs, True)
                )
            else:
                new_active.append((child, child_state, lps))
        active = new_active
    finished.sort(key=lambda h: _rank_key(h, norm))
    live = sorted((h for h, _, _ in active), key=lambda h: _rank_key(h, norm))
    return (finished + live)[: max(cfg.beam_width, 1)]


def attention_grids_oracle(model, enc, prefix):
    """Reference for TinyTransformer.dump_attention, written out layer by
    layer: the encoder grids recomputed from each layer's cached input, and
    the decoder grids from one whole-prefix pass with an additive causal
    mask instead of the package's cached decoder forward."""
    p = model.params
    cfg = model.cfg
    h, dh = cfg.heads, cfg.head_dim
    grids = {}
    for l in range(cfg.enc_layers):
        full_in = enc.layer_inputs[l]
        t = len(full_in)
        ln = _ln_np(full_in, p[f"enc{l}_ln1_g"], p[f"enc{l}_ln1_b"])
        q = _heads(ln @ p[f"enc{l}_wq"] + p[f"enc{l}_bq"], h, dh)
        k = _heads(ln @ p[f"enc{l}_wk"] + p[f"enc{l}_bk"], h, dh)
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        if cfg.mode == UNIDIRECTIONAL:
            scores = np.where(
                np.arange(t)[None, :] > np.arange(t)[:, None],
                -np.inf,
                scores,
            )
        attn = _softmax_np(scores)
        for head in range(h):
            grids[f"encoder_self.layer{l}.head{head}"] = attn[head]

    ids = [model.vocab.bos_id] + [int(t) for t in prefix]
    q_len = len(ids)
    x = p["tok_emb"][ids] * math.sqrt(cfg.d_model) + sinusoid_table(
        q_len, cfg.d_model
    )
    causal = np.where(
        np.arange(q_len)[None, :] > np.arange(q_len)[:, None], -np.inf, 0.0
    )
    for l in range(cfg.dec_layers):
        ln = _ln_np(x, p[f"dec{l}_ln1_g"], p[f"dec{l}_ln1_b"])
        q = _heads(ln @ p[f"dec{l}_sq"] + p[f"dec{l}_bsq"], h, dh)
        k = _heads(ln @ p[f"dec{l}_sk"] + p[f"dec{l}_bsk"], h, dh)
        v = _heads(ln @ p[f"dec{l}_sv"] + p[f"dec{l}_bsv"], h, dh)
        attn = _softmax_np(q @ k.transpose(0, 2, 1) / math.sqrt(dh) + causal)
        x = x + (_merge(attn @ v, cfg.d_model) @ p[f"dec{l}_so"] + p[f"dec{l}_bso"])

        ln2 = _ln_np(x, p[f"dec{l}_ln2_g"], p[f"dec{l}_ln2_b"])
        q2 = _heads(ln2 @ p[f"dec{l}_cq"] + p[f"dec{l}_bcq"], h, dh)
        ke = _heads(enc.states @ p[f"dec{l}_ck"] + p[f"dec{l}_bck"], h, dh)
        ve = _heads(enc.states @ p[f"dec{l}_cv"] + p[f"dec{l}_bcv"], h, dh)
        attn2 = _softmax_np(q2 @ ke.transpose(0, 2, 1) / math.sqrt(dh))
        x = x + (_merge(attn2 @ ve, cfg.d_model) @ p[f"dec{l}_co"] + p[f"dec{l}_bco"])

        ln3 = _ln_np(x, p[f"dec{l}_ln3_g"], p[f"dec{l}_ln3_b"])
        f = np.maximum(ln3 @ p[f"dec{l}_ff1_w"] + p[f"dec{l}_ff1_b"], 0.0)
        x = x + (f @ p[f"dec{l}_ff2_w"] + p[f"dec{l}_ff2_b"])
        for head in range(h):
            grids[f"decoder_self.layer{l}.head{head}"] = attn[head]
            grids[f"cross.layer{l}.head{head}"] = attn2[head]
    return grids


def mean_or_none(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else None
