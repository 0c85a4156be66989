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

from streamdec import autodiff as ad
from streamdec.autodiff import Tensor, _child, _data, _unbroadcast, _wrap
from streamdec.core import (BOS_ID, EOS_ID, PAD_ID, CommitLog, ContractViolation,
                            chunk_stream)
from streamdec.decoder import BeamConfig, BeamHypothesis, beam_search
from streamdec.strategies import select_prefix
from streamdec.transformer import UNIDIRECTIONAL, _frame_lengths, sinusoid_table


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
    consume the prefix one token per dec_advance(state, [0], [tok]) call.
    Returns the one-row state after the whole prefix and the
    (len(prefix) + 1, vocab) log-probabilities seen along the way."""
    state, lps = model.dec_init(enc)
    rows = [lps[0]]
    for tok in prefix:
        state, lps = model.dec_advance(state, [0], [int(tok)])
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
        if i not in (PAD_ID, BOS_ID, EOS_ID)
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
                score += float(lps[-1, EOS_ID])
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
    if any(t == EOS_ID for t in prefix):
        raise ContractViolation("forced prefix must not contain eos")
    if enc.frames_covered == 0:
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

    gen_ids = [i for i in range(len(vocab)) if i not in (PAD_ID, BOS_ID, EOS_ID)]
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
                    hyp.log_prob + float(lps[EOS_ID]),
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
            child_state, lps = model.dec_advance(state, [0], [tok])
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


def eager_session_log(model, utt, strategy, chunk_len_sec, beam):
    """Reference for a session's chunk loop that decodes every chunk,
    whether or not the strategy reads the continuation: every chunk grows
    the encoding by its own frames, runs the forced beam search and hands
    the continuation to select_prefix. Returns the commit log and each
    chunk's commit."""
    log, state, committed, enc, commits = CommitLog(), None, (), None, []
    for chunk in chunk_stream(utt.frames, chunk_len_sec, utt.frame_period_sec, utt.id):
        enc = model.encode(
            utt.frames[: chunk.end], enc,
            utt_id=utt.id, frame_period_sec=utt.frame_period_sec,
        )
        cont = beam_search(model, enc, committed, beam)[0].tokens[len(committed):]
        surfaces = tuple(map(model.vocab.token_of, cont))
        got, state = select_prefix(strategy, state, chunk, lambda: surfaces)
        committed += cont[: len(got)]
        log.commit(got, chunk.index, chunk_len_sec)
        commits.append(got)
    return log, commits


def reference_commits(strategy, continuations, chunk_len_sec):
    """Each chunk's commit over a whole session, from the README's rule
    table and with no call into ``streamdec.strategies``. ``continuations``
    holds every chunk's continuation in order, None for a chunk the session
    never decoded; a commit that would need such a continuation fails.

    hold-n commits all but the last n tokens; wait-k nothing for k chunks,
    then the whole part of a budget that accrues rate * chunk length per
    chunk and keeps what it does not spend; local agreement the common
    prefix with the previous chunk's uncommitted tail; offline nothing. The
    last chunk commits its whole continuation."""

    def read(i):
        assert continuations[i] is not None, f"chunk {i + 1} was not decoded"
        return tuple(continuations[i])

    commits, accrued, spent, tail = [], 0.0, 0, ()
    for i in range(len(continuations)):
        if i == len(continuations) - 1:
            commit = read(i)
        elif strategy.name == "hold-n":
            cont = read(i)
            commit = cont[: max(len(cont) - strategy.n, 0)]
        elif strategy.name == "wait-k":
            commit = ()
            if i >= strategy.k:
                accrued += strategy.rate * chunk_len_sec
                # a budget within 1e-9 of a whole token counts as that token
                due = math.floor(accrued - spent + 1e-9)
                if due > 0:
                    commit = read(i)[:due]
                spent += len(commit)
        elif strategy.name == "local-agreement":
            cont = read(i)
            n = 0
            while n < min(len(tail), len(cont)) and tail[n] == cont[n]:
                n += 1
            commit, tail = cont[:n], cont[n:]
        elif strategy.name == "offline":
            commit = ()
        else:
            raise ValueError(f"no reference for {strategy!r}")
        commits.append(commit)
    return commits


def cache_gap(a, b, rows):
    """Max |difference| between two transformer encodings over the first
    rows positions of every cached key and value array: each encoder
    layer's self-attention and each decoder layer's cross-attention. Both
    must hold the same number of those positions."""
    gap = 0.0
    pairs = zip(a.layer_kv + a.cross_kv, b.layer_kv + b.cross_kv, strict=True)
    for (ka, va), (kb, vb) in pairs:
        # keys hold their positions on the last axis, values second last
        for x, y in ((ka, kb), (va.swapaxes(-1, -2), vb.swapaxes(-1, -2))):
            x, y = x[..., :rows], y[..., :rows]
            assert x.shape == y.shape, (x.shape, y.shape)
            gap = max(gap, float(np.abs(x - y).max(initial=0.0)))
    return gap


def layer_norm(x, gain, bias, eps=1e-5):
    """gain * ((x - mean) / sqrt(var + eps)) + bias over the last axis, with
    a fresh array for every intermediate, forward and backward: the affine
    layer norm the package folds into its projection weights. A plain array
    when no argument is a Tensor."""
    n = _data(x).shape[-1]
    centered = _data(x) - _data(x).sum(axis=-1, keepdims=True) / n
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = _data(gain) * xhat + _data(bias)
    if not any(isinstance(a, Tensor) for a in (x, gain, bias)):
        return out
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)

    def bw(g):
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.sum(axis=-1, keepdims=True) / n
            m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
            x._accum((dxhat - m1 - xhat * m2) / std)

    return _child(out, (x, gain, bias), bw)


# The pre-norm layers as the parameters store them, unfolded: each layer
# norm applies its own gain and bias, Q, K and V are three products, and the
# attention kernel scales the scores. They run on arrays or on Tensors;
# attend(l, q, k, v) and cross(l, q, k, v) take layer l's projected rows.


def _ln(p, name, x):
    return layer_norm(x, p[f"{name}_g"], p[f"{name}_b"])


def _ffn(p, pre, x):
    f = ad.relu(x @ p[f"{pre}_ff1_w"] + p[f"{pre}_ff1_b"])
    return f @ p[f"{pre}_ff2_w"] + p[f"{pre}_ff2_b"]


def _enc_layer(p, l, x, attend):
    def lin(n, y):
        return y @ p[f"enc{l}_w{n}"] + p[f"enc{l}_b{n}"]

    h = _ln(p, f"enc{l}_ln1", x)
    x = x + lin("o", attend(l, lin("q", h), lin("k", h), lin("v", h)))
    return x + _ffn(p, f"enc{l}", _ln(p, f"enc{l}_ln2", x))


def _dec_layer(p, l, y, states, attend, cross):
    def lin(n, x):
        return x @ p[f"dec{l}_{n}"] + p[f"dec{l}_b{n}"]

    h = _ln(p, f"dec{l}_ln1", y)
    y = y + lin("so", attend(l, lin("sq", h), lin("sk", h), lin("sv", h)))
    q = lin("cq", _ln(p, f"dec{l}_ln2", y))
    y = y + lin("co", cross(l, q, lin("ck", states), lin("cv", states)))
    return y + _ffn(p, f"dec{l}", _ln(p, f"dec{l}_ln3", y))


def _unfolded(cfg, p, frames, frame_pos, ids, ids_pos, enc_attend,
              dec_attend, cross):
    """Next-token log-probs of the unfolded layers."""
    x = frames @ p["enc_in_w"] + p["enc_in_b"] + frame_pos
    for l in range(cfg.enc_layers):
        x = _enc_layer(p, l, x, enc_attend)
    states = _ln(p, "enc_lnf", x)
    y = ad.embedding(p["tok_emb"], ids) * math.sqrt(cfg.d_model) + ids_pos
    for l in range(cfg.dec_layers):
        y = _dec_layer(p, l, y, states, dec_attend, cross)
    return ad.log_softmax(_ln(p, "dec_lnf", y) @ p["out_w"] + p["out_b"])


def _softmax(x):
    """Softmax over the last axis, with fresh arrays."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _future_mask(t):
    """Additive (t, t) mask: -inf at the keys after each query."""
    return np.where(np.arange(t)[None, :] > np.arange(t)[:, None], -np.inf, 0.0)


def unfolded_forward(model, frames, prefix):
    """Reference for TinyTransformer's folded inference: the stored params
    through the unfolded layers, the frames encoded in one pass with an
    additive future mask and bos + prefix decoded in one pass with an
    additive causal mask, with this module's layer norm and kernel. Returns
    the log-probs after each decoder position (len(prefix) + 1, vocab) and
    dump_attention's grids."""
    p = model.params
    cfg = model.cfg
    d, h, dh = cfg.d_model, cfg.heads, cfg.head_dim
    grids = {}

    def kernel(kind, mask):
        def attend(l, q, k, v):
            # (T, d) rows -> (heads, T, dh), and back
            q, k, v = (a.reshape(-1, h, dh).transpose(1, 0, 2) for a in (q, k, v))
            w = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh) + mask)
            for head in range(h):
                grids[f"{kind}.layer{l}.head{head}"] = w[head]
            return (w @ v).transpose(1, 0, 2).reshape(-1, d)

        return attend

    t = len(frames)
    ids = [BOS_ID] + [int(t) for t in prefix]
    logps = _unfolded(
        cfg, p, frames, sinusoid_table(t, d), np.array(ids),
        sinusoid_table(len(ids), d),
        kernel("encoder_self", _future_mask(t) if cfg.mode == UNIDIRECTIONAL else 0.0),
        kernel("decoder_self", _future_mask(len(ids))),
        kernel("cross", 0.0),
    )
    return logps, grids


# the shape ops of padded_attention's graph, written apart from the package's


def reshape(a, shape: tuple) -> Tensor:
    a = _wrap(a)

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return _child(a.data.reshape(shape), (a,), bw)


def transpose(a, axes: tuple) -> Tensor:
    a = _wrap(a)
    inv = np.argsort(axes)

    def bw(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return _child(a.data.transpose(axes), (a,), bw)


def masked_softmax(a, axis=-1, *, scale=1.0, mask=None):
    """softmax(a * scale + mask) as one autodiff node in one buffer; mask is
    a constant that broadcasts to a's shape (-1e9 at disallowed keys)."""
    a = _wrap(a)
    y = a.data * scale
    if mask is not None:
        y += mask
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            d = g - (g * y).sum(axis=axis, keepdims=True)
            d *= y
            d *= scale
            a._accum(d)

    return _child(y, (a,), bw)


def padded_attention(q, k, v, heads, k_len, q_len=None, causal=False):
    """Reference for transformer.attention on the padded layout: q is
    (B, Tq, d) and k, v are (B, Tk, d), and row b's first q_len[b] queries
    (all Tq without q_len) attend to its first k_len[b] keys. The whole
    batch is one (B, heads, Tq, Tk) score array through matmul,
    masked_softmax with an additive -1e9 mask at keys past k_len (and at
    future keys when causal) and matmul, then the rows past q_len
    multiplied by zero; where the package packs segments, this pads."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    b_sz, tq, d = q.shape
    tk = k.shape[1]
    dh = d // heads
    q_len = np.full(b_sz, tq) if q_len is None else np.asarray(q_len)
    allow = np.arange(tk)[None, None, :] < np.asarray(k_len)[:, None, None]
    if causal:
        allow = allow & (np.arange(tk)[None, :] <= np.arange(tq)[:, None])
    mask = np.where(allow, 0.0, -1e9)[:, None]  # (B, 1, Tq or 1, Tk)
    qh = transpose(reshape(q, (b_sz, tq, heads, dh)), (0, 2, 1, 3))
    kh = transpose(reshape(k, (b_sz, tk, heads, dh)), (0, 2, 3, 1))
    vh = transpose(reshape(v, (b_sz, tk, heads, dh)), (0, 2, 1, 3))
    att = masked_softmax(
        ad.matmul(qh, kh), scale=1.0 / math.sqrt(dh), mask=mask
    )
    ctx = transpose(ad.matmul(att, vh), (0, 2, 1, 3))
    real = np.arange(tq)[None, :, None] < q_len[:, None, None]
    return ad.mul(reshape(ctx, (b_sz, tq, d)), real.astype(np.float64))


def padded_training_logits(cfg, pt, frames, frame_mask, dec_in):
    """Reference for transformer.training_logits, with its signature: the
    unfolded layers on the leaf tensors pt, on the padded (batch, frames,
    d_model) encoder rows, every padded row computed, and padded_attention
    as the kernel, so only its length masks keep padding out of the real
    rows."""
    b_sz, tf, _ = frames.shape
    td = dec_in.shape[1]
    n_frames = _frame_lengths(frame_mask, (b_sz, tf))
    dec_len = np.full(b_sz, td)
    causal = cfg.mode == UNIDIRECTIONAL

    def enc_self(l, q, k, v):
        return padded_attention(q, k, v, cfg.heads, n_frames, n_frames, causal)

    def dec_self(l, q, k, v):
        return padded_attention(q, k, v, cfg.heads, dec_len, causal=True)

    def cross(l, q, k, v):
        return padded_attention(q, k, v, cfg.heads, n_frames)

    return _unfolded(
        cfg, pt, frames, sinusoid_table(tf, cfg.d_model)[None],
        dec_in, sinusoid_table(td, cfg.d_model)[None], enc_self, dec_self,
        cross,
    )


def normalize_fresh(x, eps=1e-5):
    """Reference for autodiff.normalize on Tensors: the same formula with a
    fresh array for every intermediate, forward and backward; the package's
    kernel reuses its buffers and must match it bit for bit."""
    x = _wrap(x)
    col = np.full((x.shape[-1], 1), 1.0 / x.shape[-1])
    centered = x.data - x.data.dot(col)
    std = np.sqrt((centered * centered).dot(col) + eps)
    xhat = centered / std

    def bw(g):
        if x.requires_grad:
            m1 = g.dot(col)
            m2 = (g * xhat).dot(col)
            x._accum((g - m1 - xhat * m2) / std)

    return _child(xhat, (x,), bw)


def mean_or_none(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else None
