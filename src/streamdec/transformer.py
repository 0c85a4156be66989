"""A small encoder-decoder transformer over frame streams.

Each layer is written once (``_enc_layer``, ``_dec_layer``) from ``@``, ``+``
and autodiff ops that also take plain arrays, so inference runs it on float64
numpy and training on Tensors; the callers differ only in the attention
kernel they hand it. Inference has one kernel, ``_attend``: query rows over
key and value rows under any leading dimensions, masked by ``_future``, the
one causal-mask formula. Every key/value cache is a per-layer (K, V) pair of
(..., positions, d_model) rows that grows only in ``_append``: the causal
encoder's self-attention cache, the cross-attention keys and values on the
encoder states, and each decoder row's self-attention cache. A causal
(unidirectional) encoder never changes the states of earlier positions, so
``encode`` with a prior projects only the new rows and appends them; a
bidirectional one re-encodes every frame. Either way the states record the
rows this call ran (``rows_encoded``). One decoder forward
(``_advance_block``) runs a block of rows over one or more positions.
``dec_init`` is the prefill: one row over bos and the whole forced prefix in
a single call, which is also the forward the attention dump reads.
``dec_advance`` is the one-position case over many rows, one per beam path,
gathered by parent index. A ``DecState`` is one block: every row's
self-attention keys and values, (rows, pos, d_model), plus the encoding's
cross-attention keys and values, so it needs nothing else to advance. Each
attention computes its weights in place in its score buffer
(``_attention_weights``). Training packs a batch's real frames into one block
of encoder rows, one segment per utterance, and its kernel is one
``attention`` node that attends within segments: no padded frame is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import ConfigError, ContractViolation, Vocab
from .model import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    EncoderStates,
    _check_block,
    _check_ids,
    _check_owner,
    _check_prefix,
    _check_prior,
)

LN_EPS = 1e-5


@dataclass(frozen=True)
class TransformerConfig:
    frame_dim: int
    vocab_size: int
    d_model: int = 64
    heads: int = 2
    ff_dim: int = 128
    enc_layers: int = 2
    dec_layers: int = 2
    mode: str = UNIDIRECTIONAL
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (UNIDIRECTIONAL, BIDIRECTIONAL):
            raise ConfigError(f"unknown encoder mode {self.mode!r}")
        if min(self.frame_dim, self.vocab_size, self.d_model, self.heads,
               self.ff_dim, self.enc_layers, self.dec_layers) < 1:
            raise ConfigError("all size hyperparameters must be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, (fan_in, fan_out))


def _param_specs(cfg: TransformerConfig) -> list[tuple[str, tuple, str]]:
    """(name, shape, initializer) of every parameter, in the order
    init_params draws them from its generator."""
    d, ff, v = cfg.d_model, cfg.ff_dim, cfg.vocab_size

    def ffn(pre: str) -> list[tuple[str, tuple, str]]:
        return [
            (f"{pre}_ff1_w", (d, ff), "xavier"),
            (f"{pre}_ff1_b", (ff,), "zeros"),
            (f"{pre}_ff2_w", (ff, d), "xavier"),
            (f"{pre}_ff2_b", (d,), "zeros"),
        ]

    def ln(pre: str, i: int) -> list[tuple[str, tuple, str]]:
        return [(f"{pre}_ln{i}_g", (d,), "ones"),
                (f"{pre}_ln{i}_b", (d,), "zeros")]

    specs = [
        ("enc_in_w", (cfg.frame_dim, d), "xavier"),
        ("enc_in_b", (d,), "zeros"),
        ("tok_emb", (v, d), "embedding"),
        ("enc_lnf_g", (d,), "ones"),
        ("enc_lnf_b", (d,), "zeros"),
        ("dec_lnf_g", (d,), "ones"),
        ("dec_lnf_b", (d,), "zeros"),
        ("out_w", (d, v), "xavier"),
        ("out_b", (v,), "zeros"),
    ]
    for l in range(cfg.enc_layers):
        for nm in ("wq", "wk", "wv", "wo"):
            specs += [(f"enc{l}_{nm}", (d, d), "xavier"),
                      (f"enc{l}_b{nm[1]}", (d,), "zeros")]
        specs += ln(f"enc{l}", 1) + ln(f"enc{l}", 2) + ffn(f"enc{l}")
    for l in range(cfg.dec_layers):
        for nm in ("sq", "sk", "sv", "so", "cq", "ck", "cv", "co"):
            specs += [(f"dec{l}_{nm}", (d, d), "xavier"),
                      (f"dec{l}_b{nm}", (d,), "zeros")]
        for i in (1, 2, 3):
            specs += ln(f"dec{l}", i)
        specs += ffn(f"dec{l}")
    return specs


def param_shapes(cfg: TransformerConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter init_params makes, without making it."""
    return {name: shape for name, shape, _ in _param_specs(cfg)}


def init_params(cfg: TransformerConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(cfg.init_seed)
    p: dict[str, np.ndarray] = {}
    for name, shape, init in _param_specs(cfg):
        if init == "xavier":
            p[name] = _xavier(rng, *shape)
        elif init == "embedding":
            p[name] = rng.normal(0.0, cfg.d_model ** -0.5, shape)
        elif init == "ones":
            p[name] = np.ones(shape)
        else:
            p[name] = np.zeros(shape)
    return p


def _softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into out (which may be x itself)
    or, without out, into a new array that leaves x unchanged."""
    out = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _attention_weights(
    scores: np.ndarray, dh: int, masked: np.ndarray | None = None
) -> np.ndarray:
    """softmax(scores / sqrt(dh)) over the last axis with the masked
    positions at -inf, computed in the scores buffer itself in the order a
    fresh-array formula runs it, so the numbers are the same. A row must
    keep at least one position unmasked."""
    scores /= math.sqrt(dh)
    if masked is not None:
        np.copyto(scores, -np.inf, where=masked)
    return _softmax_np(scores, out=scores)


def _heads(x: np.ndarray, h: int, dh: int) -> np.ndarray:
    # (..., T, d) -> (..., h, T, dh)
    return x.reshape(x.shape[:-1] + (h, dh)).swapaxes(-3, -2)


def _merge(x: np.ndarray, d: int) -> np.ndarray:
    # (..., h, T, dh) -> (..., T, d)
    x = x.swapaxes(-3, -2)
    return x.reshape(x.shape[:-2] + (d,))


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
            masked: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention of query rows q (..., n, d) over key and value
    rows k, v (..., m, d): the weights (..., heads, n, m) and the context
    rows (..., n, d). masked (n, m) is shared by every leading index."""
    d = q.shape[-1]
    dh = d // heads
    w = _attention_weights(
        _heads(q, heads, dh) @ _heads(k, heads, dh).swapaxes(-1, -2), dh, masked
    )
    return w, _merge(w @ _heads(v, heads, dh), d)


def _future(start: int, stop: int) -> np.ndarray | None:
    """The causal mask of query positions start..stop-1 over key positions
    0..stop-1: True where the key comes after the query. None for one query
    row, which has no key after it."""
    if stop - start == 1:
        return None
    return np.arange(stop) > np.arange(start, stop)[:, None]


def _append(cache: list, l: int, k: np.ndarray, v: np.ndarray) -> tuple:
    """Grow layer l's (K, V) in cache by the rows k, v along the position
    axis, the second last; returns the grown pair. An empty cache takes k
    and v themselves. The old arrays are left as they were, so a state that
    holds them keeps its numbers."""
    old_k, old_v = cache[l]
    if old_k.shape[-2]:
        k = np.concatenate([old_k, k], axis=-2)
        v = np.concatenate([old_v, v], axis=-2)
    cache[l] = (k, v)
    return cache[l]


# --- the layers ----------------------------------------------------------------
# Each is written once, with @, +, ad.layer_norm, ad.relu and ad.log_softmax,
# so it runs on plain arrays for inference and on Tensors for training. Only
# the attention kernel differs by caller: attend(l, q, k, v) and cross(l, q)
# take layer l's projected rows and return the context rows.


def _ln(p: dict, name: str, x):
    return ad.layer_norm(x, p[f"{name}_g"], p[f"{name}_b"], LN_EPS)


def _ffn(p: dict, pre: str, x):
    f = ad.relu(x @ p[f"{pre}_ff1_w"] + p[f"{pre}_ff1_b"])
    return f @ p[f"{pre}_ff2_w"] + p[f"{pre}_ff2_b"]


def _enc_in(p: dict, frames, pos):
    """Encoder input rows: projected frames plus their position encodings."""
    return frames @ p["enc_in_w"] + p["enc_in_b"] + pos


def _dec_in(p: dict, ids, pos):
    """Decoder input rows: scaled token embeddings plus their position
    encodings."""
    emb = p["tok_emb"]
    return ad.embedding(emb, ids) * math.sqrt(emb.shape[1]) + pos


def _enc_layer(p: dict, l: int, x, attend):
    """One pre-norm encoder block over the rows x."""
    def lin(n: str, y):
        return y @ p[f"enc{l}_w{n}"] + p[f"enc{l}_b{n}"]

    h = _ln(p, f"enc{l}_ln1", x)
    x = x + lin("o", attend(l, lin("q", h), lin("k", h), lin("v", h)))
    return x + _ffn(p, f"enc{l}", _ln(p, f"enc{l}_ln2", x))


def _cross_kv(p: dict, l: int, states) -> tuple:
    """Decoder layer l's cross-attention keys and values of encoder rows."""
    return (states @ p[f"dec{l}_ck"] + p[f"dec{l}_bck"],
            states @ p[f"dec{l}_cv"] + p[f"dec{l}_bcv"])


def _dec_layer(p: dict, l: int, y, attend, cross):
    """One pre-norm decoder block over the rows y: self-attention,
    cross-attention to the encoder, feed-forward."""
    def lin(n: str, x):
        return x @ p[f"dec{l}_{n}"] + p[f"dec{l}_b{n}"]

    h = _ln(p, f"dec{l}_ln1", y)
    y = y + lin("so", attend(l, lin("sq", h), lin("sk", h), lin("sv", h)))
    y = y + lin("co", cross(l, lin("cq", _ln(p, f"dec{l}_ln2", y))))
    return y + _ffn(p, f"dec{l}", _ln(p, f"dec{l}_ln3", y))


def _logps(p: dict, y):
    """Next-token log-probabilities of the decoder's output rows."""
    return ad.log_softmax(_ln(p, "dec_lnf", y) @ p["out_w"] + p["out_b"])


@dataclass(frozen=True)
class DecState:
    """Immutable incremental decoder state of a block of rows that have all
    consumed the same positions, over the encoding it was made with."""

    owner: object  # the producing model's ownership token
    pos: int  # consumed input positions of every row, bos included
    kv: tuple  # per layer: self-attn (K, V), each (rows, pos, d_model)
    cross: tuple  # the encoding's EncoderStates.cross_kv


class TinyTransformer:
    def __init__(
        self,
        cfg: TransformerConfig,
        vocab: Vocab,
        params: dict[str, np.ndarray] | None = None,
    ) -> None:
        if len(vocab) != cfg.vocab_size:
            raise ConfigError(
                f"vocab has {len(vocab)} entries, config says {cfg.vocab_size}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.params = params if params is not None else init_params(cfg)
        self._owner = object()  # held by every state this instance makes
        self._pos_table = np.zeros((0, cfg.d_model))

    def clone(self) -> "TinyTransformer":
        return TinyTransformer(
            self.cfg, self.vocab, {k: v.copy() for k, v in self.params.items()}
        )

    # --- shared pieces ------------------------------------------------------

    def _pos(self, upto: int) -> np.ndarray:
        if upto > len(self._pos_table):
            self._pos_table = sinusoid_table(
                max(upto, 2 * len(self._pos_table), 64), self.cfg.d_model
            )
        return self._pos_table[:upto]

    # --- encoder ------------------------------------------------------------

    def encode(
        self, frames: np.ndarray, prior: EncoderStates | None = None, *,
        utt_id: str | None = None, frame_period_sec: float = 0.010,
    ) -> EncoderStates:
        return self._encode(frames, prior, utt_id, frame_period_sec)[0]

    def _encode(
        self, frames: np.ndarray, prior: EncoderStates | None = None,
        utt_id: str | None = None, frame_period_sec: float = 0.010,
    ) -> tuple[EncoderStates, list]:
        """encode, and per layer the self-attention weights of the rows it
        encoded, (heads, new rows, all rows). A causal encoder extends its
        prior: it projects only the new rows and appends their keys and
        values to each layer's cache, and their cross-attention keys and
        values to each decoder layer's. A bidirectional one re-encodes all."""
        cfg, p = self.cfg, self.params
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or (frames.size and frames.shape[1] != cfg.frame_dim):
            raise ContractViolation(
                f"frames must be (n, {cfg.frame_dim}); got {frames.shape}"
            )
        total = len(frames)
        utt_id, frame_period_sec = _check_prior(
            self, prior, total, utt_id, frame_period_sec
        )

        causal = cfg.mode == UNIDIRECTIONAL
        if causal and prior is not None:
            start, states = prior.frames_covered, prior.states
            kv, cross = list(prior.layer_kv), list(prior.cross_kv)
        else:
            start, states = 0, np.zeros((0, cfg.d_model))
            kv = [(states, states)] * cfg.enc_layers
            cross = [(states, states)] * cfg.dec_layers
        grids: list[np.ndarray] = []
        if total > start:
            future = _future(start, total) if causal else None

            def attend(l, q, k, v):
                w, ctx = _attend(q, *_append(kv, l, k, v), cfg.heads, future)
                grids.append(w)
                return ctx

            x = _enc_in(p, frames[start:], self._pos(total)[start:])
            for l in range(cfg.enc_layers):
                x = _enc_layer(p, l, x, attend)
            new = _ln(p, "enc_lnf", x)
            states = np.concatenate([states, new]) if start else new
            for l in range(cfg.dec_layers):
                _append(cross, l, *_cross_kv(p, l, new))
        enc = EncoderStates(
            states, total, frame_period_sec, utt_id, self._owner, tuple(kv),
            cross_kv=tuple(cross), rows_encoded=total - start,
        )
        return enc, grids

    # --- decoder ------------------------------------------------------------

    def _advance_block(
        self, x: np.ndarray, kv: list, cross: Sequence
    ) -> tuple[np.ndarray, list, list, list]:
        """The decoder stack over T embedded input positions per row.

        x is (B, T, d_model); kv holds per layer the (K, V) self-attention
        cache of every row, each (B, pos, d_model), which _append grows in
        place; cross the layer's cross-attention (K, V) that every row shares.
        Position t of a row attends to the row's cache and to positions 0..t
        of its block. Returns the next-token log-probabilities (B, T,
        vocab), the grown caches, and per layer the self-attention weights
        (B, heads, T, pos + T) and the cross-attention weights (heads, B * T,
        frames), whose rows are the block's rows in order, position within
        row."""
        cfg, h = self.cfg, self.cfg.heads
        b_sz, t_len, d = x.shape
        pos = kv[0][0].shape[1]
        future = _future(pos, pos + t_len)
        self_attns, cross_attns = [], []

        def attend(l, q, k, v):
            q, k, v = (a.reshape(b_sz, t_len, d) for a in (q, k, v))
            w, ctx = _attend(q, *_append(kv, l, k, v), h, future)
            self_attns.append(w)
            return ctx.reshape(b_sz * t_len, d)

        def attend_cross(l, q):
            # no per-row cache: the B*T rows attend to the shared encoder
            # K/V like the query positions of one sequence
            w, ctx = _attend(q, *cross[l], h)
            cross_attns.append(w)
            return ctx

        # projections run on all B*T rows as one 2-D product
        y = x.reshape(b_sz * t_len, d)
        for l in range(cfg.dec_layers):
            y = _dec_layer(self.params, l, y, attend, attend_cross)
        logps = _logps(self.params, y)
        return logps.reshape(b_sz, t_len, -1), kv, self_attns, cross_attns

    def _embed(self, token_ids: Sequence, start: int) -> np.ndarray:
        """Decoder input rows (B, T, d_model) for a (B, T) block of token ids
        at positions start .. start + T - 1."""
        ids = np.asarray(token_ids)
        return _dec_in(self.params, ids, self._pos(start + ids.shape[1])[start:])

    def _prefill(self, enc: EncoderStates, prefix: Sequence[int]) -> tuple:
        """One B = 1 decoder forward over bos + prefix from empty caches: the
        state after the whole prefix, the log-probs after each position
        (len(prefix) + 1, vocab), and _advance_block's attention weights.
        The cross-attention keys and values are the encoding's own."""
        _check_owner(self, enc, "encoder states")
        if enc.frames_covered == 0:
            raise ContractViolation("cannot decode with no encoder states")
        ids = _check_ids([self.vocab.bos_id, *prefix], len(self.vocab), "token id")
        empty = np.zeros((1, 0, self.cfg.d_model))
        logps, kv, self_attns, cross_attns = self._advance_block(
            self._embed(ids[None], 0), [(empty, empty)] * self.cfg.dec_layers,
            enc.cross_kv,
        )
        state = DecState(self._owner, len(ids), tuple(kv), enc.cross_kv)
        return state, logps[0], self_attns, cross_attns

    def dec_init(
        self, enc: EncoderStates, prefix: Sequence[int] = ()
    ) -> tuple[DecState, np.ndarray]:
        return self._prefill(enc, prefix)[:2]

    def dec_advance(
        self, state: DecState, rows: Sequence[int], token_ids: Sequence[int]
    ) -> tuple[DecState, np.ndarray]:
        _check_owner(self, state, "decoder state")
        rows, ids = _check_block(
            rows, token_ids, len(state.kv[0][0]), len(self.vocab)
        )
        logps, kv, _, _ = self._advance_block(
            self._embed(ids[:, None], state.pos),
            [(k[rows], v[rows]) for k, v in state.kv],
            state.cross,
        )
        state = DecState(self._owner, state.pos + 1, tuple(kv), state.cross)
        return state, logps[:, 0]

    # --- attention introspection ----------------------------------------------

    def dump_attention(
        self, frames: np.ndarray, prefix: Sequence[int]
    ) -> dict[str, np.ndarray]:
        """Per-layer, per-head attention weight matrices for a stream's
        frames: encoder self-attention, decoder self-attention over
        bos+prefix, and cross-attention of those query rows over all encoder
        states. The prefix holds word ids only."""
        prefix = _check_prefix(self.vocab, prefix)
        enc, enc_attns = self._encode(frames)
        _, _, self_attns, cross_attns = self._prefill(enc, prefix)
        grids: dict[str, np.ndarray] = {}
        for l, attn in enumerate(enc_attns):
            for head in range(self.cfg.heads):
                grids[f"encoder_self.layer{l}.head{head}"] = attn[head]
        for l in range(self.cfg.dec_layers):
            for head in range(self.cfg.heads):
                grids[f"decoder_self.layer{l}.head{head}"] = self_attns[l][0, head]
                # one row: the query rows are the prefill's positions
                grids[f"cross.layer{l}.head{head}"] = cross_attns[l][head]
        return grids


def sinusoid_table(n: int, d: int) -> np.ndarray:
    """Absolute sinusoidal position encodings, (n, d)."""
    pos = np.arange(n)[:, None].astype(np.float64)
    i = np.arange(d)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    table = np.zeros((n, d))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


# --- training graph ----------------------------------------------------------


def leaf_tensors(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in params.items()}


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    q_off: np.ndarray,
    k_off: np.ndarray,
    causal: bool = False,
) -> Tensor:
    """Multi-head scaled dot-product attention as one autodiff node over
    segments of rows, q, k and v being rows over their leading dimensions.

    Segment b's query rows q_off[b]:q_off[b+1] attend only to its key rows
    k_off[b]:k_off[b+1], and with ``causal`` its t-th query only to its keys
    0..t. The output has q's shape. No score between two segments is made,
    so a row gets exactly zero gradient from every other segment."""
    d = q.shape[-1]
    dh = d // heads
    qd, kd, vd = (t.data.reshape(-1, d) for t in (q, k, v))
    spans = [tuple(map(int, s)) for s in zip(q_off, q_off[1:], k_off, k_off[1:])]
    out = np.zeros(qd.shape)
    weights = []  # per segment, (heads, query rows, key rows)
    for qs, qe, ks, ke in spans:
        future = _future(0, ke - ks) if causal else None
        w, out[qs:qe] = _attend(qd[qs:qe], kd[ks:ke], vd[ks:ke], heads, future)
        weights.append(w)

    def bw(g):
        g = g.reshape(-1, d)
        gq, gk, gv = (np.zeros(a.shape) for a in (qd, kd, vd))
        for (qs, qe, ks, ke), w in zip(spans, weights):
            qb, ctx, gb = (_heads(a[qs:qe], heads, dh) for a in (qd, out, g))
            kb, vb = (_heads(a[ks:ke], heads, dh) for a in (kd, vd))
            gv[ks:ke] = _merge(w.transpose(0, 2, 1) @ gb, d)
            # softmax backward: sum_j dw_ij w_ij is gb_i . ctx_i
            gs = gb @ vb.transpose(0, 2, 1)
            gs -= (gb * ctx).sum(axis=-1, keepdims=True)
            gs *= w
            gq[qs:qe] = _merge(gs @ kb, d)
            gk[ks:ke] = _merge(gs.transpose(0, 2, 1) @ qb, d)
        # the 1/sqrt(dh) of the scores, applied to the (rows, d) results
        gq /= math.sqrt(dh)
        gk /= math.sqrt(dh)
        for t, gt in ((q, gq), (k, gk), (v, gv)):
            if t.requires_grad:
                t._accum(gt.reshape(t.shape))

    return ad._child(out.reshape(q.shape), (q, k, v), bw)


def _frame_lengths(frame_mask: np.ndarray, shape: tuple) -> np.ndarray:
    """Per-row real frame counts of a (batch, frames) 0/1 mask whose rows
    are ones followed by zeros, each with at least one real frame."""
    m = np.asarray(frame_mask)
    if m.shape != shape:
        raise ContractViolation(f"frame_mask must be {shape}; got {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ContractViolation("frame_mask values must be 0 or 1")
    lengths = m.sum(axis=1).astype(np.int64)
    if (lengths < 1).any():
        raise ContractViolation(
            f"frame_mask row {int(np.argmin(lengths))} has no real frame"
        )
    bad = (m != (np.arange(shape[1]) < lengths[:, None])).any(axis=1)
    if bad.any():
        raise ContractViolation(
            f"frame_mask row {int(np.argmax(bad))} is not ones followed by zeros"
        )
    return lengths


def training_logits(
    cfg: TransformerConfig,
    pt: dict[str, Tensor],
    frames: np.ndarray,
    frame_mask: np.ndarray,
    dec_in: np.ndarray,
) -> Tensor:
    """Teacher-forced decoder log-probabilities (batch, positions, vocab),
    through the layers inference runs, with ``attention`` as their kernel.

    The encoder runs on the real frames only, packed into one segment of
    rows per batch row; padded frames are never read. The decoder keeps the
    (batch, positions) layout, and every position is computed."""
    b_sz, tf, _ = frames.shape
    td = dec_in.shape[1]
    n_frames = _frame_lengths(frame_mask, (b_sz, tf))
    enc_off = np.concatenate([[0], np.cumsum(n_frames)])
    dec_off = np.arange(b_sz + 1) * td
    causal = cfg.mode == UNIDIRECTIONAL

    def enc_self(l, q, k, v):
        return attention(q, k, v, cfg.heads, enc_off, enc_off, causal)

    def dec_self(l, q, k, v):
        return attention(q, k, v, cfg.heads, dec_off, dec_off, causal=True)

    row, pos = np.nonzero(frame_mask)  # every real frame, row by row
    x = _enc_in(pt, frames[row, pos], sinusoid_table(tf, cfg.d_model)[pos])
    for l in range(cfg.enc_layers):
        x = _enc_layer(pt, l, x, enc_self)
    enc_out = _ln(pt, "enc_lnf", x)

    def dec_cross(l, q):
        return attention(q, *_cross_kv(pt, l, enc_out), cfg.heads, dec_off, enc_off)

    y = _dec_in(pt, dec_in, sinusoid_table(td, cfg.d_model)[None])
    for l in range(cfg.dec_layers):
        y = _dec_layer(pt, l, y, dec_self, dec_cross)
    return _logps(pt, y)


def training_loss(
    cfg: TransformerConfig,
    pt: dict[str, Tensor],
    batch: dict[str, np.ndarray],
    label_smoothing: float,
) -> Tensor:
    """Label-smoothed cross entropy per real target token."""
    logp = training_logits(
        cfg, pt, batch["frames"], batch["frame_mask"], batch["dec_in"]
    )
    labels = batch["labels"]
    label_mask = batch["label_mask"]
    b_sz, td = labels.shape
    v = cfg.vocab_size
    w = np.full((b_sz, td, v), label_smoothing / v)
    bi, ti = np.indices((b_sz, td))
    w[bi, ti, labels] += 1.0 - label_smoothing
    w *= label_mask[:, :, None]
    n_tokens = max(label_mask.sum(), 1.0)
    return ad.sum_all(logp * w) * (-1.0 / n_tokens)
