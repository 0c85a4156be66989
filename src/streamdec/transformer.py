"""A small encoder-decoder transformer over frame streams.

The encoder can run with causal (unidirectional) self-attention, in which
case encoder states for earlier positions never change as more frames arrive
and encoding is append-only. One decoder forward (``_advance_block``) runs a
block of rows over one or more positions. ``dec_init`` is the prefill: one
row over bos and the whole forced prefix in a single call, which is also the
forward the attention dump reads. ``dec_advance`` is the one-position case
over many rows, one per beam path. A ``DecState`` is one block: every row's
self-attention keys and values, stacked, plus the cross-attention keys and
values of the encoding it was made with, computed once by ``dec_init``. A
beam step gathers the rows it extends by parent index. Cross-attention
always spans every encoder state available when ``dec_init`` ran.

Inference runs on plain float64 numpy, each attention's weights computed
in place in its score buffer (``_attention_weights``). Training builds the
same math as an autodiff graph (see training.py for the loop). Its
attention is one ``attention`` node per layer that goes over the batch one
row at a time and reads only that row's real frames, by lengths taken from
``frame_mask``; it computes its weights with the same
``_attention_weights``, so no padded score is ever made.
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
    _check_ids,
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
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        if min(self.frame_dim, self.vocab_size, self.d_model, self.heads,
               self.ff_dim, self.enc_layers, self.dec_layers) < 1:
            raise ConfigError("all size hyperparameters must be >= 1")

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


def _ln_np(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum / n is ndarray.mean without its Python wrapper, bit for bit
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    c = x - mu
    var = (c * c).sum(axis=-1, keepdims=True) / n
    return g * (c / np.sqrt(var + LN_EPS)) + b


def _softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written into out (which may be x itself)
    or, without out, into a new array that leaves x unchanged."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
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


def _log_softmax_np(x: np.ndarray) -> np.ndarray:
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _heads(x: np.ndarray, h: int, dh: int) -> np.ndarray:
    # (T, d) -> (h, T, dh)
    t = x.shape[0]
    return x.reshape(t, h, dh).transpose(1, 0, 2)


def _merge(x: np.ndarray, d: int) -> np.ndarray:
    # (h, T, dh) -> (T, d)
    return x.transpose(1, 0, 2).reshape(x.shape[1], d)


@dataclass(frozen=True)
class DecState:
    """Immutable incremental decoder state of a block of rows that have all
    consumed the same positions, valid only for the encoder states it was
    made with."""

    owner: object  # the producing model's ownership token
    frames_covered: int
    pos: int  # consumed input positions of every row, bos included
    kv: tuple  # per layer: self-attn (K, V), each (rows, heads, pos, head_dim)
    cross: tuple  # per layer: cross-attn (K, V), each (heads, frames, head_dim)


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

    @property
    def mode(self) -> str:
        return self.cfg.mode

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
        self,
        frames: np.ndarray,
        prior: EncoderStates | None = None,
        *,
        utt_id: str | None = None,
        frame_period_sec: float = 0.010,
    ) -> EncoderStates:
        cfg = self.cfg
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or (frames.size and frames.shape[1] != cfg.frame_dim):
            raise ContractViolation(
                f"frames must be (n, {cfg.frame_dim}); got {frames.shape}"
            )
        total = len(frames)
        if prior is not None:
            _check_prior(self, prior, total, utt_id)
            if utt_id is None:
                utt_id = prior.utt_id
            frame_period_sec = prior.frame_period_sec

        incremental = cfg.mode == UNIDIRECTIONAL and prior is not None
        if incremental:
            start = prior.frames_covered
            layer_inputs = list(prior.layer_inputs)
            old_states = prior.states
        else:
            start = 0
            layer_inputs = [
                np.zeros((0, cfg.d_model)) for _ in range(cfg.enc_layers)
            ]
            old_states = np.zeros((0, cfg.d_model))

        if total == start:
            return EncoderStates(
                old_states, total, frame_period_sec, utt_id, self._owner,
                layer_inputs,
            )

        x = frames[start:] @ self.params["enc_in_w"] + self.params["enc_in_b"]
        x = x + self._pos(total)[start:]
        for l in range(cfg.enc_layers):
            full_in = (
                np.concatenate([layer_inputs[l], x]) if start else x
            )
            x, _ = self._enc_layer(l, x, full_in, start)
            layer_inputs[l] = full_in
        new_states = _ln_np(
            x, self.params["enc_lnf_g"], self.params["enc_lnf_b"]
        )
        states = np.concatenate([old_states, new_states]) if start else new_states
        return EncoderStates(
            states, total, frame_period_sec, utt_id, self._owner, layer_inputs
        )

    def _enc_layer(
        self, l: int, x_new: np.ndarray, full_in: np.ndarray, start: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One pre-norm encoder block evaluated for the new rows only; returns
        their outputs and attention weights (heads, new rows, all rows)."""
        p = self.params
        cfg = self.cfg
        h, dh = cfg.heads, cfg.head_dim
        t_full = len(full_in)
        n_new = len(x_new)
        ln = _ln_np(full_in, p[f"enc{l}_ln1_g"], p[f"enc{l}_ln1_b"])
        q = _heads(ln[start:] @ p[f"enc{l}_wq"] + p[f"enc{l}_bq"], h, dh)
        k = _heads(ln @ p[f"enc{l}_wk"] + p[f"enc{l}_bk"], h, dh)
        v = _heads(ln @ p[f"enc{l}_wv"] + p[f"enc{l}_bv"], h, dh)
        future = (
            np.arange(t_full)[None, :] > start + np.arange(n_new)[:, None]
        ) if cfg.mode == UNIDIRECTIONAL else None
        # (h, n_new, t_full)
        attn = _attention_weights(q @ k.transpose(0, 2, 1), dh, future)
        ctx = _merge(attn @ v, cfg.d_model)
        x_attn = x_new + (ctx @ p[f"enc{l}_wo"] + p[f"enc{l}_bo"])
        ln2 = _ln_np(x_attn, p[f"enc{l}_ln2_g"], p[f"enc{l}_ln2_b"])
        f = np.maximum(ln2 @ p[f"enc{l}_ff1_w"] + p[f"enc{l}_ff1_b"], 0.0)
        return x_attn + (f @ p[f"enc{l}_ff2_w"] + p[f"enc{l}_ff2_b"]), attn

    # --- decoder ------------------------------------------------------------

    def _cross_kv(self, enc: EncoderStates) -> tuple:
        """Per decoder layer, the cross-attention (K, V) of every encoder
        row, each (heads, frames, head_dim)."""
        if enc.owner is not self._owner:
            raise ContractViolation("encoder states from a different model")
        if enc.frames_covered == 0:
            raise ContractViolation("cannot decode with no encoder states")
        p = self.params
        h, dh = self.cfg.heads, self.cfg.head_dim
        return tuple(
            (_heads(enc.states @ p[f"dec{l}_ck"] + p[f"dec{l}_bck"], h, dh),
             _heads(enc.states @ p[f"dec{l}_cv"] + p[f"dec{l}_bcv"], h, dh))
            for l in range(self.cfg.dec_layers)
        )

    def _advance_block(
        self, x: np.ndarray, kv: Sequence, cross: Sequence
    ) -> tuple[np.ndarray, list, list, list]:
        """The decoder stack over T embedded input positions per row.

        x is (B, T, d_model); kv holds per layer the (K, V) self-attention
        cache of every row, each (B, heads, pos, head_dim), and cross the
        layer's cross-attention (K, V) that every row shares. Position t of
        a row attends to the row's cache and to positions 0..t of its block.
        Returns the next-token log-probabilities (B, T, vocab), the grown
        caches, and per layer the self-attention weights (B, heads, T,
        pos + T) and the cross-attention weights (B, heads, T, frames)."""
        p = self.params
        cfg = self.cfg
        h, dh, d = cfg.heads, cfg.head_dim, cfg.d_model
        b_sz, t_len, _ = x.shape
        pos = kv[0][0].shape[2]

        def split(y: np.ndarray) -> np.ndarray:
            # (B*T, d) -> (B, heads, T, head_dim)
            return y.reshape(b_sz, t_len, h, dh).transpose(0, 2, 1, 3)

        # projections run on all B*T rows as one 2-D product
        row = x.reshape(b_sz * t_len, d)
        # a lone position sees nothing after it
        future = (
            np.arange(pos + t_len)[None, :] > pos + np.arange(t_len)[:, None]
        ) if t_len > 1 else None
        new_kv, self_attns, cross_attns = [], [], []
        for l in range(cfg.dec_layers):
            ln = _ln_np(row, p[f"dec{l}_ln1_g"], p[f"dec{l}_ln1_b"])
            q = split(ln @ p[f"dec{l}_sq"] + p[f"dec{l}_bsq"])
            k_old, v_old = kv[l]
            k_all = np.concatenate(
                [k_old, split(ln @ p[f"dec{l}_sk"] + p[f"dec{l}_bsk"])], axis=2
            )
            v_all = np.concatenate(
                [v_old, split(ln @ p[f"dec{l}_sv"] + p[f"dec{l}_bsv"])], axis=2
            )
            attn = _attention_weights(q @ k_all.transpose(0, 1, 3, 2), dh, future)
            ctx = (attn @ v_all).transpose(0, 2, 1, 3).reshape(b_sz * t_len, d)
            row = row + (ctx @ p[f"dec{l}_so"] + p[f"dec{l}_bso"])

            # cross-attention has no per-row cache: the B*T rows attend to the
            # shared encoder K/V like the query positions of one sequence
            ln2 = _ln_np(row, p[f"dec{l}_ln2_g"], p[f"dec{l}_ln2_b"])
            q2 = _heads(ln2 @ p[f"dec{l}_cq"] + p[f"dec{l}_bcq"], h, dh)
            ke, ve = cross[l]
            attn2 = _attention_weights(q2 @ ke.transpose(0, 2, 1), dh)
            row = row + (_merge(attn2 @ ve, d) @ p[f"dec{l}_co"] + p[f"dec{l}_bco"])

            ln3 = _ln_np(row, p[f"dec{l}_ln3_g"], p[f"dec{l}_ln3_b"])
            f = np.maximum(ln3 @ p[f"dec{l}_ff1_w"] + p[f"dec{l}_ff1_b"], 0.0)
            row = row + (f @ p[f"dec{l}_ff2_w"] + p[f"dec{l}_ff2_b"])
            new_kv.append((k_all, v_all))
            self_attns.append(attn)
            cross_attns.append(
                attn2.reshape(h, b_sz, t_len, -1).transpose(1, 0, 2, 3)
            )
        out = _ln_np(row, p["dec_lnf_g"], p["dec_lnf_b"])
        logps = _log_softmax_np(out @ p["out_w"] + p["out_b"])
        return logps.reshape(b_sz, t_len, -1), new_kv, self_attns, cross_attns

    def _embed(self, token_ids: Sequence, start: int) -> np.ndarray:
        """Decoder input rows (B, T, d_model) for a (B, T) block of token ids
        at positions start .. start + T - 1."""
        ids = np.asarray(token_ids)
        return (
            self.params["tok_emb"][ids] * math.sqrt(self.cfg.d_model)
            + self._pos(start + ids.shape[1])[start:]
        )

    def _empty_kv(self) -> list:
        empty = np.zeros((1, self.cfg.heads, 0, self.cfg.head_dim))
        return [(empty, empty)] * self.cfg.dec_layers

    def _prefill(self, enc: EncoderStates, prefix: Sequence[int]) -> tuple:
        """One B = 1 decoder forward over bos + prefix from empty caches: the
        state after the whole prefix, the log-probs after each position
        (len(prefix) + 1, vocab), and _advance_block's attention weights."""
        cross = self._cross_kv(enc)
        ids = _check_ids([self.vocab.bos_id, *prefix], len(self.vocab), "token id")
        logps, kv, self_attns, cross_attns = self._advance_block(
            self._embed(ids[None], 0), self._empty_kv(), cross
        )
        state = DecState(self._owner, enc.frames_covered, len(ids), tuple(kv), cross)
        return state, logps[0], self_attns, cross_attns

    def dec_init(
        self, enc: EncoderStates, prefix: Sequence[int] = ()
    ) -> tuple[DecState, np.ndarray]:
        return self._prefill(enc, prefix)[:2]

    def dec_advance(
        self,
        state: DecState,
        rows: Sequence[int],
        token_ids: Sequence[int],
        enc: EncoderStates,
    ) -> tuple[DecState, np.ndarray]:
        # a state made by another model, or before the encoder grew,
        # attended to other encoder rows than enc holds
        if not (
            isinstance(state, DecState)
            and state.owner is self._owner
            and enc.owner is self._owner
            and state.frames_covered == enc.frames_covered
        ):
            raise ContractViolation(
                "decoder state does not match the given encoder states"
            )
        rows = _check_ids(rows, len(state.kv[0][0]), "row")
        ids = _check_ids(token_ids, len(self.vocab), "token id")
        if rows.ndim != 1 or rows.shape != ids.shape or not rows.size:
            raise ContractViolation(
                "a block needs one token id per row and at least one row"
            )
        logps, kv, _, _ = self._advance_block(
            self._embed(ids[:, None], state.pos),
            [(k[rows], v[rows]) for k, v in state.kv],
            state.cross,
        )
        state = DecState(
            self._owner, state.frames_covered, state.pos + 1, tuple(kv),
            state.cross,
        )
        return state, logps[:, 0]

    # --- attention introspection ----------------------------------------------

    def dump_attention(
        self, enc: EncoderStates, prefix: Sequence[int]
    ) -> dict[str, np.ndarray]:
        """Per-layer, per-head attention weight matrices for the current
        stream: encoder self-attention, decoder self-attention over bos+prefix,
        and cross-attention of those query rows over all encoder states."""
        _, _, self_attns, cross_attns = self._prefill(enc, prefix)
        cfg = self.cfg
        grids: dict[str, np.ndarray] = {}
        for l in range(cfg.enc_layers):
            full_in = enc.layer_inputs[l]
            _, attn = self._enc_layer(l, full_in, full_in, 0)
            for head in range(cfg.heads):
                grids[f"encoder_self.layer{l}.head{head}"] = attn[head]
        for l in range(cfg.dec_layers):
            for head in range(cfg.heads):
                grids[f"decoder_self.layer{l}.head{head}"] = self_attns[l][0, head]
                grids[f"cross.layer{l}.head{head}"] = cross_attns[l][0, head]
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
    k_len: np.ndarray,
    q_len: np.ndarray | None = None,
    causal: bool = False,
) -> Tensor:
    """Multi-head scaled dot-product attention as one autodiff node, one
    batch row at a time over that row's real positions only.

    q is (B, Tq, d) and k, v are (B, Tk, d), split into heads inside. Row
    b's first q_len[b] queries (all Tq without q_len) attend to its first
    k_len[b] keys, and with ``causal`` query t only to keys 0..t. Context
    rows past q_len[b] are zero, and q, k, v positions past the lengths get
    exactly zero gradient."""
    b_sz, tq, d = q.shape
    dh = d // heads
    q_len = np.full(b_sz, tq) if q_len is None else q_len
    future = (
        np.arange(k.shape[1])[None, :] > np.arange(tq)[:, None]
        if causal else None
    )
    out = np.zeros((b_sz, tq, d))
    rows = []  # per batch row: lengths, head-split q, k, v, weights, context
    for b in range(b_sz):
        lq, lk = int(q_len[b]), int(k_len[b])
        qb = _heads(q.data[b, :lq], heads, dh)
        kb = _heads(k.data[b, :lk], heads, dh)
        vb = _heads(v.data[b, :lk], heads, dh)
        w = _attention_weights(
            qb @ kb.transpose(0, 2, 1), dh,
            None if future is None else future[:lq, :lk],
        )
        ctx = w @ vb
        out[b, :lq] = _merge(ctx, d)
        rows.append((lq, lk, qb, kb, vb, w, ctx))

    def bw(g):
        gq, gk, gv = (np.zeros(t.shape) for t in (q, k, v))
        for b, (lq, lk, qb, kb, vb, w, ctx) in enumerate(rows):
            gb = _heads(g[b, :lq], heads, dh)
            gv[b, :lk] = _merge(w.transpose(0, 2, 1) @ gb, d)
            # softmax backward: sum_j dw_ij w_ij is gb_i . ctx_i
            gs = gb @ vb.transpose(0, 2, 1)
            gs -= (gb * ctx).sum(axis=-1, keepdims=True)
            gs *= w
            gq[b, :lq] = _merge(gs @ kb, d)
            gk[b, :lk] = _merge(gs.transpose(0, 2, 1) @ qb, d)
        # the 1/sqrt(dh) of the scores, applied to the (T, d) results
        gq /= math.sqrt(dh)
        gk /= math.sqrt(dh)
        for t, gt in ((q, gq), (k, gk), (v, gv)):
            if t.requires_grad:
                t._accum(gt)

    return ad._child(out, (q, k, v), bw)


def _attn_graph(
    q_in: Tensor,
    kv_in: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    heads: int,
    k_len: np.ndarray,
    q_len: np.ndarray | None = None,
    causal: bool = False,
) -> Tensor:
    q = ad.add(ad.matmul(q_in, wq), bq)
    k = ad.add(ad.matmul(kv_in, wk), bk)
    v = ad.add(ad.matmul(kv_in, wv), bv)
    ctx = attention(q, k, v, heads, k_len, q_len, causal)
    return ad.add(ad.matmul(ctx, wo), bo)


def _ffn_graph(x: Tensor, w1, b1, w2, b2) -> Tensor:
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


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
    """Teacher-forced decoder log-probabilities (batch, positions, vocab).

    Attention reads each row's real frames only, so the encoder outputs at
    padded frames are never used; every decoder position is computed."""
    b_sz, tf, _ = frames.shape
    td = dec_in.shape[1]
    d = cfg.d_model
    n_frames = _frame_lengths(frame_mask, (b_sz, tf))
    causal = cfg.mode == UNIDIRECTIONAL

    x = ad.add(ad.matmul(Tensor(frames), pt["enc_in_w"]), pt["enc_in_b"])
    x = ad.add(x, Tensor(sinusoid_table(tf, d)[None]))
    for l in range(cfg.enc_layers):
        ln = ad.layer_norm(x, pt[f"enc{l}_ln1_g"], pt[f"enc{l}_ln1_b"], LN_EPS)
        x = ad.add(
            x,
            _attn_graph(
                ln, ln,
                pt[f"enc{l}_wq"], pt[f"enc{l}_bq"],
                pt[f"enc{l}_wk"], pt[f"enc{l}_bk"],
                pt[f"enc{l}_wv"], pt[f"enc{l}_bv"],
                pt[f"enc{l}_wo"], pt[f"enc{l}_bo"],
                cfg.heads, n_frames, n_frames, causal,
            ),
        )
        ln2 = ad.layer_norm(x, pt[f"enc{l}_ln2_g"], pt[f"enc{l}_ln2_b"], LN_EPS)
        x = ad.add(
            x,
            _ffn_graph(
                ln2,
                pt[f"enc{l}_ff1_w"], pt[f"enc{l}_ff1_b"],
                pt[f"enc{l}_ff2_w"], pt[f"enc{l}_ff2_b"],
            ),
        )
    enc_out = ad.layer_norm(x, pt["enc_lnf_g"], pt["enc_lnf_b"], LN_EPS)

    dec_len = np.full(b_sz, td)
    y = ad.scale(ad.embedding(pt["tok_emb"], dec_in), math.sqrt(d))
    y = ad.add(y, Tensor(sinusoid_table(td, d)[None]))
    for l in range(cfg.dec_layers):
        ln = ad.layer_norm(y, pt[f"dec{l}_ln1_g"], pt[f"dec{l}_ln1_b"], LN_EPS)
        y = ad.add(
            y,
            _attn_graph(
                ln, ln,
                pt[f"dec{l}_sq"], pt[f"dec{l}_bsq"],
                pt[f"dec{l}_sk"], pt[f"dec{l}_bsk"],
                pt[f"dec{l}_sv"], pt[f"dec{l}_bsv"],
                pt[f"dec{l}_so"], pt[f"dec{l}_bso"],
                cfg.heads, dec_len, causal=True,
            ),
        )
        ln2 = ad.layer_norm(y, pt[f"dec{l}_ln2_g"], pt[f"dec{l}_ln2_b"], LN_EPS)
        y = ad.add(
            y,
            _attn_graph(
                ln2, enc_out,
                pt[f"dec{l}_cq"], pt[f"dec{l}_bcq"],
                pt[f"dec{l}_ck"], pt[f"dec{l}_bck"],
                pt[f"dec{l}_cv"], pt[f"dec{l}_bcv"],
                pt[f"dec{l}_co"], pt[f"dec{l}_bco"],
                cfg.heads, n_frames,
            ),
        )
        ln3 = ad.layer_norm(y, pt[f"dec{l}_ln3_g"], pt[f"dec{l}_ln3_b"], LN_EPS)
        y = ad.add(
            y,
            _ffn_graph(
                ln3,
                pt[f"dec{l}_ff1_w"], pt[f"dec{l}_ff1_b"],
                pt[f"dec{l}_ff2_w"], pt[f"dec{l}_ff2_b"],
            ),
        )
    out = ad.layer_norm(y, pt["dec_lnf_g"], pt["dec_lnf_b"], LN_EPS)
    logits = ad.add(ad.matmul(out, pt["out_w"]), pt["out_b"])
    return ad.log_softmax(logits)


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
    return ad.scale(ad.sum_all(ad.mul(logp, Tensor(w))), -1.0 / n_tokens)
