"""A small encoder-decoder transformer over frame streams.

The stored parameters are those of a pre-norm transformer, but the layers
run the weight set ``fold`` derives from them, every layer norm's gain and
bias folded into the projection it feeds, so every block runs
``normalize(x) @ W + b``. A model derives its set once, on first use;
training derives it from its leaf Tensors on every step, which carries the
gradients back to the stored parameters.

Each layer is written once (``_enc_layer``, ``_dec_layer``) from ``_lin``
and autodiff ops that also take plain arrays, so inference runs it on
float64 numpy and training on Tensors; the callers differ only in the
attention kernel they hand it. Inference has one kernel, ``_attend``,
masked by ``_future``, the one causal-mask formula; the normalized weights
are formed only where something reads them, the attention dump.

Every key/value cache is per layer and split by head, laid out once where
it is made, so no decoder call makes a head view of one; ``_grow``, which
never writes the array it grows, is the one place any cache grows. An
encoding (``TransformerEncoding``) is the encoder's and the
cross-attention's caches, which ``_append`` grows; no encoder output row is
kept. Each decoder row's self-attention keys and values are one (rows, 2,
heads, pos, head_dim) array per layer, keys then values, so a beam step
gathers and grows each layer's cache in one call each.

A causal (unidirectional) encoder never changes the keys and values of
earlier positions, so ``encode`` with a prior projects only the new rows and
appends them; a bidirectional one re-encodes every frame. Either way the
encoding records the rows this call ran (``rows_encoded``). The decoder has
one forward, ``_advance``, which extends each row of a ``DecState`` block
by one or more positions. ``dec_init`` runs it from the encoding's empty
state (``_empty``), one row over bos and the whole forced prefix, as the
attention dump does; ``dec_advance`` runs it one position over many rows,
one per beam path, gathered by parent index. A ``DecState`` holds every
row's self-attention keys and values plus the encoding's cross-attention
keys and values, so it needs nothing else to advance.

Training packs a batch's real frames into one block of encoder rows, one
segment per utterance, and its kernel is one ``attention`` node that
attends within segments: no padded frame is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import BOS_ID, ConfigError, ContractViolation, Vocab, check_int
from .model import (
    EncoderStates,
    _check_block,
    _check_ids,
    _check_owner,
    _check_prefix,
    _check_prior,
)

UNIDIRECTIONAL = "unidirectional"  # causal encoder
BIDIRECTIONAL = "bidirectional"
LN_EPS = 1e-5
_SIZES = ("frame_dim", "vocab_size", "d_model", "heads", "ff_dim",
          "enc_layers", "dec_layers")


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
        for name in _SIZES:
            check_int(name, getattr(self, name), least=1)
        check_int("init_seed", self.init_seed, least=0)  # numpy takes no negative seed
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


def _frozen(a) -> np.ndarray:
    """A read-only copy of a, of a's dtype."""
    a = np.array(a)
    a.flags.writeable = False
    return a


# --- the attention kernel and the caches ---------------------------------------


def _heads(x: np.ndarray, h: int) -> np.ndarray:
    # (..., T, h * dh) -> (..., h, T, dh)
    return x.reshape(x.shape[:-1] + (h, -1)).swapaxes(-3, -2)


def _merge(x: np.ndarray) -> np.ndarray:
    # (..., h, T, dh) -> (rows, h * dh), the leading dimensions and T as rows
    return x.swapaxes(-3, -2).reshape(-1, x.shape[-3] * x.shape[-1])


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray,
            masked: np.ndarray | None = None,
            parts: list | None = None) -> np.ndarray:
    """Multi-head attention of queries q (..., heads, n, dh), which carry
    the score scale, over keys kt (..., heads, dh, m) and values v (...,
    heads, m, dh): the context (..., heads, n, dh). masked (n, m) is True
    where a query may not look, shared by every leading index; a row must
    keep one position unmasked.

    The weights are left unnormalized, e = exp(s - rowmax) in the scores'
    buffer, and the product e @ v is divided by e's row sums instead. With
    parts, (e, row sums) is appended to it for a caller that reads the
    weights e / sums."""
    e = q @ kt
    if masked is not None:
        np.copyto(e, -np.inf, where=masked)
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    sums = e.dot(ad.column(e.shape[-1], 1.0))
    if parts is not None:
        parts.append((e, sums))
    ctx = e @ v
    ctx /= sums
    return ctx


def _future(start: int, stop: int) -> np.ndarray | None:
    """The causal mask of query positions start..stop-1 over key positions
    0..stop-1: True where the key comes after the query. None for one query
    row, which has no key after it."""
    if stop - start == 1:
        return None
    return np.arange(stop) > np.arange(start, stop)[:, None]


def _grow(old: np.ndarray, new: np.ndarray, axis: int) -> np.ndarray:
    """old grown by new along its positions axis, the one place any cache
    grows. An empty cache takes new itself; old is never written, so a
    state that holds it keeps its numbers."""
    if not old.shape[axis]:
        return new
    return np.concatenate([old, new], axis=axis)


def _append(cache: list, l: int, kt: np.ndarray, v: np.ndarray) -> tuple:
    """Grow layer l's encoder-side (keys, values) in cache by the keys kt
    (heads, dh, rows) and the values v (heads, rows, dh); returns the grown
    pair."""
    old_k, old_v = cache[l]
    cache[l] = (_grow(old_k, kt, -1), _grow(old_v, v, -2))
    return cache[l]


def _split_qkv(qkv: np.ndarray, lead: tuple, h: int) -> np.ndarray:
    """Fused Q/K/V rows, T positions under the leading dimensions lead, as
    (*lead, 3, h, T, dh): the head-split queries, keys and values."""
    n = len(lead)
    x = qkv.reshape(lead + (-1, 3, h, qkv.shape[-1] // (3 * h)))
    return x.transpose(*range(n), n + 1, n + 2, n, n + 3)


# --- the weight set and the layers ---------------------------------------------


def fold(cfg: TransformerConfig, p) -> dict:
    """The weight set the layers run, derived from the stored parameters p
    (arrays, or leaf Tensors for training): name -> (weights, bias) of each
    projection, plus the scaled token embedding table ``tok_emb``.

    A layer norm's gain g and bias c are folded into the projection (W, b)
    it feeds: LN(x) @ W + b == normalize(x) @ (g[:, None] * W) + (c @ W + b).
    So are ``ln1`` into a fused (d, 3d) Q/K/V (``enc{l}_qkv``,
    ``dec{l}_sqkv``), the encoder's ``ln2`` and the decoder's ``ln3`` into
    ``ff1``, the decoder's ``ln2`` into ``cq``, ``enc_lnf`` into
    ``cross_kv``, every decoder layer's cross keys and values side by side,
    (d, dec_layers * 2d), and ``dec_lnf`` into ``out``. The query columns
    carry 1/sqrt(head_dim)."""
    d = cfg.d_model
    s = 1.0 / math.sqrt(cfg.head_dim)

    def ln_into(ln: str, w, b) -> tuple:
        return ad.reshape(p[f"{ln}_g"], (d, 1)) * w, p[f"{ln}_b"] @ w + b

    def scaled(proj: tuple) -> tuple:
        return proj[0] * s, proj[1] * s

    def cat(*projs: tuple) -> tuple:
        return (ad.concat([wt for wt, _ in projs]),
                ad.concat([b for _, b in projs]))

    def ffn(pre: str, ln: str) -> dict:
        return {
            f"{pre}ff1": ln_into(ln, p[f"{pre}ff1_w"], p[f"{pre}ff1_b"]),
            f"{pre}ff2": (p[f"{pre}ff2_w"], p[f"{pre}ff2_b"]),
        }

    w = {
        "enc_in": (p["enc_in_w"], p["enc_in_b"]),
        "tok_emb": p["tok_emb"] * math.sqrt(d),
        "out": ln_into("dec_lnf", p["out_w"], p["out_b"]),
    }
    for l in range(cfg.enc_layers):
        e = f"enc{l}_"
        q, k, v, o = ((p[f"{e}w{n}"], p[f"{e}b{n}"]) for n in "qkvo")
        w[e + "qkv"] = ln_into(e + "ln1", *cat(scaled(q), k, v))
        w[e + "o"] = o
        w.update(ffn(e, e + "ln2"))
    cross = []
    for l in range(cfg.dec_layers):
        e = f"dec{l}_"
        sq, sk, sv, so, cq, ck, cv, co = (
            (p[e + n], p[f"{e}b{n}"])
            for n in ("sq", "sk", "sv", "so", "cq", "ck", "cv", "co"))
        w[e + "sqkv"] = ln_into(e + "ln1", *cat(scaled(sq), sk, sv))
        w[e + "so"] = so
        w[e + "cq"] = ln_into(e + "ln2", *scaled(cq))
        w[e + "co"] = co
        w.update(ffn(e, e + "ln3"))
        cross += [ck, cv]
    w["cross_kv"] = ln_into("enc_lnf", *cat(*cross))
    return w


# Each layer is written once, with _lin, ad.normalize, ad.relu and
# ad.log_softmax, so it runs on plain arrays for inference and on Tensors for
# training. Only the attention kernel differs by caller: attend(l, qkv) takes
# layer l's fused (rows, 3 d_model) Q/K/V rows and cross(l, q) its query
# rows, and each returns the (rows, d_model) context rows.


def _lin(w: dict, name: str, x, res=None):
    """x @ W + b of projection name, plus the residual rows res if given.
    On arrays the product is ndarray.dot, which makes the same BLAS call as
    @ for 2-D operands at about half its dispatch cost, and the sums are in
    place, so no second (rows, n) array is made; on Tensors each step is a
    node."""
    wt, b = w[name]
    y = x @ wt if isinstance(wt, Tensor) else x.dot(wt)
    y += b
    if res is not None:
        y += res
    return y


def _norm(x):
    return ad.normalize(x, LN_EPS)


def _ffn(w: dict, pre: str, x):
    """x plus its feed-forward block."""
    f = ad.relu(_lin(w, pre + "ff1", _norm(x)))
    return _lin(w, pre + "ff2", f, x)


def _enc_in(w: dict, frames, pos):
    """Encoder input rows: projected frames plus their position encodings."""
    return _lin(w, "enc_in", frames, pos)


def _dec_in(w: dict, ids, pos):
    """Decoder input rows: scaled token embeddings plus their position
    encodings."""
    y = ad.embedding(w["tok_emb"], ids)
    y += pos
    return y


def _enc_layer(w: dict, l: int, x, attend):
    """One pre-norm encoder block over the rows x."""
    e = f"enc{l}_"
    x = _lin(w, e + "o", attend(l, _lin(w, e + "qkv", _norm(x))), x)
    return _ffn(w, e, x)


def _dec_layer(w: dict, l: int, y, attend, cross):
    """One pre-norm decoder block over the rows y: self-attention,
    cross-attention to the encoder, feed-forward."""
    e = f"dec{l}_"
    y = _lin(w, e + "so", attend(l, _lin(w, e + "sqkv", _norm(y))), y)
    y = _lin(w, e + "co", cross(l, _lin(w, e + "cq", _norm(y))), y)
    return _ffn(w, e, y)


def _logps(w: dict, y):
    """Next-token log-probabilities of the decoder's output rows."""
    return ad.log_softmax(_lin(w, "out", _norm(y)))


@dataclass(eq=False)
class TransformerEncoding(EncoderStates):
    """An encoding as the transformer's decoder reads it: per encoder layer
    the self-attention (keys, values) and per decoder layer the
    cross-attention (keys, values) of the frames_covered rows, split by
    head, keys (heads, head_dim, frames) and values (heads, frames,
    head_dim), contiguous. The final encoder layer norm reaches the decoder
    folded into the cross-attention projection, so no output row is kept. A
    causal encode extends both into new arrays; no array of an encoding is
    written after it is made."""

    layer_kv: tuple = ()
    cross_kv: tuple = ()


@dataclass(frozen=True)
class DecState:
    """Immutable incremental decoder state of a block of rows that have all
    consumed the same positions, over the encoding it was made with."""

    owner: object  # the producing model's ownership token
    pos: int  # consumed input positions of every row, bos included
    kv: tuple  # per layer: self-attn keys and values, (rows, 2, heads, pos, dh)
    cross: tuple  # the encoding's TransformerEncoding.cross_kv


class TinyTransformer:
    """The transformer over frozen parameters: ``params`` maps each name to a
    read-only copy of the array it was built with, so the weight set derived
    from them (``weights``, once per instance, on first use) cannot go
    stale. A changed model is a new instance."""

    def __init__(
        self,
        cfg: TransformerConfig,
        vocab: Vocab,
        params: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if len(vocab) != cfg.vocab_size:
            raise ConfigError(
                f"vocab has {len(vocab)} entries, config says {cfg.vocab_size}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.params = MappingProxyType({
            k: _frozen(v)
            for k, v in (init_params(cfg) if params is None else params).items()
        })
        self._owner = object()  # held by every state this instance makes
        self._pos_table = np.zeros((0, cfg.d_model))

    @cached_property
    def weights(self) -> dict:
        return fold(self.cfg, self.params)

    def __reduce__(self):
        # a pickled model (a sweep worker's) is rebuilt from its parameters
        return TinyTransformer, (self.cfg, self.vocab, dict(self.params))

    # --- shared pieces ------------------------------------------------------

    def _pos(self, upto: int) -> np.ndarray:
        if upto > len(self._pos_table):
            self._pos_table = sinusoid_table(
                max(upto, 2 * len(self._pos_table), 64), self.cfg.d_model
            )
        return self._pos_table[:upto]

    # --- encoder ------------------------------------------------------------

    def encode(
        self, frames: np.ndarray, prior: TransformerEncoding | None = None, *,
        utt_id: str | None = None, frame_period_sec: float | None = None,
    ) -> TransformerEncoding:
        return self._encode(frames, prior, utt_id, frame_period_sec)

    def _encode(
        self, frames: np.ndarray, prior: TransformerEncoding | None = None,
        utt_id: str | None = None, frame_period_sec: float | None = None,
        parts: list | None = None,
    ) -> TransformerEncoding:
        """encode; with parts, each layer's self-attention weights of the
        rows it encoded, as _attend's (e, row sums) over (heads, new rows,
        all rows), are appended to it. A causal encoder extends its prior:
        it projects only the new rows and appends their keys and values to
        each layer's cache, and their cross-attention keys and values to
        each decoder layer's. A bidirectional one re-encodes all."""
        cfg, w, h = self.cfg, self.weights, self.cfg.heads
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
            start = prior.frames_covered
            kv, cross = list(prior.layer_kv), list(prior.cross_kv)
        else:
            start = 0
            empty = (np.zeros((h, cfg.head_dim, 0)), np.zeros((h, 0, cfg.head_dim)))
            kv = [empty] * cfg.enc_layers
            cross = [empty] * cfg.dec_layers
        if total > start:
            future = _future(start, total) if causal else None

            def attend(l, qkv):
                q, k, v = _split_qkv(qkv, (), h)
                kt, v = _append(kv, l, np.ascontiguousarray(k.swapaxes(-1, -2)),
                                np.ascontiguousarray(v))
                return _merge(_attend(q, kt, v, future, parts))

            x = _enc_in(w, frames[start:], self._pos(total)[start:])
            for l in range(cfg.enc_layers):
                x = _enc_layer(w, l, x, attend)
            # every decoder layer's cross keys and values in one product,
            # laid out once per encode: (layers, heads, dh, rows) keys and
            # (layers, heads, rows, dh) values
            ckv = _lin(w, "cross_kv", _norm(x)).reshape(
                len(x), cfg.dec_layers, 2, h, cfg.head_dim)
            ck = np.ascontiguousarray(ckv[:, :, 0].transpose(1, 2, 3, 0))
            cv = np.ascontiguousarray(ckv[:, :, 1].transpose(1, 2, 0, 3))
            for l in range(cfg.dec_layers):
                _append(cross, l, ck[l], cv[l])
        return TransformerEncoding(
            total, frame_period_sec, utt_id, self._owner, rows_encoded=total - start,
            layer_kv=tuple(kv), cross_kv=tuple(cross),
        )

    # --- decoder ------------------------------------------------------------

    def _empty(self, enc: TransformerEncoding) -> DecState:
        """The state dec_init's forward starts from: pos 0, one row of empty
        self-attention caches, and the encoding's cross-attention keys and
        values."""
        _check_owner(self, enc, "encoder states")
        if enc.frames_covered == 0:
            raise ContractViolation("cannot decode with no encoder states")
        empty = np.zeros((1, 2, self.cfg.heads, 0, self.cfg.head_dim))
        return DecState(self._owner, 0, (empty,) * self.cfg.dec_layers, enc.cross_kv)

    def _advance(
        self, state: DecState, rows: Sequence[int], ids: np.ndarray,
        parts: list | None = None,
    ) -> tuple[DecState, np.ndarray]:
        """The decoder forward: row i of the (B, T) token ids extends row
        rows[i] of state by T positions, at positions state.pos ..
        state.pos + T - 1. Position t of a row attends to the row's cache
        and to positions 0..t of its block; the rows share state's
        cross-attention keys and values. Returns the grown state and the
        next-token log-probabilities (B, T, vocab). With parts, each
        layer's self-attention weights (B, heads, T, pos + T) and then its
        cross-attention weights (heads, B * T, frames), whose rows are the
        block's rows in order, position within row, are appended to it as
        _attend's (e, row sums)."""
        cfg, w, h = self.cfg, self.weights, self.cfg.heads
        b_sz, t_len = ids.shape
        pos = state.pos
        kv = [a[rows] for a in state.kv]
        future = _future(pos, pos + t_len)

        def attend(l, qkv):
            qkv = _split_qkv(qkv, (b_sz,), h)
            kv[l] = _grow(kv[l], qkv[:, 1:], -2)  # (B, 2, heads, pos + T, dh)
            return _merge(_attend(qkv[:, 0], kv[l][:, 0].swapaxes(-1, -2),
                                  kv[l][:, 1], future, parts))

        def attend_cross(l, q):
            # no per-row cache: the B*T rows attend to the shared encoder
            # keys and values like the query positions of one sequence
            return _merge(_attend(_heads(q, h), *state.cross[l], None, parts))

        # projections run on all B*T rows as one 2-D product
        y = _dec_in(w, ids, self._pos(pos + t_len)[pos:]).reshape(b_sz * t_len, -1)
        for l in range(cfg.dec_layers):
            y = _dec_layer(w, l, y, attend, attend_cross)
        state = DecState(self._owner, pos + t_len, tuple(kv), state.cross)
        return state, _logps(w, y).reshape(b_sz, t_len, -1)

    def dec_init(
        self, enc: TransformerEncoding, prefix: Sequence[int] = ()
    ) -> tuple[DecState, np.ndarray]:
        empty = self._empty(enc)
        ids = _check_ids([BOS_ID, *prefix], len(self.vocab), "token id")
        state, logps = self._advance(empty, [0], ids[None])
        return state, logps[0]

    def dec_advance(
        self, state: DecState, rows: Sequence[int], token_ids: Sequence[int]
    ) -> tuple[DecState, np.ndarray]:
        _check_owner(self, state, "decoder state")
        rows, ids = _check_block(
            rows, token_ids, len(state.kv[0]), len(self.vocab)
        )
        state, logps = self._advance(state, rows, ids[:, None])
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
        enc_parts, dec_parts = [], []
        empty = self._empty(self._encode(frames, parts=enc_parts))
        self._advance(empty, [0], np.array([[BOS_ID, *prefix]]), dec_parts)
        grids: dict[str, np.ndarray] = {}
        for l, (e, sums) in enumerate(enc_parts):
            for head, grid in enumerate(e / sums):
                grids[f"encoder_self.layer{l}.head{head}"] = grid
        for l in range(self.cfg.dec_layers):
            # one row: the query rows are bos and the prefix
            (se, ss), (ce, cs) = dec_parts[2 * l : 2 * l + 2]
            for head, (own, cross) in enumerate(zip(se[0] / ss[0], ce / cs)):
                grids[f"decoder_self.layer{l}.head{head}"] = own
                grids[f"cross.layer{l}.head{head}"] = cross
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


def leaf_tensors(params: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in params.items()}


def _segment_rows(off: np.ndarray, segs: list, n: int) -> np.ndarray:
    """The row indices of segments segs, each n rows from its offset in
    off, in segment order."""
    return (off[segs][:, None] + np.arange(n)).ravel()


def attention(
    q: Tensor,
    heads: int,
    q_off: np.ndarray,
    k_off: np.ndarray,
    causal: bool = False,
    kv: Tensor | None = None,
) -> Tensor:
    """Multi-head dot-product attention as one autodiff node over segments
    of rows, each input being rows over its leading dimensions, with
    ``_attend`` as its kernel.

    Without kv, q holds a self-attention's fused (..., 3 d) [queries | keys
    | values] rows; with kv, q holds (..., d) query rows and kv the (..., 2 d)
    [keys | values] rows they attend to. The queries carry the score scale.
    Segment b's query rows q_off[b]:q_off[b+1] attend only to its key rows
    k_off[b]:k_off[b+1], and with ``causal`` its t-th query only to its keys
    0..t. The output is (..., d). No score between two segments is made, so
    a row gets exactly zero gradient from every other segment. Segments of
    one query length and one key length run as one batched ``_attend`` call
    (every decoder self-attention segment is one length), forward and
    backward. The backward works from the unnormalized weights e and their
    row sums that the forward kept: with the incoming gradient divided by
    the row sums, e stands where the normalized weights would."""
    fused = kv is None
    d = q.shape[-1] // 3 if fused else q.shape[-1]
    qa = q.data.reshape(-1, q.shape[-1])
    ka = qa[:, d:] if fused else kv.data.reshape(-1, 2 * d)
    qd, kd, vd = qa[:, :d], ka[:, :d], ka[:, d:]
    groups: dict[tuple[int, int], list[int]] = {}
    for b, shape in enumerate(zip(np.diff(q_off).tolist(), np.diff(k_off).tolist())):
        groups.setdefault(shape, []).append(b)
    out = np.zeros(qd.shape)
    saved = []  # per group: its rows, then head-split q, k, v, context, e, sums
    for (n, m), segs in groups.items():
        qr, kr = _segment_rows(q_off, segs, n), _segment_rows(k_off, segs, m)
        qb = _heads(qd[qr].reshape(len(segs), n, d), heads)
        kb, vb = (_heads(a[kr].reshape(len(segs), m, d), heads) for a in (kd, vd))
        parts: list = []
        ctx = _attend(qb, kb.swapaxes(-1, -2), vb,
                      _future(0, m) if causal else None, parts)
        out[qr] = _merge(ctx)
        saved.append((qr, kr, qb, kb, vb, ctx, *parts[0]))

    def bw(g):
        g = g.reshape(-1, d)
        gqa = np.zeros(qa.shape)
        gka = gqa[:, d:] if fused else np.zeros(ka.shape)
        gq, gk, gv = gqa[:, :d], gka[:, :d], gka[:, d:]
        for qr, kr, qb, kb, vb, ctx, e, sums in saved:
            gb = _heads(g[qr].reshape(qb.shape[0], -1, d), heads) / sums
            gv[kr] = _merge(e.swapaxes(-1, -2) @ gb)
            # softmax backward: sum_j dw_ij w_ij is gb_i . ctx_i
            gs = gb @ vb.swapaxes(-1, -2)
            gs -= (gb * ctx).sum(axis=-1, keepdims=True)
            gs *= e
            gq[qr] = _merge(gs @ kb)
            gk[kr] = _merge(gs.swapaxes(-1, -2) @ qb)
        if q.requires_grad:
            q._accum(gqa.reshape(q.shape))
        if not fused and kv.requires_grad:
            kv._accum(gka.reshape(kv.shape))

    parents = (q,) if fused else (q, kv)
    return ad._child(out.reshape(q.shape[:-1] + (d,)), parents, bw)


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
    through the layers inference runs, with ``attention`` as their kernel,
    on the weight set ``fold`` derives from the leaf tensors pt.

    The encoder runs on the real frames only, packed into one segment of
    rows per batch row; padded frames are never read. The decoder runs
    every (batch row, position) as one row of a segment per batch row, and
    every position is computed."""
    b_sz, tf, _ = frames.shape
    td = dec_in.shape[1]
    d = cfg.d_model
    n_frames = _frame_lengths(frame_mask, (b_sz, tf))
    enc_off = np.concatenate([[0], np.cumsum(n_frames)])
    dec_off = np.arange(b_sz + 1) * td
    causal = cfg.mode == UNIDIRECTIONAL
    w = fold(cfg, pt)

    def enc_self(l, qkv):
        return attention(qkv, cfg.heads, enc_off, enc_off, causal)

    def dec_self(l, qkv):
        return attention(qkv, cfg.heads, dec_off, dec_off, causal=True)

    row, pos = np.nonzero(frame_mask)  # every real frame, row by row
    x = _enc_in(w, frames[row, pos], sinusoid_table(tf, d)[pos])
    for l in range(cfg.enc_layers):
        x = _enc_layer(w, l, x, enc_self)
    cross_kv = _lin(w, "cross_kv", _norm(x))

    def dec_cross(l, q):
        kv = ad.columns(cross_kv, 2 * d * l, 2 * d * (l + 1))
        return attention(q, cfg.heads, dec_off, enc_off, kv=kv)

    y = _dec_in(w, dec_in, sinusoid_table(td, d)[None])
    y = ad.reshape(y, (b_sz * td, d))
    for l in range(cfg.dec_layers):
        y = _dec_layer(w, l, y, dec_self, dec_cross)
    return ad.reshape(_logps(w, y), (b_sz, td, cfg.vocab_size))


def training_loss(
    cfg: TransformerConfig,
    pt: dict[str, Tensor],
    batch: dict[str, np.ndarray],
    label_smoothing: float,
) -> Tensor:
    """Label-smoothed cross entropy summed over the real target tokens; a
    training step adds it over the shards of its batch and divides by the
    batch's token count."""
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
    return ad.sum_all(logp * w) * -1.0
