"""Streaming invariants of the real transformer, over drawn configurations.

Random-init micro ``TinyTransformer``s of both encoder modes stream random
frames chunk by chunk under any strategy spec, beam width, cap and
``length_normalize``, and every chunk is checked against searches that
share no state with the session:

* a decoded chunk's ranked hypotheses equal a fresh ``beam_search`` on a
  one-shot encoding of the same frames with the same forced prefix (cache
  reuse is exact), and that search equals ``oracles.scalar_beam_search``,
  which carries one decoder state per path and advances it by one-row
  ``dec_advance`` calls (the batched beam's parent gather is exact):
  tokens equal, log-probs within 1e-12;
* a chunk the session did not encode (its rule did not read the
  continuation) returns an empty output, and skipping it changes nothing: the session's commit log and per-chunk commits equal
  ``oracles.eager_session_log``, which encodes and decodes every chunk;
* each chunk commits what ``oracles.reference_commits`` says its rule
  commits, given the continuations ``step_chunk`` returned and None for
  the chunks it did not decode;
* a causal session encodes each frame position exactly once, and every
  session's final encoding equals a one-shot ``encode`` of all its frames
  on every cached key and value array: bit for bit for a bidirectional
  model, which re-encodes, and within 1e-12 for a causal one, grown across
  the decoded chunks (undecoded ones add nothing);
* commits never shrink and never exceed the cap.

On 3-word models with a cap of at most 3 tokens, a beam wider than the
whole search space finds the optimum of ``oracles.beam_oracle``, which
scores every token sequence by ``token_walk``, with and without length
normalisation: the early stop never cuts off a better path.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdec.core import EOS_ID, ChunkOutput, Utterance, Vocab
from streamdec.decoder import BeamConfig, Session, beam_search, step_chunk
from streamdec.transformer import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    TinyTransformer,
    TransformerConfig,
    init_params,
)

from .oracles import (
    beam_oracle,
    cache_gap,
    eager_session_log,
    reference_commits,
    scalar_beam_search,
)
from .test_strategies import configs

FRAME_PERIOD = 0.25  # a power of two: every chunk length is exact


@st.composite
def micro_models(draw, n_words=st.integers(1, 4)) -> TinyTransformer:
    vocab = Vocab.build([f"w{i}" for i in range(draw(n_words))])
    heads = draw(st.integers(1, 2))
    cfg = TransformerConfig(
        frame_dim=draw(st.integers(1, 3)),
        vocab_size=len(vocab),
        d_model=heads * draw(st.integers(1, 3)),
        heads=heads,
        ff_dim=draw(st.integers(1, 6)),
        enc_layers=draw(st.integers(1, 2)),
        dec_layers=draw(st.integers(1, 2)),
        mode=draw(st.sampled_from([UNIDIRECTIONAL, BIDIRECTIONAL])),
        init_seed=draw(st.integers(0, 2**16)),
    )
    # a drawn penalty on eos: a random model's eos is about as likely as any
    # word, so without it most searches stop after a step or two and few
    # beam steps reorder rows
    params = init_params(cfg)
    params["out_b"][EOS_ID] = -draw(st.floats(0.0, 8.0))
    return TinyTransformer(cfg, vocab, params)


beams = st.builds(
    BeamConfig,
    beam_width=st.integers(1, 4),
    cap_tokens_per_sec=st.floats(1.0, 6.0),
    length_normalize=st.booleans(),
)


def assert_same_hypotheses(got, want):
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert g.finished == w.finished
        assert abs(g.log_prob - w.log_prob) <= 1e-12
        np.testing.assert_allclose(
            g.step_log_probs, w.step_log_probs, rtol=0, atol=1e-12
        )


@settings(max_examples=100, derandomize=True)
@given(
    model=micro_models(),
    strategy=configs,
    beam=beams,
    n_frames=st.integers(1, 12),
    chunk_frames=st.integers(1, 4),
    frames_seed=st.integers(0, 2**16),
)
def test_streaming_invariants(model, strategy, beam, n_frames, chunk_frames, frames_seed):
    frames = np.random.default_rng(frames_seed).normal(
        size=(n_frames, model.cfg.frame_dim)
    )
    utt = Utterance("u", frames, ("w0",), frame_period_sec=FRAME_PERIOD)
    chunk_len = chunk_frames * FRAME_PERIOD
    session = Session(model, utt, strategy, chunk_len, beam)
    commits, continuations = [], []
    for chunk in session.chunks():
        prefix = session.committed_ids
        out, committed = step_chunk(session, chunk)
        commits.append(committed)
        if session.enc is None or session.enc.frames_covered < chunk.end:
            assert out == ChunkOutput(chunk.index, (), ())
            assert committed == ()
            continuations.append(None)
            continue
        continuations.append(out.tokens)

        # the session's search, replayed on its own (grown) encoding
        ranked = beam_search(model, session.enc, prefix, beam)
        best = ranked[0]
        assert out.tokens == tuple(map(model.vocab.token_of, best.tokens[len(prefix):]))
        assert out.log_probs == best.step_log_probs[len(prefix):]
        one_shot = model.encode(frames[: chunk.end], frame_period_sec=FRAME_PERIOD)
        fresh = beam_search(model, one_shot, prefix, beam)
        assert_same_hypotheses(ranked, fresh)
        assert_same_hypotheses(fresh, scalar_beam_search(model, one_shot, prefix, beam))

        assert session.committed_ids[: len(prefix)] == prefix
        cap = math.floor(beam.cap_tokens_per_sec * chunk.end * FRAME_PERIOD + 1e-9)
        assert len(session.committed_ids) <= cap

    eager = eager_session_log(model, utt, strategy, chunk_len, beam)
    assert (session.log, commits) == eager
    assert commits == reference_commits(strategy, continuations, chunk_len)
    final = session.enc
    one_shot = model.encode(frames, frame_period_sec=FRAME_PERIOD)
    assert final.frames_covered == one_shot.frames_covered == n_frames
    gap = cache_gap(final, one_shot, n_frames)
    if model.cfg.mode == UNIDIRECTIONAL:
        assert session.positions_encoded == n_frames
        assert gap <= 1e-12
    else:
        assert gap == 0.0


@settings(max_examples=150, derandomize=True)
@given(
    model=micro_models(n_words=st.just(3)),
    n_frames=st.integers(1, 12),
    max_total=st.integers(1, 3),
    beam_width=st.integers(40, 64),  # 1 + 3 + 9 + 27 sequences at most
    length_normalize=st.booleans(),
    frames_seed=st.integers(0, 2**16),
)
def test_whole_space_beam_finds_the_optimum(
    model, n_frames, max_total, beam_width, length_normalize, frames_seed
):
    frames = np.random.default_rng(frames_seed).normal(
        size=(n_frames, model.cfg.frame_dim)
    )
    enc = model.encode(frames, frame_period_sec=FRAME_PERIOD)
    beam = BeamConfig(beam_width, max_total / enc.audio_sec, length_normalize)
    best = beam_search(model, enc, (), beam)[0]
    tokens, score = beam_oracle(model, enc, beam)[0]
    assert best.tokens == tokens
    assert abs(best.log_prob - score) <= 1e-12
