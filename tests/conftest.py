import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from streamdec.core import Vocab
from streamdec.data import SyntheticTaskSpec, gen_dataset, task_vocab
from streamdec.model import SyntheticAlignedModel
from streamdec.transformer import UNIDIRECTIONAL, TinyTransformer, TransformerConfig

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def small_spec() -> SyntheticTaskSpec:
    return SyntheticTaskSpec(
        vocab_size=10,
        min_tokens=3,
        max_tokens=6,
        min_frames_per_token=20,
        max_frames_per_token=30,
        frame_dim=8,
    )


@pytest.fixture(scope="session")
def small_corpus(small_spec):
    return gen_dataset(small_spec, 12, seed=21)


@pytest.fixture(scope="session")
def stable_model(small_spec) -> SyntheticAlignedModel:
    # instability 0: emissions are exact wherever the span is fully covered
    return SyntheticAlignedModel.from_task(
        small_spec, 12, seed=21, instability_frames=0
    )


@pytest.fixture(scope="session")
def unstable_model(small_spec) -> SyntheticAlignedModel:
    return SyntheticAlignedModel.from_task(
        small_spec, 12, seed=21, instability_frames=10
    )


@pytest.fixture(scope="session")
def micro_vocab() -> Vocab:
    return Vocab.build([f"w{i:02d}" for i in range(6)])


@pytest.fixture(scope="session")
def micro_cfg(micro_vocab) -> TransformerConfig:
    return TransformerConfig(
        frame_dim=4,
        vocab_size=len(micro_vocab),
        d_model=8,
        heads=2,
        ff_dim=12,
        enc_layers=1,
        dec_layers=1,
        mode=UNIDIRECTIONAL,
        init_seed=5,
    )


@pytest.fixture(scope="session")
def micro_model(micro_cfg, micro_vocab) -> TinyTransformer:
    return TinyTransformer(micro_cfg, micro_vocab)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the run, one per criterion."""
    try:
        from .test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for line in RESULTS:
        terminalreporter.line(line)
