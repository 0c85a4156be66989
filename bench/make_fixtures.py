"""Train the model fixtures the workloads start from.

    python3 bench/make_fixtures.py [--only bidi|causal]

Every stage is seeded. The file digests are written to
``fixtures/manifest.json`` with each fixture's offline greedy token error
rate on 20 held-out streams; the benchmark refuses a fixture whose digest does
not match. Training took about 6 minutes (bidi) and 25 minutes (causal) on
one core of a 2-vCPU virtual machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

from spec import FIXTURES, LONG_SPEC, SHORT_SPEC  # first: pins BLAS threads

from streamdec import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    TinyTransformer,
    TrainConfig,
    TransformerConfig,
    gen_dataset,
    save_model,
    train,
)
from streamdec.data import task_vocab
from streamdec.training import token_error_rate


# Both fixtures share one architecture, the one the train workload trains.
def model_config(mode: str) -> TransformerConfig:
    return TransformerConfig(
        frame_dim=SHORT_SPEC.frame_dim, vocab_size=SHORT_SPEC.vocab_size + 3,
        d_model=32, heads=2, ff_dim=64, enc_layers=2, dec_layers=2,
        mode=mode, init_seed=0,
    )


# Per fixture: encoder mode, then (task, train-set size, draw seed, config)
# per stage. The causal fixture starts on short streams, where it learns
# fast, and is then trained on the stream-long length range.
RECIPES = {
    "bidi": (BIDIRECTIONAL, [
        (SHORT_SPEC, 1200, 101, TrainConfig(
            learning_rate=2e-3, warmup_steps=100, batch_size=16,
            total_steps=1000, seed=0)),
    ]),
    "causal": (UNIDIRECTIONAL, [
        (SHORT_SPEC, 1200, 102, TrainConfig(
            learning_rate=2e-3, warmup_steps=100, batch_size=16,
            total_steps=300, seed=0)),
        (LONG_SPEC, 400, 103, TrainConfig(
            learning_rate=2e-3, warmup_steps=50, batch_size=8,
            total_steps=1200, seed=1)),
    ]),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build(name: str) -> dict:
    mode, stages = RECIPES[name]
    model = TinyTransformer(model_config(mode), task_vocab(stages[0][0]))
    for task, count, data_seed, cfg in stages:
        t0 = time.perf_counter()
        model, curve = train(model, gen_dataset(task, count, data_seed), cfg)
        print(f"{name}: {cfg.total_steps} steps on {task.min_tokens}-"
              f"{task.max_tokens} tokens, final loss {curve[-1][1]:.4f}, "
              f"{time.perf_counter() - t0:.0f} s", flush=True)
    last_task = stages[-1][0]
    ter = token_error_rate(model, gen_dataset(last_task, 20, 999))
    print(f"{name}: offline greedy TER on 20 held-out streams {ter:.4f}")
    path = FIXTURES / f"{name}.bin"
    save_model(model, str(path))
    return {"file": path.name, "sha256": sha256(path), "mode": mode,
            "heldout_ter": round(ter, 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(RECIPES))
    args = ap.parse_args()
    manifest_path = FIXTURES / "manifest.json"
    manifest = (json.loads(manifest_path.read_text())
                if manifest_path.exists() else {})
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name in [args.only] if args.only else sorted(RECIPES):
        manifest[name] = build(name)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
