"""Regenerate the fixed generation checkpoint used by the gen workloads.

Run from the repository root:

    python3 perfbench/make_checkpoint.py

It trains the default model on ``synthetic.toy_dataset`` (50 copies) with a
fixed seed and epoch count and writes ``perfbench/gen_model.ckpt``.  The
checkpoint is committed so that the gen workloads do not drift when the
trainer changes; regenerate it only on purpose, and expect the gen output
digests to change when you do.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pocketflow import ModelConfig, TrainConfig, Vocabulary, train  # noqa: E402
from pocketflow.synthetic import toy_dataset  # noqa: E402

CHECKPOINT = HERE / "gen_model.ckpt"
EPOCHS = 200
SEED = 0


def main() -> int:
    vocab = Vocabulary.default()
    result = train(toy_dataset(vocab, n_copies=50), ModelConfig(vocab=vocab), TrainConfig(epochs=EPOCHS, seed=SEED))
    result.model.save(CHECKPOINT)
    print(f"wrote {CHECKPOINT.name}: {EPOCHS} epochs, final nll {result.final_nll!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
