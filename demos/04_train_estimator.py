"""Train a small roll estimator end to end and watch the loss fall.

Generates a compact dataset of ground-truth-steered insertions, trains a
reduced-size recurrent estimator for a couple of minutes, and prints the
validation curve. The full-size configuration used for evaluation lives
in the command line interface; this is the same pipeline at toy scale.
"""

import tempfile

from needleroll.dataset import generate_dataset, to_training_sequences
from needleroll.lstm import TrainConfig, train
from needleroll.plant import MEDIUM_PRESETS

medium = MEDIUM_PRESETS["gelatin"]

with tempfile.TemporaryDirectory(prefix="needleroll_demo_") as root:
    print(f"generating 16 insertions in {root} ...")
    manifest = generate_dataset(16, medium, seed=11, root=root)
    train_seqs, val_seqs = to_training_sequences(root, manifest)
steps = sum(xs.shape[0] for xs, _ in train_seqs)
print(f"train {len(train_seqs)} episodes ({steps} steps), val {len(val_seqs)}")

config = TrainConfig(epochs=150, hidden_size=16, seed=0)
model, log = train(train_seqs, val_seqs, config)
for row in log[:: max(1, len(log) // 12)]:
    print(f"  epoch {row.epoch:3d}: train loss {row.train_loss:.4f}, "
          f"val RMSE {row.val_rmse:.4f}")
best = min(r.val_rmse for r in log)
print(f"best val RMSE {best:.4f} on sin/cos of tip roll")
print("longer training at full hidden size drives this well under 0.10")
