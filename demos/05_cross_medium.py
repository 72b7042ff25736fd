"""Steer with the learned estimator in mediums it never saw in training.

Trains on gelatin insertions only, then runs paired closed-loop trials
in gelatin, a softer high-friction brain-like medium, and a stiffer
very-high-friction lung-like medium, against the torsion-blind filter
baseline. The learned estimator transfers because the windup it learned
to infer from the motion signature scales with the same physics.

Runtime is a few minutes at this reduced scale.
"""

import tempfile

from needleroll.dataset import generate_dataset, to_training_sequences
from needleroll.evaluate import group_stats, run_batch
from needleroll.lstm import TrainConfig, train
from needleroll.plant import MEDIUM_PRESETS

gelatin = MEDIUM_PRESETS["gelatin"]

with tempfile.TemporaryDirectory(prefix="needleroll_demo_") as root:
    print("generating 24 gelatin insertions ...")
    manifest = generate_dataset(24, gelatin, seed=21, root=root)
    train_seqs, val_seqs = to_training_sequences(root, manifest)

print("training (reduced scale) ...")
config = TrainConfig(epochs=150, hidden_size=24, seed=0)
model, log = train(train_seqs, val_seqs, config)
print(f"best val RMSE {min(r.val_rmse for r in log):.4f}")

for name, n_trials in (("gelatin", 6), ("brain", 6), ("lung", 6)):
    medium = MEDIUM_PRESETS[name]
    records = run_batch(("lstm", "ekf"), medium, n_trials=n_trials,
                        seed=100, model=model)
    print(f"\n{name} ({n_trials} paired trials):")
    stats = {s.estimator: s for s in group_stats(records)}
    for estimator in ("lstm", "ekf"):
        print(f"  {estimator:4s}: targeting error "
              f"{stats[estimator].error_mean:6.3f} mm, mean angular error "
              f"{stats[estimator].angular_mean:.3f} rad")
