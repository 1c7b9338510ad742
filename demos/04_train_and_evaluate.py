"""Two-stage training on the planted-motif benchmark.

Stage 1 pre-trains the auto-encoder and dictionary projection on
unlabelled pairs; stage 2 fine-tunes everything with the classification
loss, early-stopping on validation ROC-AUC and restoring the best epoch.

Run:  python demos/04_train_and_evaluate.py   (about a minute on a laptop)
"""

from caster.corpus import atom_tokenize
from caster.featurize import featurize_pairs
from caster.model import (
    CasterModel,
    LossWeights,
    ModelConfig,
    TrainingConfig,
    pretrain,
    save_checkpoint,
    train,
)
from caster.spm import mine_vocabulary
from caster.synthetic import planted_motif_dataset, unlabelled_pair_corpus

data = planted_motif_dataset(n_pairs=2000, n_compounds=300, seed=0)
vocab = mine_vocabulary([atom_tokenize(s) for s in data.compounds], eta=50)
print(f"dataset: {len(data.pairs)} labelled pairs over k={vocab.k} substructures")

config = ModelConfig(
    latent_dim=8,
    encoder_hidden=(128, 128),
    decoder_hidden=(128, 128),
    predictor_hidden=(256, 128, 64),
)
weights = LossWeights()  # alpha=0.1, beta=0.1, gamma=1, lambda1=1e-5, lambda2=0.1
model = CasterModel(vocab.k, config, weights, seed=0, vocab_hash=vocab.content_hash())
tconfig = TrainingConfig(seed=0, batch_size=256, max_epochs=20, patience=5, pretrain_epochs=1)

unlab = unlabelled_pair_corpus(5000, 800, seed=1)
print(f"\nstage 1: pre-training on {len(unlab)} unlabelled pairs")
history = pretrain(model, unlab, vocab, tconfig)
print(f"  reconstruction loss: first batch {history[0]['recon']:.3f} "
      f"-> last batch {history[-1]['recon']:.3f}")

print("\nstage 2: supervised fine-tuning (7:1:2 split, ROC-AUC early stopping)")
result = train(model, data.pairs, vocab, tconfig)
for row in result.history:
    print(f"  epoch {row['epoch']:2d}: loss={row['loss']:.4f} "
          f"recon={row['recon']:.3f} proj={row['proj']:.4f} clf={row['clf']:.4f} "
          f"val_auc={row['val_roc_auc']:.4f}")

print(f"\nbest epoch: {result.best_epoch}")
print(f"test metrics: roc_auc={result.test_metrics['roc_auc']:.4f} "
      f"pr_auc={result.test_metrics['pr_auc']:.4f} f1={result.test_metrics['f1']:.4f}")

save_checkpoint("/tmp/demo_model.ckpt", model)
print("\ncheckpoint written to /tmp/demo_model.ckpt (a JSON header line, raw float64 arrays and a CRC-32; exact round-trip)")
