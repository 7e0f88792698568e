"""Topic-conditioned masked sentence generation: baseline, parallel, and
conditional decoders with a TextCNN-style topic classifier."""

from artdesc.decoder.classifier import classify_distributions, classify_tokens, predict_topic
from artdesc.decoder.config import VARIANTS, DecoderConfig
from artdesc.decoder.generate import beam_decode, generate, greedy_decode
from artdesc.decoder.model import decoder_input, init_decoder_params, init_state
from artdesc.decoder.train import (
    TrainingItem,
    build_training_items,
    load_decoder_checkpoint,
    save_decoder_checkpoint,
    sequence_loss,
    train_conditional,
    train_decoder,
)
from artdesc.training import TrainConfig

__all__ = [
    "DecoderConfig",
    "TrainConfig",
    "TrainingItem",
    "VARIANTS",
    "beam_decode",
    "build_training_items",
    "classify_distributions",
    "classify_tokens",
    "decoder_input",
    "generate",
    "greedy_decode",
    "init_decoder_params",
    "init_state",
    "load_decoder_checkpoint",
    "predict_topic",
    "save_decoder_checkpoint",
    "sequence_loss",
    "train_conditional",
    "train_decoder",
]
