"""Decoder configuration."""

from __future__ import annotations

from dataclasses import dataclass

from artdesc.errors import ConfigError

VARIANTS = ("baseline", "parallel", "conditional")


@dataclass
class DecoderConfig:
    """Sizes for one decoder family.

    Desk-scale defaults; the reference setting (hidden and embeddings 512,
    topic embedding 20, L=14x14 with D=2048 features) is accepted through the
    same fields. The attention MLP is ``hidden_size`` wide; the conditional
    variant's topic classifier has 16 filters for each of the windows 2 and
    3 over embeddings ``embed_size`` wide (see classifier.py).
    """

    variant: str
    vocab_size: int
    feature_dim: int
    hidden_size: int = 64
    embed_size: int = 64
    topic_embed_size: int = 8
    max_len: int = 20

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown decoder variant '{self.variant}'")
        for name in ("vocab_size", "feature_dim", "hidden_size", "embed_size", "topic_embed_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
