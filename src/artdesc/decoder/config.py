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
    same fields.
    """

    variant: str
    vocab_size: int
    feature_dim: int
    hidden_size: int = 64
    embed_size: int = 64
    topic_embed_size: int = 8
    attn_hidden_size: int | None = None  # defaults to hidden_size
    classifier_filters: int = 16
    classifier_embed_size: int | None = None  # defaults to embed_size
    classifier_windows: tuple[int, ...] = (2, 3)
    max_len: int = 20

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown decoder variant '{self.variant}'")
        if self.attn_hidden_size is None:
            self.attn_hidden_size = self.hidden_size
        if self.classifier_embed_size is None:
            self.classifier_embed_size = self.embed_size
        self.classifier_windows = tuple(self.classifier_windows)
        for name in (
            "vocab_size",
            "feature_dim",
            "hidden_size",
            "embed_size",
            "topic_embed_size",
            "attn_hidden_size",
            "classifier_filters",
            "classifier_embed_size",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if not self.classifier_windows or min(self.classifier_windows) < 1:
            raise ConfigError(f"bad classifier windows {self.classifier_windows}")
