"""Knowledge filling: candidate extraction from retrieved articles and
attributes, fill-input encoding, and the trained slot scorer."""

from artdesc.filler.candidates import Candidate, CandidateSet, extract_candidates
from artdesc.filler.encoding import build_filler_vocab, encode_fill_input
from artdesc.filler.model import FillerConfig, init_filler_params, slot_scores
from artdesc.filler.train import (
    FillPair,
    build_fill_pairs,
    fill_pair_loss,
    fill_slots,
    load_filler_checkpoint,
    record_candidates,
    save_filler_checkpoint,
    train_filler,
)

__all__ = [
    "Candidate",
    "CandidateSet",
    "FillPair",
    "FillerConfig",
    "build_fill_pairs",
    "build_filler_vocab",
    "encode_fill_input",
    "extract_candidates",
    "fill_pair_loss",
    "fill_slots",
    "init_filler_params",
    "load_filler_checkpoint",
    "record_candidates",
    "save_filler_checkpoint",
    "slot_scores",
    "train_filler",
]
