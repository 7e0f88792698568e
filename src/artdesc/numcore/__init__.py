"""Minimal differentiable numerics: float64 tensors on a reverse-mode tape,
the recurrent/attention/output layers the generation models need, and Adam."""

from artdesc.numcore.tensor import (
    Tensor,
    add_n,
    affine,
    attend_lstm_seq,
    backward,
    concat,
    constant,
    cross_entropy,
    embedding,
    linear,
    log_softmax_np,
    lstm_cell_np,
    lstm_seq,
    lstm_step,
    max_rows,
    mlp_attention,
    relu_t,
    scale,
    softmax,
    softmax_np,
    tanh_t,
    vecmat,
    windows,
)
from artdesc.numcore.params import ParamStore, adam_step, scheduled_lr, uniform_init

__all__ = [
    "ParamStore",
    "Tensor",
    "adam_step",
    "add_n",
    "affine",  # exported for perfbench's probes alone (ROADMAP item 5)
    "attend_lstm_seq",
    "backward",
    "concat",
    "constant",
    "cross_entropy",
    "embedding",
    "linear",
    "log_softmax_np",
    "lstm_cell_np",
    "lstm_seq",
    "lstm_step",  # exported for perfbench's probes alone (ROADMAP item 5)
    "max_rows",
    "mlp_attention",  # exported for perfbench's probes alone (ROADMAP item 5)
    "relu_t",
    "scale",
    "scheduled_lr",
    "softmax",
    "softmax_np",
    "tanh_t",
    "uniform_init",
    "vecmat",
    "windows",
]
