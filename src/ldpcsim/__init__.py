"""LDPC decoding toolkit: reduced min-sum decoding, master/slave
check-node partitioning, a mesh cost-model simulator and a real
multi-worker benchmark mode."""

from .channel import ChannelConfig, llr_init, modulate, transmit
from .code import (
    CodeInfo,
    ParityCheckMatrix,
    generate_regular,
    load_alist,
    save_alist,
    syndrome_ok,
)
from .decoder import (
    DecodeResult,
    DecoderConfig,
    DecoderState,
    QFormat,
    decode,
    hard_decision,
    variable_node_update,
)
from .partition import (
    MessagePlan,
    Partition,
    make_partition,
    pack_llrs,
    plan_messages,
    unpack_llrs,
)

__all__ = [
    "ChannelConfig",
    "CodeInfo",
    "DecodeResult",
    "DecoderConfig",
    "DecoderState",
    "MessagePlan",
    "ParityCheckMatrix",
    "Partition",
    "QFormat",
    "decode",
    "generate_regular",
    "hard_decision",
    "llr_init",
    "load_alist",
    "make_partition",
    "modulate",
    "pack_llrs",
    "plan_messages",
    "save_alist",
    "syndrome_ok",
    "transmit",
    "unpack_llrs",
    "variable_node_update",
]
