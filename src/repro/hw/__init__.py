"""Hardware substrate: analytical models of the paper's five testbeds.

Real RTX 4090/A40/A100 GPUs and i9/Ryzen CPUs are not available offline;
this package substitutes roofline-style device models driven by the exact
FLOP/byte counts from :mod:`repro.llm.flops` (see DESIGN.md §2 for the
substitution rationale). Measured NumPy wall-clock numbers from the engine
provide the second, fully-empirical datapoint in the benchmarks.
"""

from repro.hw.device import (
    A40,
    A100,
    AMD_R9_7950X,
    CPU_DEVICES,
    DEVICES,
    GPU_DEVICES,
    INTEL_I9_13900K,
    RTX_4090,
    DeviceSpec,
    device,
)
from repro.hw.latency import (
    TTFTBreakdown,
    baseline_ttft,
    cached_ttft,
    decode_step_latency,
    module_copy_latency,
    speedup,
)
from repro.hw.transfer import (
    ROUTE_BANDWIDTH,
    Route,
    copy_latency,
    layer_kv_payload_bytes,
    module_transfer_route,
)

__all__ = [
    "DeviceSpec", "device", "DEVICES", "GPU_DEVICES", "CPU_DEVICES",
    "RTX_4090", "A40", "A100", "INTEL_I9_13900K", "AMD_R9_7950X",
    "TTFTBreakdown", "baseline_ttft", "cached_ttft", "decode_step_latency",
    "module_copy_latency", "speedup",
    "Route", "ROUTE_BANDWIDTH", "copy_latency", "layer_kv_payload_bytes",
    "module_transfer_route",
]
