"""Host calibration: micro-benchmarks and spec construction."""

from __future__ import annotations

import time

import pytest

from repro.hw.calibrate import (
    calibrate_host,
    measure_copy_bandwidth,
    measure_exp_throughput,
    measure_matmul_flops,
    measure_small_gemm_flops,
    predicted_vs_measured,
)


class TestMicroBenchmarks:
    def test_matmul_flops_positive_and_plausible(self):
        flops = measure_matmul_flops(size=256, repeats=2)
        assert 1e8 < flops < 1e14  # anything from a potato to a super-host

    @pytest.mark.timing  # two measured rates compared: fails on a noisy host
    def test_small_gemm_slower_or_equal(self):
        # The square GEMM runs on OpenBLAS's two threads, the thin one on
        # one. On a two-vCPU VM a two-thread 256^3 GEMM can stall ~16 ms a
        # call (35-80x) — for single calls while the other core is busy,
        # and for about a second in a process started after the host sat
        # idle; one best-of-2 round failed about 1 run in 10. So: the best
        # of at least three interleaved rounds each, and more while the
        # thin GEMM still wins, for up to 3 s.
        big = small = 0.0
        rounds, deadline = 0, time.monotonic() + 3.0
        while rounds < 3 or (small > big * 1.5 and time.monotonic() < deadline):
            big = max(big, measure_matmul_flops(size=256, repeats=2))
            small = max(small, measure_small_gemm_flops(rows=4, width=256, repeats=2))
            rounds += 1
        assert small <= big * 1.5  # thin GEMMs never meaningfully beat square

    def test_copy_bandwidth(self):
        bw = measure_copy_bandwidth(nbytes=1 << 22, repeats=2)
        assert 1e8 < bw < 1e12

    def test_exp_throughput(self):
        rate = measure_exp_throughput(n=1 << 18, repeats=2)
        assert 1e6 < rate < 1e11


class TestCalibration:
    def test_spec_fields(self):
        calibration = calibrate_host(gemm_size=256)
        spec = calibration.spec
        assert spec.name == "this-host" and spec.kind == "cpu"
        assert 0 < spec.small_gemm_efficiency <= 1.0
        assert spec.h2d_bandwidth is None
        assert spec.elementwise_throughput > 0

    def test_predicted_vs_measured_rows(self, llama):
        calibration = calibrate_host(gemm_size=256)
        rows = predicted_vs_measured(llama, [32, 64], calibration)
        assert len(rows) == 2
        for n, predicted, measured in rows:
            assert predicted > 0 and measured > 0
