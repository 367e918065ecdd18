"""CLI: every subcommand drives the library end to end."""

from __future__ import annotations

import pytest

from repro.cli import main

SCHEMA = """
<schema name="demo">
intro text for the assistant .
<module name="doc">atlantis has capital coral .</module>
</schema>
"""


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "demo.pml"
    path.write_text(SCHEMA)
    return path


class TestInspect:
    def test_prints_layout(self, schema_file, capsys):
        assert main(["inspect", str(schema_file)]) == 0
        out = capsys.readouterr().out
        assert "schema 'demo'" in out
        assert "doc" in out
        assert "lint" in out

    def test_lint_flags_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.pml"
        path.write_text(
            '<schema name="bad"><module name="t">x</module>'
            '<union><module name="solo">alone</module></union></schema>'
        )
        main(["inspect", str(path)])
        out = capsys.readouterr().out
        assert "single-member-union" in out
        assert "tiny-module" in out


class TestServe:
    def test_serve_inline_prompt(self, schema_file, capsys):
        code = main([
            "serve", str(schema_file),
            '<prompt schema="demo"><doc/> hello</prompt>',
            "--size", "tiny", "--max-new-tokens", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "output:" in out

    def test_serve_with_compare(self, schema_file, capsys):
        main([
            "serve", str(schema_file),
            '<prompt schema="demo"><doc/> hello</prompt>',
            "--size", "tiny", "--max-new-tokens", "2", "--compare",
        ])
        assert "baseline TTFT" in capsys.readouterr().out

    def test_prompt_from_file(self, schema_file, tmp_path, capsys):
        prompt_file = tmp_path / "p.pml"
        prompt_file.write_text('<prompt schema="demo"><doc/> q</prompt>')
        main(["serve", str(schema_file), str(prompt_file), "--size", "tiny",
              "--max-new-tokens", "2"])
        assert "output:" in capsys.readouterr().out


class TestOthers:
    def test_tokenize(self, capsys):
        assert main(["tokenize", "atlantis has capital"]) == 0
        out = capsys.readouterr().out
        assert "tokens:" in out

    def test_ttft(self, capsys):
        assert main([
            "ttft", "--model", "llama2-7b", "--device", "rtx-4090",
            "--tokens", "3072", "--uncached", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "narrativeqa" in out and "summarization" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "rtx-4090" in out and "i9-13900k" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServeLive:
    def test_summary_output(self, capsys):
        assert main([
            "serve-live", "--rate", "30", "--duration", "0.5", "--seed", "1",
            "--schemas", "2", "--module-tokens", "24",
        ]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "TTFT p50" in out

    def test_prometheus_output(self, capsys):
        assert main([
            "serve-live", "--rate", "20", "--duration", "0.4", "--seed", "1",
            "--schemas", "2", "--module-tokens", "24", "--format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "server_ttft_seconds_quantile" in out
        assert "# TYPE server_requests_total counter" in out


class TestWarm:
    def test_warm_schema_file_and_snapshot(self, schema_file, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        assert main([
            "warm", str(schema_file), "--out", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "warmed 1 schema(s)" in out
        assert "snapshot:" in out and "--attach-snapshot" in out
        assert (out_dir / "index.json").exists()
        assert list(out_dir.glob("*.keys.npy"))

    def test_warm_synthetic_times_each_schema(self, capsys):
        assert main(["warm", "--synthetic", "2", "--module-tokens", "24"]) == 0
        out = capsys.readouterr().out
        assert "warmed 2 schema(s)" in out
        assert "schema0" in out and "schema1" in out

    def test_warm_nothing_to_do_errors(self, capsys):
        assert main(["warm"]) == 2
        assert "nothing to warm" in capsys.readouterr().err

    def test_warmed_snapshot_attaches_into_cluster(self, schema_file, tmp_path,
                                                   capsys):
        out_dir = tmp_path / "snap"
        main(["warm", "--synthetic", "1", "--module-tokens", "24",
              "--out", str(out_dir)])
        capsys.readouterr()
        assert main([
            "serve-cluster", "--workers", "2", "--schemas", "1",
            "--module-tokens", "24", "--rate", "20", "--duration", "0.4",
            "--attach-snapshot", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "fabric (w0): 1 cataloged" in out
        assert "snapshot (w0):" in out and "KiB mapped" in out


class TestLoadgen:
    def test_trace_summary(self, capsys):
        assert main(["loadgen", "--rate", "2.0", "--duration", "20",
                     "--schemas", "3", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out and "inter-arrival" in out

    def test_jsonl(self, capsys):
        import json

        assert main(["loadgen", "--rate", "1.0", "--duration", "10",
                     "--schemas", "2", "--seed", "4", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"arrival_s", "schema"} <= set(first)
