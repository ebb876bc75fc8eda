"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that no operation fails, and that the benchmark refuses to run
without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / 'perfbench' / 'run.py'), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


@pytest.mark.parametrize('trace', ['0', '1'])
@pytest.mark.parametrize('workload', [w['name'] for w in SPEC['workloads']])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = _run(ROOT, '--workload', workload, '--seed', '7', '--seconds', '1',
                '--trace', trace, '--smoke')
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'], proc.stdout
    assert result['failed'] == 0 and result['attempted'] >= 1
    assert 'fail_ratio' in proc.stdout and f'(0/{result["attempted"]})' in proc.stdout
    wanted = SPEC['per_layer'] if trace == '1' else SPEC['end_to_end']
    assert set(result['metrics']) == {m['name'] for m in wanted}
    for m in wanted:
        got = result['metrics'][m['name']]
        assert got['unit'] == m['unit']
        assert isinstance(got['value'], (int, float))
        if trace == '0':
            assert got['value'] > 0, m['name']


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(ROOT / 'perfbench', tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('out', '__pycache__'))
    proc = _run(tmp_path, '--workload', 'algebra', '--seed', '1', '--seconds', '1', '--trace', '0')
    assert proc.returncode != 0
    assert proc.stdout.strip() == ''
