"""The qpartition benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src``, never from an installed copy.  A run pins itself
and every process it starts to one CPU, starts the speed probe there
(see probe.py), then starts a few set-up-only interpreters (``setup_s``
is their median together with the passes' own set-up times), then runs
passes of the workload, each in a fresh interpreter, until the next pass
would overrun ``--seconds``.  Every pass runs each operation once and
checks it against a reference.  Times are reported at reference machine
speed; the raw seconds are printed beside them and kept in the record.

With ``--trace 0`` no span is recorded and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` passes alternate
traced and untraced, and the per-layer metrics are reported from the
traced ones; ``trace.overhead_s`` is the traced minus the untraced
median pass time.  The human-readable report, the run metadata and the
failure count come first; the last line of standard output is the JSON
result.  The full record, spans included, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.

``--smoke`` runs one pass at tiny sizes; the benchmark's own test uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from probe import KERNEL_REF_S, Calibration
from tracing import summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ('algebra', 'commutant-one-orbit', 'commutant-many-orbits', 'cli')
SETUP_SAMPLES = 25
# Keeps a run inside the 180 s a single run may take, whatever --seconds says.
HARD_CAP_S = 150


def _spawn(args: list[str], timeout: float) -> tuple[float, dict | None, str]:
    """Run one worker; returns (spawn time, parsed last line or None, error text)."""
    cmd = [sys.executable, str(HERE / 'worker.py'), *args]
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return spawned, None, f'worker timed out after {timeout:.0f} s'
    if proc.returncode != 0:
        return spawned, None, f'worker exit {proc.returncode}: {err.decode()[-2000:]}'
    try:
        return spawned, json.loads(out.decode().strip().splitlines()[-1]), ''
    except (ValueError, IndexError):
        return spawned, None, f'unreadable worker output: {out.decode()[-2000:]}'


def _per_op_medians(passes: list[dict], field: str) -> list[float]:
    """Each operation's median latency over the passes."""
    return [median(p['ops'][i][field] for p in passes) for i in range(len(passes[0]['ops']))]


def _harrell_davis_median(values: list[float], steps: int = 64) -> float:
    """The Harrell-Davis estimate of the median.

    A mean of the sorted values weighted by the Beta((n+1)/2, (n+1)/2)
    density over each value's share of [0, 1].  With a few operations of
    different kinds the sample median jumps from one operation to another
    whenever two of them near the middle swap order; this estimate moves
    smoothly.  The weights are integrated by the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2
    weights = [sum(math.exp((a - 1) * math.log(4 * x * (1 - x)))
                   for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 90):
        beyond = len(ordered) - int(len(ordered) * pct / 100)
        if beyond >= 10 and len(ordered) > beyond:
            return pct, ordered[len(ordered) - beyond]
    return None


def _stop_probe(probe: subprocess.Popen) -> list[tuple[float, float, float]]:
    probe.send_signal(signal.SIGTERM)
    try:
        out, _ = probe.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        return []
    return [tuple(map(float, line.split())) for line in out.decode().splitlines() if line]


def _metadata(ns, cpu: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / 'src' / 'qpartition').glob('*.py')):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None
    if (ROOT / '.git').exists():
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        'workload': ns.workload, 'seed': ns.seed, 'seconds': ns.seconds,
        'trace': ns.trace, 'smoke': ns.smoke,
        'python': platform.python_version(),
        'gmpy2': importlib.util.find_spec('gmpy2') is not None,
        'commit': commit, 'source_sha256': digest.hexdigest(),
        'nproc': os.cpu_count(), 'pinned_cpu': cpu,
        'loadavg_at_start': os.getloadavg(),
        'load': 'closed loop, one client: operations run one at a time in one worker process',
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, default=30)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true')
    ns = parser.parse_args()

    if not (ROOT / 'src' / 'qpartition' / '__init__.py').is_file():
        print(f'no qpartition sources under {ROOT / "src"}', file=sys.stderr)
        return 2
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    wanted = spec['per_layer'] if ns.trace else spec['end_to_end']

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = perf_counter()
    deadline = start + ns.seconds
    base = ['--workload', ns.workload, '--seed', str(ns.seed)] + (['--smoke'] if ns.smoke else [])

    def remaining() -> float:
        return start + HARD_CAP_S - perf_counter()

    errors: list[str] = []
    setups: list[tuple[float, float]] = []  # (spawned, ready) clock readings
    passes: list[dict] = []
    attempted = failed = 0
    probe = subprocess.Popen([sys.executable, str(HERE / 'probe.py')], stdout=subprocess.PIPE)
    try:
        for _ in range(1 if ns.smoke else SETUP_SAMPLES):
            spawned, res, err = _spawn(base + ['--setup-only'], remaining())
            if res is None:
                errors.append(err)
            else:
                setups.append((spawned, res['ready_at']))

        longest = 0.0
        while remaining() > 0:
            traced = bool(ns.trace) and not len(passes) % 2
            spawned, res, err = _spawn(base + (['--trace'] if traced else []), remaining())
            longest = max(longest, perf_counter() - spawned)
            if res is None:
                errors.append(err)
                attempted += 1
                failed += 1
                break
            res['traced'] = traced
            passes.append(res)
            setups.append((spawned, res['ready_at']))
            attempted += len(res['ops'])
            failed += sum(not ok for _, _, _, ok, _ in res['ops'])
            if len({p['traced'] for p in passes}) == 1 + ns.trace and (
                    ns.smoke or perf_counter() + longest > deadline):
                break
    finally:
        samples = _stop_probe(probe)
    try:
        calib = Calibration(samples)
    except ValueError as exc:
        print(f'speed probe failed: {exc}', file=sys.stderr)
        return 1
    ref = calib.reference_s

    for p in passes:
        p['ops'] = [{'label': label, 'start': begin, 'end': end, 'raw_s': end - begin,
                     'ref_s': ref(begin, end), 'ok': ok, 'error': err}
                    for label, begin, end, ok, err in p['ops']]
        p['raw_wall_s'] = sum(op['raw_s'] for op in p['ops'])
        p['wall_s'] = sum(op['ref_s'] for op in p['ops'])
    plain = [p for p in passes if not p['traced']]
    traced_passes = [p for p in passes if p['traced']]
    values: dict[str, float] = {}
    raw: dict[str, float] = {}
    if plain:
        values['wall_s'] = median(p['wall_s'] for p in plain)
        values['op_s.p50'] = _harrell_davis_median(_per_op_medians(plain, 'ref_s'))
        values['peak_rss_mb'] = median(p['peak_rss_mb'] for p in plain)
        raw['wall_s'] = median(p['raw_wall_s'] for p in plain)
        raw['op_s.p50'] = _harrell_davis_median(_per_op_medians(plain, 'raw_s'))
    if setups:
        values['setup_s'] = median(ref(a, b) for a, b in setups)
        raw['setup_s'] = median(b - a for a, b in setups)
    if traced_passes:
        summaries = [summarise(p['spans'], p['counts'], ref) for p in traced_passes]
        for m in spec['per_layer']:
            values[m['name']] = median(s.get(m['name'], 0) for s in summaries)
        pairs = values['centralizer.pairs']
        values['centralizer.s_per_pair'] = values['centralizer.commutant_basis.s'] / pairs if pairs else 0.0
        if plain:
            values['trace.overhead_s'] = (median(p['wall_s'] for p in traced_passes)
                                          - values['wall_s'])

    missing = [m['name'] for m in wanted if m['name'] not in values]
    if missing:
        errors.append(f'metrics not measured: {missing}')
    meta = _metadata(ns, cpu)
    op_samples = sum(len(p['ops']) for p in plain)
    failures = [(op['label'], op['error']) for p in passes for op in p['ops'] if not op['ok']]

    print(f'# {ns.workload} seed={ns.seed} python={meta["python"]} gmpy2={meta["gmpy2"]} '
          f'nproc={meta["nproc"]} commit={meta["commit"]} source={meta["source_sha256"][:12]}')
    print(f'# passes: {len(plain)} untraced, {len(traced_passes)} traced; '
          f'set-up samples: {len(setups)}; op samples: {op_samples}')
    print(f'# speed probe on cpu {cpu}: kernel median {calib.kernel_median_s() * 1e3:.3f} ms '
          f'over {len(samples)} samples; reference {KERNEL_REF_S * 1e3:g} ms')
    for m in wanted:
        if m['name'] in values:
            extra = f'   (raw {raw[m["name"]]:.6g} s)' if m['name'] in raw else ''
            print(f'{m["name"]:<40} {values[m["name"]]:>14.6g} {m["unit"]}{extra}')
    if plain:
        print(f'# op_s.p50 is the Harrell-Davis median over {len(plain[0]["ops"])} operations '
              f'of each one\'s median over {len(plain)} passes')
        tail = _tail([op['ref_s'] for p in plain for op in p['ops']])
        if tail:
            print(f'# op latency p{tail[0]}: {tail[1]:.6g} s over {op_samples} samples')
    print(f'{"fail_ratio":<40} {failed / max(attempted, 1):>14.6g} ({failed}/{attempted})')
    for label, err in failures[:20]:
        print(f'# FAILED {label}: {err or "disagrees with its reference"}')
    for err in errors:
        print(f'# ERROR {err}')

    out_dir = HERE / 'out'
    out_dir.mkdir(exist_ok=True)
    record = {'meta': meta, 'values': values, 'raw': raw, 'setups': setups, 'errors': errors,
              'attempted': attempted, 'failed': failed, 'passes': passes, 'probe': samples}
    (out_dir / f'{ns.workload}-seed{ns.seed}-trace{ns.trace}.json').write_text(json.dumps(record))

    if missing:
        return 1
    print(json.dumps({
        'correct': failed == 0 and not errors,
        'attempted': max(attempted, 1),
        'failed': failed,
        'metrics': {m['name']: {'value': values[m['name']], 'unit': m['unit']} for m in wanted},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
