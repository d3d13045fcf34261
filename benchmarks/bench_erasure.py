"""E9 -- Erasure-coding substrate microbenchmark.

Reed-Solomon encode and decode throughput for the ``[n, k]`` parameters used
throughout the experiments, plus the throughput of the one GF(2^8) kernel
underneath (:func:`repro.erasure.gf256.gf_combine`, one dense row).  This is
the sanity baseline for E3: the paper's deployment uses a C erasure-coding
library (liberasurecode), so absolute throughput differs, but the relative
cost of growing ``n`` at fixed rate ``k/n`` is the same shape.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis.report import Table
from repro.common.values import Value
from repro.erasure.gf256 import gf_combine
from repro.erasure.rs import ReedSolomonCode, decode_cache_clear, decode_cache_info

PAYLOAD = 1 << 16  # 64 KiB
QUICK_PAYLOAD = 1 << 12  # 4 KiB
PARAMETERS = [(3, 2), (6, 4), (9, 6), (12, 8)]
#: Value sizes for the throughput-by-size sweep: 1 KiB to 1 MiB.
THROUGHPUT_SIZES = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
QUICK_THROUGHPUT_SIZES = [1 << 10, 1 << 14]


def encode_decode_once(n: int, k: int, size: int = PAYLOAD):
    code = ReedSolomonCode(n, k)
    value = Value.of_size(size, label="bench")
    elements = code.encode(value)
    decoded = code.decode(elements[n - k:])
    assert decoded.size == size
    return elements


@pytest.mark.experiment("E9")
@pytest.mark.parametrize("n,k", PARAMETERS, ids=[f"rs-{n}-{k}" for n, k in PARAMETERS])
def test_reed_solomon_encode_decode(benchmark, quick, n, k):
    if quick and (n, k) != (6, 4):
        pytest.skip("--quick runs only the representative [6, 4] code")
    size = QUICK_PAYLOAD if quick else PAYLOAD
    benchmark(lambda: encode_decode_once(n, k, size=size))


@pytest.mark.experiment("E9")
def test_fragment_size_table(benchmark, quick):
    table = Table(
        "E9: fragment size and storage blow-up per [n, k] (64 KiB object)",
        ["n", "k", "fragment bytes", "total stored bytes", "blow-up n/k"],
    )
    for n, k in PARAMETERS:
        code = ReedSolomonCode(n, k)
        fragment = code.fragment_size(PAYLOAD)
        table.add_row(n, k, fragment, fragment * n, n / k)
    table.print()
    size = QUICK_PAYLOAD if quick else PAYLOAD
    benchmark(lambda: ReedSolomonCode(6, 4).encode(Value.of_size(size)))


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.experiment("E9")
def test_throughput_across_value_sizes(benchmark, quick):
    """Throughput from 1 KiB to 1 MiB on the [6, 4] code, random bytes.

    Per size: encode (two parity rows), decode with one data shard missing
    (one row rebuilt), decode from the parity-heavy survivor set (two rows
    rebuilt, the worst case for [6, 4]) and the kernel alone -- one dense
    row of :func:`gf_combine` over the four data shards, in MB/s of shard
    bytes read.  Decodes are timed with the inverse cache warm; the hit
    rate of the timed loops is reported alongside.
    """
    n, k = 6, 4
    code = ReedSolomonCode(n, k)
    sizes = QUICK_THROUGHPUT_SIZES if quick else THROUGHPUT_SIZES
    repeats = 3 if quick else 5
    table = Table(
        f"E9: Reed-Solomon [{n}, {k}] throughput by value size (MB/s)",
        ["value size", "encode", "decode, 1 data shard lost",
         "decode, parity-heavy", "kernel (1 dense row)", "decode cache hit rate"],
    )
    rng = random.Random(0)
    dense_row = code.generator[k]               # first parity row: k translates
    assert 0 not in dense_row and 1 not in dense_row
    for size in sizes:
        value = Value(payload=rng.randbytes(size), label="bench")
        elements = code.encode(value)
        one_lost, parity_heavy = elements[1:k + 1], elements[n - k:]
        data = [element.payload for element in elements[:k]]
        assert gf_combine(dense_row, data) == elements[k].payload
        decode_cache_clear()
        for survivors in (one_lost, parity_heavy):   # cold calls cache the inverses
            assert code.decode(survivors).payload == value.payload
        warm_base = decode_cache_info()
        mb = size / (1 << 20)
        rates = [mb / _time(fn, repeats) for fn in (
            lambda: code.encode(value),
            lambda: code.decode(one_lost),
            lambda: code.decode(parity_heavy),
            lambda: gf_combine(dense_row, data))]
        info = decode_cache_info()
        # Rate over the timed loops only (the cold calls' misses are excluded).
        timed_hits = info["hits"] - warm_base["hits"]
        timed_misses = info["misses"] - warm_base["misses"]
        hit_rate = timed_hits / max(1, timed_hits + timed_misses)
        table.add_row(f"{size >> 10} KiB", *(round(rate, 1) for rate in rates),
                      f"{hit_rate:.0%}")
        # Repeated decodes from one quorum must hit the memoised inverse.
        assert timed_hits == 2 * repeats and timed_misses == 0
    table.print()
    benchmark(lambda: code.decode(parity_heavy))


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
